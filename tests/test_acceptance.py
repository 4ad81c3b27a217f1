"""Acceptance gate: the nine shipping criteria, one test per criterion.

Each test prints a PASS line on success; run with -s (or the standalone
main) to see them.  Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import pytest

from conftest import GOLD_FORMS, GOLD_LEXICON, SAMPLE_LEXICON
from oracle_traditional import conjugate

from arabverb import analyzer, evaluate, pipeline
from arabverb.inflect import CELLS, Cell
from arabverb.lexicon import LexiconEntry, load_lexicon, parse_code

# Table of the full active paradigm of the demonstration verb (13 cells
# of the perfective, 13 per imperfective mood, 5 imperatives), fixed by
# hand in the internal transliteration.
TABLE2_ACTIVE = {
    ("3SM", "PERF"): "façala", ("3SF", "PERF"): "façalat·",
    ("3DM", "PERF"): "façalaA", ("3DF", "PERF"): "façalataA",
    ("3PM", "PERF"): "façaluwA", ("3PF", "PERF"): "façal·na",
    ("2SM", "PERF"): "façal·ta", ("2SF", "PERF"): "façal·ti",
    ("2DN", "PERF"): "façal·tumaA", ("2PM", "PERF"): "façal·tum·",
    ("2PF", "PERF"): "façal·tun~a", ("1SN", "PERF"): "façal·tu",
    ("1PN", "PERF"): "façal·naA",
    ("3SM", "IMPF-IND"): "yaf·çulu", ("3SF", "IMPF-IND"): "taf·çulu",
    ("3DM", "IMPF-IND"): "yaf·çulaAni", ("3DF", "IMPF-IND"): "taf·çulaAni",
    ("3PM", "IMPF-IND"): "yaf·çuluwna", ("3PF", "IMPF-IND"): "yaf·çul·na",
    ("2SM", "IMPF-IND"): "taf·çulu", ("2SF", "IMPF-IND"): "taf·çuliyna",
    ("2DN", "IMPF-IND"): "taf·çulaAni", ("2PM", "IMPF-IND"): "taf·çuluwna",
    ("2PF", "IMPF-IND"): "taf·çul·na", ("1SN", "IMPF-IND"): "Áaf·çulu",
    ("1PN", "IMPF-IND"): "naf·çulu",
    ("3SM", "IMPF-SUBJ"): "yaf·çula", ("3SF", "IMPF-SUBJ"): "taf·çula",
    ("3DM", "IMPF-SUBJ"): "yaf·çulaA", ("3DF", "IMPF-SUBJ"): "taf·çulaA",
    ("3PM", "IMPF-SUBJ"): "yaf·çuluwA", ("3PF", "IMPF-SUBJ"): "yaf·çul·na",
    ("2SM", "IMPF-SUBJ"): "taf·çula", ("2SF", "IMPF-SUBJ"): "taf·çuliy",
    ("2DN", "IMPF-SUBJ"): "taf·çulaA", ("2PM", "IMPF-SUBJ"): "taf·çuluwA",
    ("2PF", "IMPF-SUBJ"): "taf·çul·na", ("1SN", "IMPF-SUBJ"): "Áaf·çula",
    ("1PN", "IMPF-SUBJ"): "naf·çula",
    ("3SM", "IMPF-JUS"): "yaf·çul·", ("3SF", "IMPF-JUS"): "taf·çul·",
    ("3DM", "IMPF-JUS"): "yaf·çulaA", ("3DF", "IMPF-JUS"): "taf·çulaA",
    ("3PM", "IMPF-JUS"): "yaf·çuluwA", ("3PF", "IMPF-JUS"): "yaf·çul·na",
    ("2SM", "IMPF-JUS"): "taf·çul·", ("2SF", "IMPF-JUS"): "taf·çuliy",
    ("2DN", "IMPF-JUS"): "taf·çulaA", ("2PM", "IMPF-JUS"): "taf·çuluwA",
    ("2PF", "IMPF-JUS"): "taf·çul·na", ("1SN", "IMPF-JUS"): "Áaf·çul·",
    ("1PN", "IMPF-JUS"): "naf·çul·",
    ("2SM", "IMPV"): "Auf·çul·", ("2SF", "IMPV"): "Auf·çuliy",
    ("2DN", "IMPV"): "Auf·çulaA", ("2PM", "IMPV"): "Auf·çuluwA",
    ("2PF", "IMPV"): "Auf·çul·na",
}

# Curated lemma column for the 24 traditional patterns.  Rows whose
# printed source is typographically corrupted carry the oracle-verified
# string instead (flagged); the two plain quadriliteral rows use the
# cited real-root examples because the demonstration root would double
# its final radical and trigger the geminate repairs.
TABLE1_LEMMAS = [
    ("fçl", "00L0003", "façala", ""),
    ("fçl", "00L0002", "façala", ""),
    ("fçl", "00L0001", "façala", ""),
    ("fçl", "00L0303", "façula", ""),
    ("fçl", "00L0201", "façila", ""),
    ("fçl", "00L0202", "façila", ""),
    ("fçl", "00H1000", "faç~ala", ""),
    ("fçl", "06H0000", "faAçala", ""),
    ("fçl", "10H0000", "Áaf·çala", "flag: source prints no sukun"),
    ("fçl", "00H4000", "tafaç~ala", ""),
    ("fçl", "06H3000", "tafaAçala", ""),
    ("fçl", "20L0000", "Ain·façala", ""),
    ("fçl", "01L0000", "Aif·taçala", ""),
    ("fçl", "00L2000", "Aif·çal~a", "flag: source prints alla for al~a"),
    ("fçl", "04H0000", "Ais·taf·çala", "flag: source drops one sukun"),
    ("fçl", "07H2000", "Aif·çaAl~a", "flag: source prints alla for al~a"),
    ("fçl", "03H1000", "Aif·çaw·çala", ""),
    ("fçl", "05H0000", "Aif·çaw~ala", ""),
    ("fçl", "02H2000", "Aif·çan·lala", ""),
    ("fçl", "08H0000", "Aif·çan·laY", "flag: final long a spelled per the cited example"),
    ("trjm", "00H0000", "tar·jama", "flag: real root substituted"),
    ("dHrj", "00H3000", "tadaH·raja", "flag: real root substituted"),
    ("fçll", "02H0000", "Aif·çan·lala", ""),
    ("fçll", "00H2000", "Aif·çalal~a", ""),
]


def _paradigms(pairs):
    """The cell -> surface map of each (root, code), from one generate_all."""
    entries = [LexiconEntry(lemma="", root=root, code=parse_code(code)) for root, code in pairs]
    forms, stats = pipeline.generate_all(entries)
    assert not stats.failures
    return [dict(zip(CELLS, p.surfaces)) for p in forms.paradigms]


def test_criterion_1_table2_reproduction():
    start = time.monotonic()
    surfaces, = _paradigms([("fçl", "00L0003")])
    mismatches = []
    for (tag, paradigm), expected in TABLE2_ACTIVE.items():
        got = surfaces[Cell(tag, paradigm, "ACT")]
        if got != expected:
            mismatches.append((tag, paradigm, expected, got))
    elapsed = time.monotonic() - start
    assert len(TABLE2_ACTIVE) == 57
    assert mismatches == []
    assert elapsed < 1.0
    print("PASS criterion 1: 57/57 active paradigm cells exact (%.3fs)" % elapsed)


def test_criterion_2_table1_reproduction():
    start = time.monotonic()
    paradigms = _paradigms([(root, code) for root, code, _expected, _flag in TABLE1_LEMMAS])
    mismatches = [
        (root, code, expected, paradigm[CELLS[0]])
        for (root, code, expected, _flag), paradigm in zip(TABLE1_LEMMAS, paradigms)
        if paradigm[CELLS[0]] != expected
    ]
    elapsed = time.monotonic() - start
    assert len(TABLE1_LEMMAS) == 24
    assert mismatches == []
    assert elapsed < 1.0
    print("PASS criterion 2: 24/24 pattern lemmas exact (%.3fs)" % elapsed)


def test_criterion_3_paradigm_size_law(sample_entries, gold_entries, sample_forms):
    forms, stats = pipeline.generate_all(list(sample_entries) + list(gold_entries))
    assert not stats.failures and {len(p.surfaces) for p in forms.paradigms} == {109}
    assert len(sample_forms) == 109 * len(sample_entries)
    assert 15452 * 109 == 1684268
    print("PASS criterion 3: |paradigm| = 109 for every entry; 15,452 x 109 = 1,684,268")


def test_criterion_4_named_irregulars():
    qwl, wfq, mrr, wrth = _paradigms([("qwl", "00L0003"), ("wfq", "01L0000"),
                                      ("mrr", "04H0000"), ("wrþ", "00L0202")])
    checks = [
        (qwl[Cell("3SM", "PERF", "PAS")], "qiyla"),
        (wfq[CELLS[0]], "Ait~afaqa"),
        (mrr[CELLS[0]], "Ais·tamar~a"),
        (qwl[Cell("2SM", "PERF", "ACT")], "qul·ta"),
        (wrth[Cell("3SM", "IMPF-IND", "ACT")], "yariþu"),
    ]
    for got, expected in checks:
        assert got == expected, (got, expected)
    print("PASS criterion 4: qiyla, Ait~afaqa, Ais·tamar~a, qul·ta, yariþu all exact")


def test_criterion_5_round_trip(sample_forms):
    start = time.monotonic()
    index = analyzer.FormIndex(sample_forms)
    for f in sample_forms:
        hits = analyzer.analyze(index, f.surface)
        assert any(
            (a.lemma, a.code, a.tag, a.paradigm, a.voice)
            == (f.lemma, f.code, f.cell.tag, f.cell.paradigm, f.cell.voice)
            for a in hits
        ), f
        stripped = analyzer.analyze(index, analyzer.skeleton(f.surface))
        assert set(hits) <= set(stripped), f
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print("PASS criterion 5: %d-form round trip with superset relaxation (%.2fs)"
          % (len(sample_forms), elapsed))


def test_criterion_6_cascade_fixed_point(sample_forms, gold_forms, ruleset):
    changed = 0
    for f in itertools.chain(sample_forms, gold_forms):
        if ruleset.apply(f.surface) != f.surface:
            changed += 1
    assert changed == 0
    print("PASS criterion 6: cascade is a fixed point on %d surfaces"
          % (len(sample_forms) + len(gold_forms)))


def test_criterion_7_evaluation_harness(sample_forms, gold_forms, gold_entries):
    start = time.monotonic()
    # self comparison
    rows = evaluate.forms_to_normalized(sample_forms)
    report, _ = evaluate.evaluate(rows, rows)
    assert report.precision == 1.0 and report.no_data == 0
    # single mutation, counted by hand
    mutated = list(rows)
    key = mutated[0][:4]
    mutated[0] = key + ("zzz",)
    report, diff = evaluate.evaluate(rows, mutated)
    assert report.correct == len(set(mutated)) - 1
    assert report.incorrect == 1
    assert len(diff) == 1
    assert abs(report.precision - (len(set(mutated)) - 1) / len(set(mutated))) < 1e-12
    # the gold standard: every engine surface must match the paradigms
    # built independently by the reference conjugator
    reference = evaluate.load_normalized(GOLD_FORMS)
    generated = evaluate.forms_to_normalized(gold_forms)
    gold_report, gold_diff = evaluate.evaluate(reference, generated)
    elapsed = time.monotonic() - start
    assert len(gold_entries) >= 50
    assert len(reference) >= 5450
    assert gold_report.no_data == 0
    assert gold_report.incorrect == 0, gold_diff[:5]
    assert gold_report.precision == 1.0
    assert elapsed < 30.0
    print("PASS criterion 7: self=100%%; mutation counted; gold precision 100.00%% "
          "over %d paradigms / %d forms (%.2fs)"
          % (len(gold_entries), len(reference), elapsed))


def test_criterion_8_determinism_and_parallel(tmp_path, sample_entries):
    blobs = []
    for name in ("run1.tsv", "run2.tsv"):
        forms, _ = pipeline.generate_all(sample_entries)
        path = tmp_path / name
        pipeline.write_lexicon(forms, path.as_posix())
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    serial, _ = pipeline.generate_all(sample_entries, workers=1)
    parallel, _ = pipeline.generate_all(sample_entries, workers=2)
    assert serial == parallel
    print("PASS criterion 8: byte-identical reruns; parallel equals serial")


def test_criterion_9_throughput(tmp_path):
    consonants = "btjdrzsXSDTZfqklmnh"
    roots = itertools.islice(
        ("".join(c) for c in itertools.permutations(consonants, 3)), 1000)
    entries = [LexiconEntry(lemma="", root=r, code=parse_code("00L0003"))
               for r in roots]
    start = time.monotonic()
    forms, stats = pipeline.generate_all(entries)
    pipeline.write_lexicon(forms, (tmp_path / "bulk.tsv").as_posix())
    elapsed = time.monotonic() - start
    assert stats.lemma_count == 1000
    assert len(forms) == 109000
    assert elapsed < 5.0
    print("PASS criterion 9: 1,000 lemmas -> 109,000 forms in %.2fs" % elapsed)
