import pickle
import random
from collections import Counter

import pytest

from arabverb import pipeline
from arabverb.alphabet import ALPHABET
from arabverb.analyzer import (DIACRITICS, Analysis, FormIndex, analyze, derive_root, inflect_verb,
                               matches_partial, skeleton)
from arabverb.errors import BadLexicon, LemmaNotFound, UnknownCharacter
from arabverb.evaluate import forms_to_normalized
from arabverb.inflect import CELLS
from arabverb.lexicon import load_lexicon, parse_code, resolve_class
from arabverb.pipeline import Forms, Paradigm, read_lexicon, write_lexicon
from arabverb.translit import SCRIPT, to_script
from conftest import GOLD_LEXICON
from test_pipeline import _concatenated_outputs, _duplicate_entries
from test_translit import reference_to_internal


@pytest.fixture(scope="module")
def sample_index(sample_forms):
    return FormIndex(sample_forms)


@pytest.fixture(scope="module")
def gold_index(gold_forms):
    return FormIndex(gold_forms)


def test_skeleton_strips_diacritics():
    assert skeleton("façala") == "fçl"
    assert skeleton("faç~ala") == "fçl"
    assert skeleton("yaf·çuluwna") == "yfçlwn"
    assert skeleton("Ais·tamar~a") == "Astmr"


def test_partial_matching_definition():
    assert matches_partial("fçl", "façala")
    assert matches_partial("façala", "façala")
    assert matches_partial("façala", "faç~ala")  # query omits the shadda
    assert not matches_partial("fuçl", "façala")  # contradicting vowel
    assert not matches_partial("fçlk", "façala")


def test_index_size(sample_index, sample_forms):
    assert len(sample_index) == len(set(
        (f.surface, f.lemma, f.code, f.cell) for f in sample_forms))


def surfaces_of(forms):
    """Every surface of ``forms``, in the order it iterates them."""
    return [s for p in forms.paradigms for s in p.surfaces]


def test_every_form_reachable_through_both_maps(sample_index, sample_forms):
    from arabverb.analyzer import skeleton as skel

    for surface in surfaces_of(sample_forms)[::7]:
        assert any(a.surface == surface
                   for a in sample_index.by_skeleton[skel(surface)])


def test_analyze_full_diacritics(sample_index):
    hits = analyze(sample_index, "yaf·çulu")
    # the Iau and Iuu classes are homographic in this cell
    assert {a.label for a in hits} == {"Iau", "Iuu"}
    assert all((a.tag, a.paradigm, a.voice) == ("3SM", "IMPF-IND", "ACT") for a in hits)


def test_analyze_unvocalized_superset(sample_index):
    bare = analyze(sample_index, "فعل")
    assert len(bare) > 4
    paradigms = {(a.paradigm, a.voice) for a in bare}
    assert ("PERF", "ACT") in paradigms and ("PERF", "PAS") in paradigms


def test_monotone_relaxation(sample_index, sample_forms):
    for surface in surfaces_of(sample_forms)[::25]:
        full = set(analyze(sample_index, surface))
        stripped = set(analyze(sample_index, skeleton(surface)))
        assert full <= stripped


def test_round_trip_every_form(sample_index, sample_forms):
    for f in sample_forms:
        hits = analyze(sample_index, f.surface)
        assert any(
            (a.lemma, a.code, a.tag, a.paradigm, a.voice)
            == (f.lemma, f.code, f.cell.tag, f.cell.paradigm, f.cell.voice)
            for a in hits
        )


def test_analyze_rejects_unknown_characters(sample_index):
    with pytest.raises(UnknownCharacter):
        analyze(sample_index, "xyz♣")


def test_analyze_absent_form_is_empty(sample_index):
    assert analyze(sample_index, "zaHlaqa") == []


def test_analyze_arabic_script_query(gold_index):
    hits = analyze(gold_index, "كَتَبَ")
    assert hits and all(a.lemma == "kataba" for a in hits)
    assert any(a.tag == "3SM" and a.paradigm == "PERF" for a in hits)


def test_inflect_verb_homographs(sample_index):
    tables = inflect_verb(sample_index, "فَعَلَ")
    assert len(tables) == 3  # the three pattern-I thematic classes
    for rows in tables.values():
        assert len(rows) == 109


def test_inflect_verb_shadda_sensitive(sample_index):
    tables = inflect_verb(sample_index, "فَعَّلَ")
    assert list(tables) == ["00H1000"]
    with pytest.raises(LemmaNotFound):
        inflect_verb(sample_index, "فَعَّلَّ")


def test_inflect_verb_not_found(sample_index):
    with pytest.raises(LemmaNotFound):
        inflect_verb(sample_index, "zaHlaqa")


def test_derive_root_sample(sample_index):
    pairs = derive_root(sample_index, "fçl")
    assert len(pairs) == 20  # 24 patterns minus the four on real/4-radical roots
    labels = {label for _, label in pairs}
    assert {"Iau", "II", "X", "XV"} <= labels


def test_derive_root_qaala(gold_index):
    pairs = derive_root(gold_index, "qwl")
    assert ("qaAla", "Iau") in pairs


def test_derive_root_absent(sample_index):
    assert derive_root(sample_index, "zzz") == []


def test_index_queries_do_not_mutate(sample_index):
    before = len(sample_index)
    analyze(sample_index, "فعل")
    derive_root(sample_index, "fçl")
    assert len(sample_index) == before


def test_index_from_written_lexicon_answers_the_same(tmp_path, sample_index, sample_forms):
    path = tmp_path / "inflected.tsv"
    write_lexicon(sample_forms, path.as_posix())
    read_index = FormIndex(read_lexicon(path.as_posix()))
    assert len(read_index) == len(sample_index)
    for surface in surfaces_of(sample_forms)[::5]:
        for query in (surface, skeleton(surface)):
            assert analyze(read_index, query) == analyze(sample_index, query)
    for root in {f.root for f in sample_forms}:
        assert derive_root(read_index, root) == derive_root(sample_index, root)
    for lemma in {f.lemma for f in sample_forms}:
        assert inflect_verb(read_index, lemma) == inflect_verb(sample_index, lemma)


def test_labels_are_the_resolved_class_labels(sample_index):
    for analyses in sample_index.by_skeleton.values():
        for a in analyses:
            assert a.label == resolve_class(parse_code(a.code)).label


# Gold holds several entries of most of its codes, so a resolution per entry
# or per record would show as more misses than codes.
def test_load_generate_write_read_and_index_resolve_each_code_once(tmp_path):
    resolve_class.cache_clear()
    entries = load_lexicon(GOLD_LEXICON).entries
    forms, _stats = pipeline.generate_all(entries)
    path = (tmp_path / "inflected.tsv").as_posix()
    write_lexicon(forms, path)
    FormIndex(read_lexicon(path))
    codes = {e.code for e in entries}
    assert len(entries) == 66 and len(codes) == 24
    assert resolve_class.cache_info().misses == len(codes)


def test_read_and_index_build_no_inflected_form(tmp_path, monkeypatch, sample_forms, sample_index):
    path = tmp_path / "inflected.tsv"
    write_lexicon(sample_forms, path.as_posix())

    def refuse(*args):
        raise AssertionError("an InflectedForm was built")

    monkeypatch.setattr(pipeline, "InflectedForm", refuse)
    forms = read_lexicon(path.as_posix())
    assert len(FormIndex(forms)) == len(sample_index)
    assert len(forms_to_normalized(forms)) == len(forms_to_normalized(sample_forms)) == len(sample_forms)


# FormIndex builds its maps in one pass over the paradigm records, looking
# up the label, the lemma table and the root entry once per paradigm.  The
# reference below is the plain per-form build over the InflectedForm views:
# on records that hold each (lemma, code) once, every map, its key order
# and its list order must come out the same.

CELL_ORDER = {cell: i for i, cell in enumerate(CELLS)}

def reference_skeleton(s):
    return "".join(ch for ch in s if ch not in DIACRITICS)


class ReferenceIndex:
    def __init__(self, forms):
        self.by_skeleton, self.by_lemma, self.by_root = {}, {}, {}
        for f in forms:
            label = resolve_class(parse_code(f.code)).label
            analysis = Analysis(f.lemma, f.root, f.code, label, f.surface,
                                f.cell.tag, f.cell.paradigm, f.cell.voice)
            self.by_skeleton.setdefault(reference_skeleton(f.surface), []).append(analysis)
            self.by_lemma.setdefault(f.lemma, {}).setdefault(f.code, []).append(
                (CELL_ORDER[f.cell], f.cell, f.surface))
            self.by_root.setdefault(f.root, {})[(f.lemma, f.code)] = label


def ordered(index):
    """The maps as nested lists, so that key order counts: by_skeleton and
    by_root whole, by_lemma as its lemma and code keys."""
    return (list(index.by_skeleton.items()),
            [(lemma, list(tables)) for lemma, tables in index.by_lemma.items()],
            [(root, list(found.items())) for root, found in index.by_root.items()])


def reference_tables(reference, lemma):
    """What inflect_verb gives for ``lemma``, from the reference's rows."""
    return {code: [(cell, surface) for _, cell, surface in sorted(rows)]
            for code, rows in sorted(reference.by_lemma[lemma].items())}


def test_index_equals_the_per_row_build(sample_forms, gold_forms, mixed_class_lexicon):
    for forms in (sample_forms, gold_forms, mixed_class_lexicon[1]):
        index, reference = FormIndex(forms), ReferenceIndex(forms)
        assert ordered(index) == ordered(reference)
        assert len(index) == len(forms)
        for lemma in reference.by_lemma:
            assert inflect_verb(index, lemma) == reference_tables(reference, lemma)


def first_repeat(records):
    """The first record whose (lemma, code) an earlier one has."""
    seen = set()
    for record in records:
        if (record.lemma, record.code) in seen:
            return record
        seen.add((record.lemma, record.code))


# The index holds one record per (lemma, code), as load_lexicon keeps one
# entry per pair; records that repeat a pair, which generate_all and
# read_lexicon still pass on, are refused in load_lexicon's words.
@pytest.mark.parametrize("case", ["sample+gold", "duplicates", "concatenated outputs"])
def test_index_rejects_a_repeated_key(tmp_path, sample_forms, gold_forms, case):
    if case == "sample+gold":
        forms = Forms(sample_forms.paradigms + gold_forms.paradigms)
        keys = Counter((p.lemma, p.code) for p in forms.paradigms)
        assert sorted(keys.values())[-3:] == [1, 2, 2]
    elif case == "duplicates":
        forms, stats = pipeline.generate_all(_duplicate_entries())
        assert not stats.failures
    else:
        path, records = _concatenated_outputs(tmp_path)
        forms = read_lexicon(path.as_posix())
        assert forms == Forms(records)
    repeat = first_repeat(forms.paradigms)
    with pytest.raises(BadLexicon) as err:
        FormIndex(forms)
    assert str(err.value) == "duplicate (lemma, code) pair: lemma %s, root %s, code %s" % (
        repeat.lemma, repeat.root, repeat.code)


@pytest.mark.parametrize("seed", range(5))
def test_skeleton_equals_the_generator_reference(seed):
    rng = random.Random(seed)
    # Arabic letters and an emoji are not Latin-1 and take the fallback.
    symbols = sorted(ALPHABET) + ["\u0628", "\u064e", "\U0001f600", "\u00e9", " "]
    texts = [""] + ["".join(rng.choices(symbols, k=rng.randrange(1, 12))) for _ in range(500)]
    for text in texts:
        assert skeleton(text) == reference_skeleton(text)
    assert skeleton("\u0628a\U0001f600~") == "\u0628\U0001f600"


def test_analysis_record_contract():
    a = Analysis("kataba", "ktb", "00L0000", "Iau", "kataba", "3SM", "PERF", "ACT")
    assert Analysis._fields == ("lemma", "root", "code", "label", "surface", "tag", "paradigm", "voice")
    assert (a.lemma, a.root, a.code, a.label, a.surface, a.tag, a.paradigm, a.voice) == tuple(a)
    assert a.sort_key() == ("kataba", "00L0000", "PERF", "ACT", "3SM")
    with pytest.raises(AttributeError):
        a.surface = "x"
    with pytest.raises(AttributeError):
        a.extra = 1  # no __dict__
    twin = Analysis(*a)
    assert twin == a and hash(twin) == hash(a) and len({a, twin}) == 1
    assert a != a._replace(voice="PAS")
    back = pickle.loads(pickle.dumps(a))
    assert back == a and type(back) is Analysis


# analyze takes every candidate for a query with no diacritics, tests each
# distinct candidate surface once, and sorts on a getter.  The reference
# below is the filter-and-sort it replaced: each candidate tested, then a
# stable sort on a key built per analysis.  The answers, order included,
# must be the same.

def reference_sort_key(a):
    return (a.lemma, a.code, a.paradigm, a.voice, a.tag)


def reference_analyze(index, form):
    query = form if form and ALPHABET.issuperset(form) else reference_to_internal(form)
    candidates = index.by_skeleton.get(skeleton(query), [])
    hits = [a for a in candidates if matches_partial(query, a.surface)]
    return sorted(hits, key=reference_sort_key)


SCRIPT_DIACRITICS = frozenset(SCRIPT[mark] for mark in DIACRITICS)


def dropped(text, marks, rng):
    """``text`` without each of its ``marks`` with probability 1/2."""
    return "".join(ch for ch in text if ch not in marks or rng.random() < 0.5)


def queries_of(surfaces, seed):
    """Exact, partial, bare, script, script-partial and script-bare queries
    of each surface, and a miss per surface (one consonant swapped)."""
    rng = random.Random(seed)
    out = []
    for surface in surfaces:
        script = to_script(surface)
        out += [surface, dropped(surface, DIACRITICS, rng), skeleton(surface),
                script, dropped(script, SCRIPT_DIACRITICS, rng),
                "".join(ch for ch in script if ch not in SCRIPT_DIACRITICS)]
        consonants = [i for i, ch in enumerate(surface) if ch not in DIACRITICS]
        i = rng.choice(consonants)
        out.append(surface[:i] + rng.choice("bdfkqzÃ") + surface[i + 1:])
    return out


def strictly_increasing(hits):
    return all(a.sort_key() < b.sort_key() for a, b in zip(hits, hits[1:]))


@pytest.mark.parametrize("which", ["sample", "gold", "mixed-class"])
def test_analyze_equals_the_filter_and_sort_reference(which, sample_index, gold_index, sample_forms, gold_forms,
                                                      mixed_class_lexicon):
    if which == "mixed-class":
        forms = mixed_class_lexicon[1]
        index = FormIndex(forms)
    else:
        index, forms = (sample_index, sample_forms) if which == "sample" else (gold_index, gold_forms)
    surfaces = sorted({f.surface for f in forms})
    queries = queries_of(surfaces, seed=len(surfaces))
    misses = sum(1 for q in queries if not reference_analyze(index, q))
    for query in queries:
        hits = analyze(index, query)
        assert hits == reference_analyze(index, query), query
        # one record per (lemma, code): no two hits share a sort key
        assert strictly_increasing(hits), query
    assert 0 < misses < len(queries) / 4


def homograph_index():
    """Three records whose surfaces all strip to ``ktb``, cycling through a
    few spellings so that one skeleton holds many analyses per surface.
    Each has its own (lemma, code): the first two share the lemma, the
    first and the third the root and the code."""
    spellings = ("kataba", "kat~aba", "kutiba", "kut~iba", "katab", "kataba")
    records = [
        Paradigm("kataba", "ktb", "00L0003", tuple(spellings[i % 6] for i in range(len(CELLS)))),
        Paradigm("kataba", "kbt", "00L0002", tuple(spellings[(i + 1) % 6] for i in range(len(CELLS)))),
        Paradigm("kat~aba", "ktb", "00L0003", tuple(spellings[i % 4] for i in range(len(CELLS)))),
    ]
    return FormIndex(Forms(records))


def test_analyze_orders_homographs_by_a_total_key():
    index = homograph_index()
    assert len(index.by_skeleton) == 1 and len(index.by_skeleton["ktb"]) == 3 * len(CELLS)
    queries = ["ktb", "kataba", "kat~aba", "katab", "kutiba", "kut~iba", "k~b", "kaba", "ktba", "kt",
               to_script("ktb"), to_script("kat~aba"), "katabu"]
    for query in queries:
        hits = analyze(index, query)
        assert hits == reference_analyze(index, query), query
        assert strictly_increasing(hits), query
    # every record answers the bare query, each cell once
    hits = analyze(index, "ktb")
    assert [(a.lemma, a.code) for a in hits[::len(CELLS)]] == [
        ("kataba", "00L0002"), ("kataba", "00L0003"), ("kat~aba", "00L0003")]


def test_analyze_answers_a_list_of_its_own(sample_index):
    bare = skeleton("façala")
    hits = analyze(sample_index, bare)
    assert hits == reference_analyze(sample_index, bare)
    candidates = list(sample_index.by_skeleton[bare])
    hits.clear()
    assert sample_index.by_skeleton[bare] == candidates
    assert analyze(sample_index, bare) == reference_analyze(sample_index, bare)
