import pytest

from arabverb.errors import BadLexicon
from arabverb.evaluate import (
    EvalReport,
    evaluate,
    evaluate_files,
    forms_to_normalized,
    load_normalized,
)


def test_self_comparison_is_perfect(sample_forms):
    rows = forms_to_normalized(sample_forms)
    report, diff = evaluate(rows, rows)
    assert report.correct == len(set(rows))
    assert report.incorrect == 0
    assert report.no_data == 0
    assert report.precision == 1.0
    assert diff == []


def test_single_mutation_hand_count(sample_forms):
    reference = forms_to_normalized(sample_forms)
    generated = list(reference)
    lemma, tag, paradigm, voice, surface = generated[100]
    generated[100] = (lemma, tag, paradigm, voice, surface + "a" if not surface.endswith("a") else surface[:-1])
    report, diff = evaluate(reference, generated)
    total = len(set(generated))
    assert report.correct == total - 1
    assert report.incorrect == 1
    assert report.precision == (total - 1) / total
    assert len(diff) == 1


def test_no_data_counting():
    reference = [("known", "3SM", "PERF", "ACT", "kataba")]
    generated = [("known", "3SM", "PERF", "ACT", "kataba"),
                 ("missing", "3SM", "PERF", "ACT", "qaAla"),
                 ("missing", "3SF", "PERF", "ACT", "qaAlat·")]
    report, _diff = evaluate(reference, generated)
    assert report.correct == 1
    assert report.no_data == 2
    assert report.total == 3


def test_exclusions_are_skipped(sample_forms):
    rows = forms_to_normalized(sample_forms)[:50]
    excluded_key = rows[0][:4]
    report, _diff = evaluate(rows, rows, exclusions={excluded_key})
    assert report.excluded == 1
    assert report.correct == len(set(rows)) - 1


def test_multiple_reference_surfaces_per_key():
    reference = [("lemma", "3SM", "PERF", "ACT", "varianta"),
                 ("lemma", "3SM", "PERF", "ACT", "variantb")]
    generated = [("lemma", "3SM", "PERF", "ACT", "variantb")]
    report, _ = evaluate(reference, generated)
    assert report.correct == 1 and report.incorrect == 0


def test_report_arithmetic_always_balances():
    report = EvalReport(correct=7, incorrect=1, no_data=2, excluded=3)
    assert report.total == 10
    assert report.precision == 7 / 8


def test_large_scale_precision_arithmetic():
    # a large-scale shape: 745,436 correct and 3,615 incorrect over
    # 749,051 evaluable forms gives 99.52% precision
    report = EvalReport(correct=745436, incorrect=3615, no_data=935217 - 651)
    assert report.correct + report.incorrect == 749051
    assert round(report.precision * 100, 2) == 99.52


def test_evaluate_files_report_and_diff(tmp_path, sample_forms):
    rows = forms_to_normalized(sample_forms)
    ref = tmp_path / "ref.tsv"
    gen = tmp_path / "gen.tsv"
    for path in (ref, gen):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# lemma\ttag\tparadigm\tvoice\tsurface\n")
            for row in rows:
                fh.write("\t".join(row) + "\n")
    report_path = tmp_path / "report.tsv"
    report, diff = evaluate_files(ref.as_posix(), gen.as_posix(), None, report_path.as_posix())
    assert report.precision == 1.0
    assert "precision\t100.0000" in report_path.read_text(encoding="utf-8")
    assert (tmp_path / "report.tsv.diff").exists()


def test_load_normalized_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(BadLexicon):
        load_normalized(path.as_posix())


def test_load_normalized_skips_a_byte_order_mark(tmp_path, sample_forms):
    rows = forms_to_normalized(sample_forms)[:3]
    path = tmp_path / "bom.tsv"
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_normalized(path.as_posix()) == rows


def test_evaluate_files_reads_exclusions(tmp_path, sample_forms):
    rows = forms_to_normalized(sample_forms)[:50]
    ref = tmp_path / "ref.tsv"
    ref.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    exclude = tmp_path / "exclude.tsv"
    exclude.write_text("# lemma tag paradigm voice [note]\n" + "\t".join(rows[0][:4]) + "\tnote\n",
                       encoding="utf-8")
    report, _diff = evaluate_files(ref.as_posix(), ref.as_posix(), exclude.as_posix())
    assert report.excluded == 1
    assert report.correct == len(set(rows)) - 1
    exclude.write_text("\t".join(rows[0][:3]) + "\n", encoding="utf-8")
    with pytest.raises(BadLexicon, match="exclude.tsv line 1: expected at least 4 columns, got 3"):
        evaluate_files(ref.as_posix(), ref.as_posix(), exclude.as_posix())
