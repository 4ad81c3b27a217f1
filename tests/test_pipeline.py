import inspect
import itertools
import os
import pickle
import random
import re
import stat
import subprocess
import sys
import threading
from collections import Counter

import pytest
import reference_generation as reference

import arabverb
from arabverb import errors, pipeline, rules
from arabverb.alphabet import CONSONANTS
from arabverb.errors import ArabverbError
from arabverb.inflect import CELLS, IMPF_PREFIX, IMPV_SUFFIX, MOOD_SUFFIX, PERF_SUFFIX, Cell, inflect
from arabverb.lexicon import CODEBOOK, QUADRILITERAL, LexiconEntry, parse_code, resolve_class
from arabverb.stems import VIII_ASSIMILATION, build_stems
from arabverb.translit import to_script
from test_rules import CUSTOM_RULES


def test_exact_count_law(sample_forms, sample_entries):
    assert len(sample_forms) == 109 * len(sample_entries)


# generate_all returns a Forms: one Paradigm per entry, iterated as
# InflectedForm views in input order, then CELLS order; it is not indexed.
# That iteration equals the reference, entry by entry, is checked with the
# paradigm cache below.

def test_forms_iterate_in_input_then_cells_order(sample_forms, sample_entries):
    listed = list(sample_forms)
    assert len(sample_forms) == len(listed) == 109 * len(sample_entries)
    assert [(f.lemma, f.root, f.code, f.cell) for f in listed] == [
        (e.lemma, e.root, e.code, cell) for e in sample_entries for cell in CELLS]
    assert [f.surface for f in listed] == [s for p in sample_forms.paradigms for s in p.surfaces]
    with pytest.raises(TypeError):
        sample_forms[0]


def test_forms_equal_when_their_paradigms_are(sample_forms):
    paradigms = sample_forms.paradigms
    assert pipeline.Forms(list(paradigms)) == sample_forms
    assert pipeline.Forms(paradigms[:-1]) != sample_forms
    changed = paradigms[-1]._replace(surfaces=("x",) + paradigms[-1].surfaces[1:])
    assert pipeline.Forms(paradigms[:-1] + [changed]) != sample_forms
    assert sample_forms != list(sample_forms)  # a Forms equals only a Forms
    with pytest.raises(TypeError):
        hash(sample_forms)


# generate_all is the one expansion path; the per-entry one is the tests' reference.
def test_public_names_resolve():
    assert all(hasattr(arabverb, name) for name in arabverb.__all__)
    assert not hasattr(arabverb, "generate_entry") and not hasattr(pipeline, "generate_entry")


def test_large_lexicon_arithmetic():
    assert 15452 * pipeline.FORMS_PER_LEMMA == 1684268


def test_histogram_one_per_pattern(sample_entries):
    _forms, stats = pipeline.generate_all(sample_entries)
    assert stats.lemma_count == 24
    assert stats.form_count == 2616
    assert len(stats.pattern_histogram) == 24
    assert set(stats.pattern_histogram.values()) == {1}
    assert stats.forms_per_lemma == 109.0


def test_rule_hits_collected(sample_entries):
    _forms, stats = pipeline.generate_all(sample_entries)
    assert stats.rule_hits  # the cascade fired somewhere
    assert all(n > 0 for n in stats.rule_hits.values())


def test_failure_isolation():
    good = LexiconEntry(lemma="", root="ktb", code=parse_code("00L0003"))
    bad = LexiconEntry(lemma="", root="ktb", code=parse_code("00H0000"))  # QI on 3 radicals
    forms, stats = pipeline.generate_all([good, bad, good])
    assert len(forms) == 218
    assert len(stats.failures) == 1
    assert stats.failures[0].stage == "OpOutOfRange"


def test_unparsable_code_fails_only_its_entry():
    # LexiconEntry does not check its code; resolve_class runs it through
    # parse_code, so a 6-character legacy code generates padded.
    good = LexiconEntry(lemma="", root="ktb", code=parse_code("00L0000"))
    entries = [good] + [LexiconEntry(lemma="", root="ktb", code=c) for c in ("00L", "00L000", "00L0009")]
    forms, stats = pipeline.generate_all(entries)
    assert [(f.stage, f.code) for f in stats.failures] == [("BadCode", "00L"), ("BadCode", "00L0009")]
    assert [p.code for p in forms.paradigms] == ["00L0000", "00L000"]
    assert forms.paradigms[1].surfaces == forms.paradigms[0].surfaces


# generate_all joins forms with line breaks, so a line break in a root
# would shift every later form; both paths fail such a root in build_stems.
def test_root_outside_the_alphabet_fails_only_its_entry():
    good = LexiconEntry(lemma="", root="ktb", code=parse_code("00L0003"))
    bad = LexiconEntry(lemma="", root="k\nb", code=parse_code("00L0003"))
    other = LexiconEntry(lemma="", root="drs", code=parse_code("00L0003"))
    forms, stats = pipeline.generate_all([good, bad, other])
    want, _hits, failures, _histogram = reference.generate([good, bad, other])
    assert list(forms) == want and [str(f) for f in stats.failures] == failures
    assert stats.failures[0].stage == "MalformedInternal" and "'\\n' not in alphabet" in failures[0]


# One instance of every ArabverbError subclass whose __init__ is not the
# message-only one inherited from Exception.
CUSTOM_INIT_ERRORS = [
    errors.UnknownCharacter("\u2663", 2),
    errors.StringTooLong(9, 7),
    errors.EntryFailed("kataba", "OpOutOfRange", errors.OpOutOfRange("pattern QI needs a 4-radical root"),
                       "ktb", "00H0000"),
    errors.NoEntries("no valid entries in lex.tsv", [(1, "digit 2 of '09L0003' out of range")]),
]


def test_custom_init_errors_listed():
    custom = {cls for _name, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, ArabverbError) and "__init__" in vars(cls)}
    assert custom == {type(e) for e in CUSTOM_INIT_ERRORS}


@pytest.mark.parametrize("exc", CUSTOM_INIT_ERRORS, ids=lambda e: type(e).__name__)
def test_errors_survive_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back).keys() == vars(exc).keys()
    for name, value in vars(exc).items():
        if isinstance(value, BaseException):
            assert (type(vars(back)[name]), str(vars(back)[name])) == (type(value), str(value))
        else:
            assert vars(back)[name] == value


def test_parallel_failure_isolation():
    good = LexiconEntry(lemma="", root="ktb", code=parse_code("00L0003"))
    bad = LexiconEntry(lemma="", root="ktb", code=parse_code("00H0000"))
    serial = pipeline.generate_all([good, bad, good])
    forms, stats = pipeline.generate_all([good, bad, good], workers=2)
    assert len(forms) == 218
    assert forms == serial[0]
    assert [(f.entry, f.stage, str(f)) for f in stats.failures] == \
        [(f.entry, f.stage, str(f)) for f in serial[1].failures]
    assert stats.failures[0].stage == "OpOutOfRange"


# RuleSet defines __len__, so the empty one is falsy and must still be used.
@pytest.mark.parametrize("keep", [lambda rule: rule.id != "o05", lambda rule: False],
                         ids=["without-o05", "empty"])
def test_parallel_uses_callers_ruleset(sample_entries, sample_forms, keep):
    ruleset = rules.RuleSet([r for r in rules.default_rules().rules if keep(r)])
    serial, serial_stats = pipeline.generate_all(sample_entries, ruleset=ruleset)
    parallel, parallel_stats = pipeline.generate_all(sample_entries, ruleset=ruleset, workers=2)
    assert serial != sample_forms
    assert parallel == serial
    assert parallel_stats.rule_hits == serial_stats.rule_hits
    assert [str(f) for f in parallel_stats.failures] == [str(f) for f in serial_stats.failures]


CELL_ORDER = {cell: i for i, cell in enumerate(CELLS)}


def _row_order(form):
    """The order of the rows of an inflected lexicon TSV."""
    return form.lemma, form.code, CELL_ORDER[form.cell]


def _write_per_form(forms, path):
    """The TSV of ``forms`` written one form at a time, after a stable sort
    of the forms: the reference for write_lexicon on records whose (lemma,
    code) keys are unique."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pipeline.HEADER + "\n")
        for f in sorted(forms, key=_row_order):
            fh.write("\t".join([f.surface_arabic, f.surface, f.lemma, f.root, f.code,
                                f.cell.tag, f.cell.paradigm, f.cell.voice]) + "\n")


def _write_per_record(forms, path):
    """The TSV of ``forms`` written one record at a time, after a stable sort
    of the records by (lemma, code), each record's rows in CELLS order: the
    reference for write_lexicon on any records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pipeline.HEADER + "\n")
        for p in sorted(forms.paradigms, key=lambda p: (p.lemma, p.code)):
            for surface, cell in zip(p.surfaces, CELLS):
                fh.write("\t".join([to_script(surface), surface, p.lemma, p.root, p.code,
                                    cell.tag, cell.paradigm, cell.voice]) + "\n")


def test_write_read_round_trip(tmp_path, sample_forms):
    path = tmp_path / "inflected.tsv"
    pipeline.write_lexicon(sample_forms, path.as_posix())
    back = pipeline.read_lexicon(path.as_posix())
    assert list(back) == sorted(sample_forms, key=_row_order)


def _duplicate_entries():
    """One entry repeated, two roots under one lemma and code, and two
    roots under the empty lemma: paradigms that share (lemma, code)."""
    code = parse_code("00L0003")
    return [LexiconEntry("kataba", "ktb", code), LexiconEntry("", "drs", code),
            LexiconEntry("kataba", "ktb", code), LexiconEntry("kataba", "qtl", code),
            LexiconEntry("", "Hrk", code), LexiconEntry("", "drs", parse_code("00L0002")),
            LexiconEntry("kataba", "ktb", code)]


# A lexicon as load_lexicon gives it holds each (lemma, code) once, and its
# TSV is the one a stable sort of the forms gives.  Records that repeat a
# (lemma, code) are written as whole blocks, in input order among them.
@pytest.mark.parametrize("case", ["sample", "gold", "mixed-class",
                                  "sample+gold", "gold reversed+sample", "duplicates"])
def test_write_equals_a_stable_per_form_sort(tmp_path, sample_forms, gold_forms, mixed_class_lexicon, case):
    if case == "sample+gold":
        forms = pipeline.Forms(sample_forms.paradigms + gold_forms.paradigms)
    elif case == "gold reversed+sample":
        forms = pipeline.Forms(gold_forms.paradigms[::-1] + sample_forms.paradigms)
    elif case == "duplicates":
        forms, stats = pipeline.generate_all(_duplicate_entries())
        assert not stats.failures and len(forms.paradigms) == 7
    else:
        forms = {"sample": sample_forms, "gold": gold_forms, "mixed-class": mixed_class_lexicon[1]}[case]
    unique = case in ("sample", "gold", "mixed-class")
    keys = Counter((p.lemma, p.code) for p in forms.paradigms)
    assert (max(keys.values()) == 1) == unique
    path, reference = tmp_path / "records.tsv", tmp_path / "reference.tsv"
    pipeline.write_lexicon(forms, path.as_posix())
    (_write_per_form if unique else _write_per_record)(forms, reference.as_posix())
    assert path.read_bytes() == reference.read_bytes()


def test_write_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    pipeline.write_lexicon(pipeline.Forms([]), path.as_posix())
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#") and text.count("\n") == 1
    assert len(pipeline.read_lexicon(path.as_posix())) == 0


def test_read_rejects_corrupted_cell(tmp_path, sample_forms):
    path = tmp_path / "bad.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:1]), path.as_posix())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace("PERF", "PREF")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArabverbError) as err:
        pipeline.read_lexicon(path.as_posix())
    assert "line 4" in str(err.value)


def test_read_rejects_illegal_cell(tmp_path, sample_forms):
    # Each field is legal, the combination is not: no third-person imperative.
    path = tmp_path / "bad.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:1]), path.as_posix())
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[2].split("\t")
    fields[5:8] = ["3SM", "IMPV", "ACT"]
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArabverbError, match="line 3: imperative"):
        pipeline.read_lexicon(path.as_posix())


def test_read_rejects_short_row(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only\tthree\tcolumns\n", encoding="utf-8")
    with pytest.raises(ArabverbError):
        pipeline.read_lexicon(path.as_posix())


# A file that is not UTF-8 fails as a malformed row does, naming the file
# and the byte: a UTF-16 byte order mark, or a bad byte in a row.
@pytest.mark.parametrize("where", ["start", "row"])
def test_read_names_a_file_that_is_not_utf8(tmp_path, sample_forms, where):
    path = tmp_path / "inflected.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:1]), path.as_posix())
    data = path.read_bytes()
    path.write_bytes(b"\xff\xfe" + data if where == "start" else data.replace(b"\t", b"\t\xff", 30))
    with pytest.raises(ArabverbError, match="^%s is not UTF-8: byte 0xff " % re.escape(path.as_posix())):
        pipeline.read_lexicon(path.as_posix())


def test_read_skips_comments_and_blanks_across_line_ends(tmp_path, sample_forms):
    path = tmp_path / "inflected.tsv"
    forms = pipeline.Forms(sample_forms.paradigms[1:3])
    pipeline.write_lexicon(forms, path.as_posix())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2:2] = ["", "# a comment", ""]
    lines[113:113] = ["# between the entries"]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))  # CRLF, no final newline
    back = pipeline.read_lexicon(path.as_posix())
    assert list(back) == sorted(forms, key=_row_order)


def test_read_names_the_line_of_a_short_row(tmp_path, sample_forms):
    path = tmp_path / "bad.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:1]), path.as_posix())
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2:2] = ["# a comment", ""]
    lines[5] = lines[5].rsplit("\t", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArabverbError, match="^line 6: expected 8 columns, got 7$"):
        pipeline.read_lexicon(path.as_posix())


# read_lexicon splits a row once and compares its rest with that of the
# open paradigm's next row; any line that differs takes the full split
# and check.  Each case gives the same forms or message as a
# reader that splits every line in full.

def _edit_rows(lines, case):
    """The TSV ``lines`` (header first, one paradigm of 109 rows after it)
    edited for ``case``, and the bytes to write."""
    if case == "no final newline":
        return "\n".join(lines).encode("utf-8")
    if case == "CRLF":
        return ("\r\n".join(lines) + "\r\n").encode("utf-8")
    if case == "comment row with a legal cell":
        assert lines[50].split("\t")[5:] == [CELLS[49].tag, CELLS[49].paradigm, CELLS[49].voice]
        lines[50:50] = ["#" + lines[50]]
    elif case == "blank lines":
        lines[50:50] = ["", ""]
        lines.append("")
    elif case == "7 columns":
        lines[60] = lines[60].rsplit("\t", 1)[0]
    elif case == "9 columns at the end":
        lines[60] += "\tACT"
    elif case == "9 columns at the start":
        lines[60] = "x\t" + lines[60]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("case, error", [
    ("no final newline", None),
    ("CRLF", None),
    ("comment row with a legal cell", None),
    ("blank lines", None),
    ("7 columns", "line 61: expected 8 columns, got 7"),
    ("9 columns at the end", "line 61: expected 8 columns, got 9"),
    ("9 columns at the start", "line 61: expected 8 columns, got 9"),
])
def test_read_lines_that_are_not_whole_rows(tmp_path, sample_forms, case, error):
    forms = pipeline.Forms(sample_forms.paradigms[:1])
    path = tmp_path / "inflected.tsv"
    pipeline.write_lexicon(forms, path.as_posix())
    path.write_bytes(_edit_rows(path.read_text(encoding="utf-8").splitlines(), case))
    if error is None:
        assert pipeline.read_lexicon(path.as_posix()) == forms
    else:
        with pytest.raises(ArabverbError) as err:
            pipeline.read_lexicon(path.as_posix())
        assert str(err.value) == error


# read_lexicon reads back each record that write_lexicon wrote, also
# records that share (lemma, code).

def test_read_returns_the_written_paradigms(tmp_path):
    forms, stats = pipeline.generate_all(_duplicate_entries())
    assert not stats.failures
    path = tmp_path / "duplicates.tsv"
    pipeline.write_lexicon(forms, path.as_posix())
    back = pipeline.read_lexicon(path.as_posix())
    assert isinstance(back, pipeline.Forms)
    assert back == pipeline.Forms(sorted(forms.paradigms, key=lambda p: (p.lemma, p.code)))


# Two records of one (lemma, code) interleaved cell by cell, the layout of
# files written before each record was one block, are not blocks: the row
# of a record's second cell is due to no open paradigm, so the file never
# reads back as other paradigms.  Two roots, or one entry written twice.
@pytest.mark.parametrize("roots", [("ktb", "qtl"), ("ktb", "ktb")], ids=["two roots", "one entry twice"])
def test_read_rejects_interleaved_records(tmp_path, roots):
    code = parse_code("00L0003")
    forms, stats = pipeline.generate_all([LexiconEntry("kataba", root, code) for root in roots])
    assert not stats.failures
    rows = [["\t".join([to_script(s), s, p.lemma, p.root, p.code, c.tag, c.paradigm, c.voice]) + "\n"
             for s, c in zip(p.surfaces, CELLS)] for p in forms.paradigms]
    path = tmp_path / "interleaved.tsv"
    path.write_text(pipeline.HEADER + "\n" + "".join(itertools.chain.from_iterable(zip(*rows))), encoding="utf-8")
    line = 5 if roots[0] == roots[1] else 4
    with pytest.raises(ArabverbError) as err:
        pipeline.read_lexicon(path.as_posix())
    assert str(err.value) == "line %d: no open paradigm of kataba %s 00L0003 is due cell %s" % (
        line, roots[0], CELLS[1])


def _concatenated_outputs(tmp_path):
    """A file of two outputs, one after the other, and the records it holds.
    The second output is the last record of the first: a second block of
    its lemma, root and code, right after the first one."""
    forms, _stats = pipeline.generate_all(_duplicate_entries())
    ordered = sorted(forms.paradigms, key=lambda p: (p.lemma, p.code))
    one, two, path = tmp_path / "one.tsv", tmp_path / "two.tsv", tmp_path / "both.tsv"
    pipeline.write_lexicon(forms, one.as_posix())
    pipeline.write_lexicon(pipeline.Forms(ordered[-1:]), two.as_posix())
    path.write_bytes(one.read_bytes() + two.read_bytes())
    return path, ordered + ordered[-1:]


def test_read_concatenated_outputs(tmp_path):
    path, records = _concatenated_outputs(tmp_path)
    assert pipeline.read_lexicon(path.as_posix()) == pipeline.Forms(records)


def test_read_names_the_line_of_a_dropped_row(tmp_path, sample_forms):
    path = tmp_path / "bad.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:1]), path.as_posix())
    lines = path.read_text(encoding="utf-8").splitlines()
    del lines[50]  # cell 49; the row of cell 50 moves up to line 51
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArabverbError, match="^line 51: no open paradigm of .* is due cell %s$" % CELLS[50]):
        pipeline.read_lexicon(path.as_posix())


# The code column is checked on a paradigm's first row, and on any row
# whose lemma or code is not its paradigm's: the code must parse, and the
# codebook must hold its class.
@pytest.mark.parametrize("rows", ["every row", "one row"])
def test_read_names_the_line_of_a_bad_code(tmp_path, sample_forms, rows):
    path = tmp_path / "bad.tsv"
    paradigm = sample_forms.paradigms[0]
    pipeline.write_lexicon(pipeline.Forms([paradigm]), path.as_posix())
    written = path.read_text(encoding="utf-8").splitlines()
    where = range(1, len(written)) if rows == "every row" else [50]
    for bad, message in [("00L0009", "vowel digit of '00L0009' out of range"),
                         ("00L1003", "no codebook row for digits 00_1 with template L")]:
        lines = list(written)
        tab_code, tab_bad = "\t%s\t" % paradigm.code, "\t%s\t" % bad
        for i in where:
            assert tab_code in lines[i]
            lines[i] = lines[i].replace(tab_code, tab_bad)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArabverbError) as err:
            pipeline.read_lexicon(path.as_posix())
        assert str(err.value) == "line %d: %s" % (where[0] + 1, message)


@pytest.mark.parametrize("where", ["before the next entry", "at the end"])
def test_read_names_the_last_line_of_a_truncated_entry(tmp_path, sample_forms, where):
    path = tmp_path / "bad.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:2]), path.as_posix())
    lines = path.read_text(encoding="utf-8").splitlines()
    if where == "at the end":
        lines, last = lines[:-30], len(lines) - 30
    else:
        del lines[100:110]  # the last 10 cells of the first entry
        last = 100
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArabverbError, match="^line %d: paradigm of .* ends after" % last):
        pipeline.read_lexicon(path.as_posix())


def test_import_leaves_out_multiprocessing_and_typing():
    # Every CLI call is a fresh process.  Only a pool needs multiprocessing,
    # and dataclasses would load inspect, ast and dis.  -S: without site,
    # whose own imports would hide what arabverb imports.
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    code = ("import sys; sys.path.insert(0, %r); import arabverb.cli; "
            "print(sorted({'multiprocessing', 'typing', 'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
            % src)
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_deterministic_output(tmp_path, sample_entries):
    paths = []
    for name in ("a.tsv", "b.tsv"):
        forms, _stats = pipeline.generate_all(sample_entries)
        path = tmp_path / name
        pipeline.write_lexicon(forms, path.as_posix())
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_parallel_equals_serial(tmp_path, sample_entries):
    serial, _ = pipeline.generate_all(sample_entries, workers=1)
    parallel, _ = pipeline.generate_all(sample_entries, workers=2)
    assert serial == parallel


def test_regenerate_lemma_matches_lexicon(sample_entries, gold_entries):
    entries = list(sample_entries) + list(gold_entries)
    _forms, stats = pipeline.generate_all(entries, strict=True)
    assert stats.lemma_count == len(entries)
    assert not stats.failures


# fçl and Hrk have the same stand-in root, so the cache expands fçl and
# renames its forms for Hrk; the strict check still reads each entry's own.
@pytest.mark.parametrize("workers", [1, 2])
def test_strict_fails_only_the_entry_with_the_wrong_lemma(ruleset, workers):
    code = parse_code("00L0003")
    wrong = LexiconEntry(lemma="kataba", root="fçl", code=code)
    right = LexiconEntry(lemma="Haraka", root="Hrk", code=code)
    free = pipeline.stand_ins(ruleset)
    assert pipeline.stand_in_root(wrong.root, free) == pipeline.stand_in_root(right.root, free)
    loose, _stats = pipeline.generate_all([wrong, right], workers=workers)
    forms, stats = pipeline.generate_all([wrong, right], workers=workers, strict=True)
    assert [(f.entry, f.stage, str(f.cause)) for f in stats.failures] == [
        ("kataba", "BadLexicon", "lemma kataba does not regenerate (got façala)")]
    assert forms == pipeline.Forms(loose.paradigms[1:])
    assert forms.paradigms[0].surfaces[0] == "Haraka"


def test_surface_arabic_matches_surface(sample_forms):
    from arabverb.translit import to_script

    for f in list(sample_forms)[:200]:
        assert f.surface_arabic == to_script(f.surface)


def test_paradigm_keeps_its_surfaces_only():
    assert pipeline.Paradigm._fields == ("lemma", "root", "code", "surfaces")


# The script of a form is derived from its surface wherever it is viewed:
# iterating a Forms, generated or after a TSV round trip.
@pytest.mark.parametrize("source", ["generated", "read back"])
def test_surface_arabic_matches_surface_on_every_path(tmp_path, sample_forms, gold_forms, source):
    forms = pipeline.Forms(sample_forms.paradigms + gold_forms.paradigms)
    if source == "read back":
        path = tmp_path / "inflected.tsv"
        pipeline.write_lexicon(forms, path.as_posix())
        forms = pipeline.read_lexicon(path.as_posix())
    viewed = list(forms)
    assert len(viewed) == len(forms) > 0
    for f in viewed:
        assert f.surface_arabic == to_script(f.surface)


def _edit_column(path, column, row, edit):
    """Rewrite ``column`` of line ``row`` of the TSV at ``path`` with ``edit``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[row].split("\t")
    fields[column] = edit(fields[column])
    lines[row] = "\t".join(fields)
    path.write_text("".join(lines), encoding="utf-8")


def test_a_wrong_script_column_is_not_read_back(tmp_path, sample_forms):
    forms = pipeline.Forms(sample_forms.paradigms[:2])
    path, edited, again = tmp_path / "a.tsv", tmp_path / "edited.tsv", tmp_path / "again.tsv"
    pipeline.write_lexicon(forms, path.as_posix())
    edited.write_bytes(path.read_bytes())
    _edit_column(edited, 0, 5, lambda script: to_script("kataba"))
    back = pipeline.read_lexicon(edited.as_posix())
    assert back == pipeline.read_lexicon(path.as_posix())
    pipeline.write_lexicon(back, again.as_posix())
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("symbol", ["é", "\u0628"])
def test_a_read_back_surface_outside_the_alphabet_is_malformed(tmp_path, sample_forms, symbol):
    path = tmp_path / "bad.tsv"
    pipeline.write_lexicon(pipeline.Forms(sample_forms.paradigms[:1]), path.as_posix())
    _edit_column(path, 1, 5, lambda surface: surface + symbol)
    forms = pipeline.read_lexicon(path.as_posix())
    message = "^symbol %s not in alphabet$" % re.escape(repr(symbol))
    with pytest.raises(errors.MalformedInternal, match=message):
        pipeline.write_lexicon(forms, (tmp_path / "out.tsv").as_posix())
    with pytest.raises(errors.MalformedInternal, match=message):
        list(forms)


def _with_a_bad_sixth_record(forms):
    """``forms`` with a symbol outside the alphabet appended to one surface
    of the sixth record: the groups sorted before it are written first."""
    records = list(forms.paradigms)
    bad = records[5]
    records[5] = bad._replace(surfaces=(bad.surfaces[0] + "é",) + bad.surfaces[1:])
    return pipeline.Forms(records)


def test_a_failed_write_leaves_no_file(tmp_path, sample_forms):
    path = tmp_path / "out.tsv"
    with pytest.raises(errors.MalformedInternal, match="^symbol 'é' not in alphabet$"):
        pipeline.write_lexicon(_with_a_bad_sixth_record(sample_forms), path.as_posix())
    assert not path.exists()
    # an earlier file at the path is gone too, not left half overwritten
    path.write_text("earlier\n", encoding="utf-8")
    with pytest.raises(errors.MalformedInternal):
        pipeline.write_lexicon(_with_a_bad_sixth_record(sample_forms), path.as_posix())
    assert not path.exists()


def test_a_failed_write_through_a_symlink_keeps_link_and_target(tmp_path, sample_forms):
    # as with --out /dev/stdout redirected to a file: the name is a link
    target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
    target.write_text("earlier\n", encoding="utf-8")
    link.symlink_to(target)
    with pytest.raises(errors.MalformedInternal, match="^symbol 'é' not in alphabet$"):
        pipeline.write_lexicon(_with_a_bad_sixth_record(sample_forms), link.as_posix())
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8").startswith(pipeline.HEADER + "\n")


def test_a_failed_write_keeps_a_file_that_replaced_the_output(tmp_path, sample_forms, monkeypatch):
    path, newer = tmp_path / "out.tsv", tmp_path / "newer.tsv"
    newer.write_text("newer\n", encoding="utf-8")
    to_scripts = pipeline.to_scripts

    def replace_then_convert(surfaces):
        if newer.exists():
            os.replace(newer, path)  # another writer renames its file over the path
        return to_scripts(surfaces)

    monkeypatch.setattr(pipeline, "to_scripts", replace_then_convert)
    with pytest.raises(errors.MalformedInternal):
        pipeline.write_lexicon(_with_a_bad_sixth_record(sample_forms), path.as_posix())
    assert path.read_text(encoding="utf-8") == "newer\n"


def test_a_failed_write_to_a_pipe_keeps_the_pipe(tmp_path, sample_forms):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    with pytest.raises(errors.MalformedInternal):
        pipeline.write_lexicon(_with_a_bad_sixth_record(sample_forms), fifo.as_posix())
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received[0].startswith((pipeline.HEADER + "\n").encode("utf-8"))


def test_no_forbidden_onsets(sample_forms, gold_forms):
    # cluster repair totality: no surface begins with two vowelless consonants
    from arabverb.alphabet import CONSONANTS

    for f in list(sample_forms) + list(gold_forms):
        s = f.surface
        assert not (s[0] in CONSONANTS and len(s) > 1 and s[1] in CONSONANTS), s
        assert "··" not in s


def test_stats_report_rows(tmp_path, sample_entries):
    _forms, stats = pipeline.generate_all(sample_entries)
    path = tmp_path / "stats.tsv"
    pipeline.write_stats(stats, path.as_posix())
    text = path.read_text(encoding="utf-8")
    assert "lemmas\t24" in text
    assert "forms\t2616" in text


def test_pattern_labels_cover_both_templates(sample_entries):
    labels = {resolve_class(e.code).label for e in sample_entries}
    assert len(labels) == 24


def _form_cases(forms, entries):
    """The eighth form of ``forms``, a copy of it, and the other forms."""
    listed = list(forms)
    return listed[7], [pipeline.InflectedForm(*listed[7])], listed[:7] + listed[8:]


def _rule_cases(forms, entries):
    """A rule of a RuleSet that is not the default one; the same rule made
    anew, with a regex that is equal but not the same object; and the
    other rule, and one that differs only in its comment."""
    made = [("p1", "phono", "K", "1", "", "#", "final consonant"), ("o1", "ortho", "w", "y", "u", "")]
    ruleset = rules.RuleSet([rules.make_rule(*args) for args in made])
    rule = pickle.loads(pickle.dumps(ruleset)).rules[0]
    re.purge()
    again = rules.make_rule(*made[0])
    assert again.rx is not rule.rx
    return rule, [again], [ruleset.rules[1], rules.make_rule(*made[0][:6], "other")]


# Each immutable record: one record, the values that must equal it, the
# ones that must not, and a field that no assignment may change.  Cell is
# not a tuple, so that "%s" % cell formats the cell, and no tuple equals it.
RECORDS = {
    "InflectedForm": _form_cases,
    "Cell": lambda forms, entries: (CELLS[0], [Cell("3SM", "PERF", "ACT")],
                                    [*CELLS[1:], ("3SM", "PERF", "ACT")]),
    "LexiconEntry": lambda forms, entries: (entries[0], [LexiconEntry(*entries[0])], entries[1:]),
    "StemSet": lambda forms, entries: (build_stems(entries[0]), [build_stems(entries[0])],
                                       [build_stems(e) for e in entries[1:8]]),  # two later ones coincide
    "DerivClass": lambda forms, entries: (resolve_class(entries[0].code), [resolve_class(entries[0].code)],
                                          [resolve_class(e.code) for e in entries[1:]]),
    "RewriteRule": _rule_cases,
}
FIELDS = {"InflectedForm": "surface", "Cell": "tag", "LexiconEntry": "gloss", "StemSet": "p_act",
          "DerivClass": "label", "RewriteRule": "rx"}


# A record that a pool worker cannot unpickle loses its task in Pool.map,
# and generate_all(workers=2) then hangs; a round trip here fails at once.
@pytest.mark.parametrize("kind", RECORDS)
def test_inflected_form_pickles_compares_and_hashes(sample_forms, sample_entries, kind):
    record, equal, unequal = RECORDS[kind](sample_forms, sample_entries)
    back = pickle.loads(pickle.dumps(record))
    assert back == record and back is not record and type(back) is type(record)
    for value in [back, *equal]:
        assert value == record and hash(value) == hash(record)
    assert all(value != record for value in unequal)
    assert len({record, *unequal}) == 1 + len(unequal)
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[kind], "x")
    if kind == "Cell":
        assert "%s" % record == "3SM PERF ACT"
        with pytest.raises(AttributeError):
            del record.tag


# Paradigm cache: generate_all builds one paradigm per (code, stand-in
# root) in canonical letters and renames it for each of its entries; the
# reference (tests/reference_generation.py) expands every entry itself,
# cell by cell.

DEFAULT_SPECIAL = "mnstwyÁÂÉÍÚ"


def test_special_consonants_cover_every_named_consonant(ruleset):
    special = pipeline.special_consonants(ruleset)
    named = set()
    for rule in ruleset.rules:
        named |= set(rule.pattern + rule.replacement + rule.left_ctx + rule.right_ctx) & CONSONANTS
    for table in (PERF_SUFFIX, IMPF_PREFIX, IMPV_SUFFIX, *MOOD_SUFFIX.values()):
        named |= set("".join(table.values())) & CONSONANTS
    for ops in CODEBOOK.values():
        named |= {ch for op in ops if op[0] in ("prefix", "infix", "lengthen", "append")
                  for ch in op[1] if ch in CONSONANTS}
    named |= set("".join(VIII_ASSIMILATION) + "".join(VIII_ASSIMILATION.values()))
    assert named <= special
    assert special == set(DEFAULT_SPECIAL)
    free = pipeline.stand_ins(ruleset)
    assert len(free) == 21 and not set(free) & special
    assert set(free) | special == CONSONANTS


def test_special_consonants_follow_the_rule_set(ruleset):
    custom = rules.RuleSet((rules.make_rule("b01", "phono", "b", "f", left="#"),) + ruleset.rules)
    assert {"b", "f"} <= pipeline.special_consonants(custom)
    assert not {"b", "f"} & set(pipeline.stand_ins(custom))


def test_stand_in_root_keeps_identity(ruleset):
    free = pipeline.stand_ins(ruleset)
    assert pipeline.stand_in_root("ktb", free) == free[0] + "t" + free[1]
    assert pipeline.stand_in_root("mdd", free) == "m" + free[0] * 2
    assert pipeline.stand_in_root("qrr", free) == free[0] + free[1] + free[1]
    assert pipeline.stand_in_root("zzz", free) == free[0] * 3
    assert pipeline.stand_in_root("zlzl", free) == (free[0] + free[1]) * 2


def _drawn_entries(codes, openers, letters, seed):
    """Seeded roots over ``letters`` for every code: five opened by the
    next five of ``openers`` in turn, a few drawn ones, a geminate (or
    reduplicated quadriliteral), an all-equal one, three of the wrong
    length, which fail, two of them sharing one key, and three that share
    one key under the default rules, two of them swapping radicals."""
    rng = random.Random(seed)

    def draw(n):
        return "".join(rng.choice(letters) for _ in range(n))

    entries = []
    turn = itertools.cycle(openers)
    for code in codes:
        size = 4 if resolve_class(code).label in QUADRILITERAL else 3
        a, b = rng.sample(letters, 2)
        roots = [next(turn) + draw(size - 1) for _ in range(5)] + [draw(size) for _ in range(2)]
        roots += [a + b + b if size == 3 else a + b + a + b, a * size,
                  draw(7 - size), "klqz"[:7 - size], "zqlk"[:7 - size],
                  "klqz"[:size], "zqlk"[:size], "HDSX"[:size]]
        entries += [LexiconEntry("", root, code) for root in roots]
    return entries


def _count_cascaded(monkeypatch):
    """The forms that the cascade runs on from now on: those passed to
    RuleSet.apply one at a time and to RuleSet.apply_many in batches."""
    cascaded = []
    apply, apply_many = rules.RuleSet.apply, rules.RuleSet.apply_many

    def counted(self, form, hits=None):
        cascaded.append(form)
        return apply(self, form, hits)

    def counted_many(self, forms):
        cascaded.extend(forms)
        return apply_many(self, forms)

    monkeypatch.setattr(rules.RuleSet, "apply", counted)
    monkeypatch.setattr(rules.RuleSet, "apply_many", counted_many)
    return cascaded


def _distinct_forms_per_key(entries, ruleset):
    """The distinct underlying forms of the first entry of each (code,
    stand-in root), summed: the cascades generate_all ran before its memo."""
    free = pipeline.stand_ins(ruleset if ruleset is not None else rules.default_rules())
    firsts = {}
    for entry in entries:
        firsts.setdefault((str(entry.code), pipeline.stand_in_root(entry.root, free)), entry)
    total = 0
    for entry in firsts.values():
        try:
            stems = build_stems(entry)
            total += len({inflect(stems, cell) for cell in CELLS})
        except ArabverbError:
            pass
    return total


def _assert_cached_equals_direct(monkeypatch, entries, ruleset=None):
    """generate_all equals the reference, and its cascade memo
    runs no more cascades than the keys have distinct forms.  Returns the
    forms, the stats and (cascades run, distinct forms of the keys)."""
    with monkeypatch.context() as patch:
        applied = _count_cascaded(patch)
        forms, stats = pipeline.generate_all(entries, ruleset)
    direct_forms, hits, failures, histogram = reference.generate(entries, ruleset)
    assert list(forms) == direct_forms
    assert stats.rule_hits == hits
    assert [str(f) for f in stats.failures] == failures
    assert stats.pattern_histogram == histogram
    cascades = len(applied), _distinct_forms_per_key(entries, ruleset)
    assert cascades[0] <= cascades[1]
    return forms, stats, cascades


@pytest.fixture(scope="module")
def drawn_entries(ruleset, sample_entries):
    # Fixed letters, not derived from the code under test, so that a
    # consonant wrongly left out of the special set shows as a mismatch:
    # the special consonants and d T ð þ, which VIII puts before its t infix.
    codes = sorted({e.code for e in sample_entries}, key=str)
    return _drawn_entries(codes, "TdmnstwyðþÁÂÉÍÚ", "".join(sorted(CONSONANTS)), 11)


# Two rules in front of the bundled ones: s01 drops an a between a form's
# first consonant and the next, s02 doubles a consonant between two a's.
CUSTOM_HEAD = (
    rules.make_rule("s01", "phono", "a", "", "#C", "C"),
    rules.make_rule("s02", "phono", "aC", "a11", "", "a"),
)


def test_cache_equals_direct_generation(monkeypatch, drawn_entries, sample_entries, gold_entries, ruleset):
    forms, stats, (calls, distinct) = _assert_cached_equals_direct(monkeypatch, drawn_entries)
    assert calls < distinct
    assert len({str(e.code) for e in drawn_entries}) == 24
    assert len(stats.failures) == 3 * 24  # the wrong-length roots
    assert forms
    custom = rules.RuleSet(CUSTOM_HEAD + ruleset.rules)
    _forms, stats, _cascades = _assert_cached_equals_direct(
        monkeypatch, list(sample_entries) + list(gold_entries), custom)
    assert {"s01", "s02"} <= set(stats.rule_hits)


# drawn_entries come in per-code blocks; shuffled, the codes, stand-in
# roots and failing roots interleave, and each code's results must still
# go back to the input positions of its entries.
def test_cache_equals_direct_on_shuffled_input(monkeypatch, drawn_entries):
    shuffled = list(drawn_entries)
    random.Random(13).shuffle(shuffled)
    forms, stats, _cascades = _assert_cached_equals_direct(monkeypatch, shuffled)
    parallel, parallel_stats = pipeline.generate_all(shuffled, workers=2)
    assert parallel == forms
    assert parallel_stats.rule_hits == stats.rule_hits
    assert [str(f) for f in parallel_stats.failures] == [str(f) for f in stats.failures]


def test_cache_equals_direct_under_a_rule_naming_a_free_consonant(monkeypatch, ruleset):
    custom = rules.RuleSet((rules.make_rule("b01", "phono", "b", "f", left="#"),) + ruleset.rules)
    entries = _drawn_entries([parse_code("00L0003"), parse_code("00H0000")], "bf", "bfktqmw", 3)
    _forms, stats, _cascades = _assert_cached_equals_direct(monkeypatch, entries, custom)
    assert stats.rule_hits["b01"] > 0


# m is free for the cascade of the bundled rules but special for the
# paradigm cache (the affix -tum writes it); a rule naming m takes it out
# of the cascade's free set as well.
def test_cache_equals_direct_under_a_rule_naming_m(monkeypatch, ruleset):
    custom = rules.RuleSet((rules.make_rule("m01", "phono", "ma", "mu", left="#"),) + ruleset.rules)
    assert "m" in ruleset.free and "m" not in custom.free
    assert "m" in pipeline.special_consonants(ruleset)
    entries = _drawn_entries([parse_code("00L0003"), parse_code("10H0000")], "mb", "bkmsqT", 4)
    _forms, stats, (calls, distinct) = _assert_cached_equals_direct(monkeypatch, entries, custom)
    assert stats.rule_hits["m01"] > 0
    assert calls < distinct


# Roots over consonants that are free for the cascade but special for the
# paradigm cache: every root is a key of its own, and the memo shares
# cascades across keys.  With m and s the only two, a root can share only
# with its swap, and only the forms that no affix or pattern m or s marks.
def test_cascade_memo_shares_across_keys(monkeypatch, ruleset, sample_entries):
    letters = "ms"
    assert set(letters) == ruleset.free & pipeline.special_consonants(ruleset)
    codes = sorted({e.code for e in sample_entries}, key=str)[::4]
    entries = _drawn_entries(codes, letters, letters, 5)
    _forms, _stats, (calls, distinct) = _assert_cached_equals_direct(monkeypatch, entries)
    assert len(codes) == 6
    assert calls < 0.8 * distinct


# A rule that writes a symbol beyond Latin-1, which the memo cannot rename
# back: those entries are expanded without it, and fail as they do alone.
def test_cache_equals_direct_under_a_rule_writing_beyond_latin1(monkeypatch, ruleset):
    custom = rules.RuleSet(ruleset.rules + (rules.make_rule("k01", "ortho", "k", "\u0643"),))
    entries = _drawn_entries([parse_code("00L0003")], "kb", "bkmqz", 6)
    _forms, stats, _cascades = _assert_cached_equals_direct(monkeypatch, entries, custom)
    assert any("MalformedInternal" in str(f) and "k" in f.root for f in stats.failures)


# d T ð þ are stand-ins: the cascade reads them only as members of a
# class, and VIII leaves them as they are before its t infix (Aid·taxara),
# so roots that differ in them share one key, whose paradigm each renames.
def test_cache_equals_direct_on_roots_opened_by_d_t_dh_th(monkeypatch, ruleset):
    free = pipeline.stand_ins(ruleset)
    assert set("dTðþ") <= set(free)
    rng = random.Random(23)
    letters = "dTðþkbmtwy"
    roots = ["dxr", "Tlç", "ðkr", "þbt"]
    roots += [first + rng.choice(letters) + rng.choice(letters) for first in "dTðþ" for _ in range(6)]
    assert len({pipeline.stand_in_root(root, free) for root in roots}) <= len(roots) / 2
    codes = [parse_code(c) for c in ("01L0000", "00L0003", "00H1000", "10H0000", "00H4000", "04H0000")]
    entries = [LexiconEntry("", root, code) for code in codes for root in roots]
    forms, stats, _cascades = _assert_cached_equals_direct(monkeypatch, entries)
    assert not stats.failures and len(forms) == 109 * len(entries)


# _expand_code builds a key's paradigm in canonical letters, which hold
# none of the radicals of its roots, so each entry's paradigm is the same
# whichever entry comes first; an entry that fails to build names its own
# root, also when the next entry of its key fails too.
@pytest.mark.parametrize("code", ["00L0003", "10H0000", "01L0000", "04H0000"])  # I, IV, VIII, X
@pytest.mark.parametrize("shape", ["m{0}{0}", "{0}ss"])
def test_stand_in_paradigm_is_the_same_whichever_entry_comes_first(ruleset, code, shape):
    code = parse_code(code)
    stand = pipeline.stand_ins(ruleset)
    targets = stand + "".join(sorted(ruleset.free.difference(stand)))
    roots = [shape.format(c) for c in "dTðþk"]
    assert len({pipeline.stand_in_root(root, stand) for root in roots}) == 1
    entries = [LexiconEntry("", root, code) for root in roots]
    entries += [e for e in _drawn_entries([code], "b", "bkq", 7) if len(e.root) != 3]
    built = []
    for order in (entries, entries[::-1]):
        results = pipeline._expand_code(order, ruleset, stand, targets)
        failed = [(r.root, e.root) for r, e in zip(results, order) if isinstance(r, errors.EntryFailed)]
        assert len(failed) == 3 and all(own == root for own, root in failed)
        built.append([str(r) if isinstance(r, errors.EntryFailed) else r for r in results])
    assert built[0] == built[1][::-1]
    last, last_hits = built[0][len(roots) - 1]
    for (paradigm, hits), c in zip(built[0][:len(roots)], "dTðþk"):
        assert len(paradigm.surfaces) == 109 and hits == last_hits
        assert tuple(s.replace(c, "k") for s in paradigm.surfaces) == last.surfaces


# Each key's paradigm holds its distinct surfaces once, as strings, and
# every entry's paradigm indexes its own renaming of them, so the cells of
# one surface share one string object.
@pytest.mark.parametrize("case", ["sample", "gold", "mixed-class"])
def test_equal_surfaces_of_a_paradigm_are_one_string(case, sample_forms, gold_forms, mixed_class_lexicon):
    forms = {"sample": sample_forms, "gold": gold_forms, "mixed-class": mixed_class_lexicon[1]}[case]
    assert forms.paradigms
    for p in forms.paradigms:
        first = {}
        assert all(first.setdefault(s, s) is s for s in p.surfaces), (p.lemma, p.code)


def test_viii_assimilation_lists_only_letters_it_changes():
    assert all(source != target for source, target in VIII_ASSIMILATION.items())


def test_cache_parallel_equals_serial(drawn_entries):
    entries = drawn_entries[::3]
    serial, serial_stats = pipeline.generate_all(entries)
    parallel, parallel_stats = pipeline.generate_all(entries, workers=2)
    assert parallel == serial
    assert parallel_stats.rule_hits == serial_stats.rule_hits
    assert parallel_stats.pattern_histogram == serial_stats.pattern_histogram
    assert [str(f) for f in parallel_stats.failures] == [str(f) for f in serial_stats.failures]


# The analyze command expands only the entries whose root has the free
# consonants of the query as its free radicals (analyzer.entries_answering).
# That is exact when the free consonants of each surface are the free
# radicals of its root.  First, no affix, codebook op or rule writes a free
# consonant; a rule can only copy one.  The custom set puts the
# phonological rules of test_rules.CUSTOM_RULES, which copy consonants by
# back-reference, in front of the bundled cascade.
@pytest.mark.parametrize("custom", [False, True], ids=["bundled-rules", "custom-rules"])
def test_every_free_consonant_of_a_surface_is_a_radical(custom, ruleset, sample_entries, gold_entries,
                                                       drawn_entries):
    rs = ruleset
    if custom:
        rs = rules.RuleSet(tuple(r for r in CUSTOM_RULES if r.stage == "phono") + ruleset.rules)
    free = set(pipeline.stand_ins(rs))
    generated, hits = 0, Counter()
    for entries in (sample_entries, gold_entries, drawn_entries):
        forms, stats = pipeline.generate_all(entries, rs)
        for p in forms.paradigms:
            assert free.intersection("".join(p.surfaces)) <= set(p.root), (p.root, p.code)
        generated += len(forms.paradigms)
        hits.update(stats.rule_hits)
    assert generated == len(sample_entries) + len(gold_entries) + len(drawn_entries) - 3 * 24
    if custom:
        assert hits["d2"] and hits["d3"]


# Second, nothing deletes the last copy of a free radical: each is in every
# surface of its root's paradigm.
@pytest.mark.parametrize("custom", [False, True], ids=["bundled-rules", "custom-rules"])
def test_every_free_radical_of_a_root_is_in_every_surface(custom, ruleset, sample_entries, gold_entries,
                                                         drawn_entries):
    rs = ruleset
    if custom:
        rs = rules.RuleSet(tuple(r for r in CUSTOM_RULES if r.stage == "phono") + ruleset.rules)
    free = set(pipeline.stand_ins(rs))
    generated = 0
    for entries in (sample_entries, gold_entries, drawn_entries):
        forms, _stats = pipeline.generate_all(entries, rs)
        for p in forms.paradigms:
            radicals = free.intersection(p.root)
            for surface in p.surfaces:
                assert radicals <= set(surface), (p.root, p.code, surface)
        generated += len(forms.paradigms)
    assert generated == len(sample_entries) + len(gold_entries) + len(drawn_entries) - 3 * 24


# The same, rule by rule: a rule rewrites only what its pattern matches, so
# it deletes a free consonant only where a capture of a class that holds one
# is not written back.  A back-reference matches a second copy of its
# capture, which one copy written back keeps.
def test_every_rule_writes_back_each_capture_that_can_hold_a_free_consonant(ruleset):
    free = set(pipeline.stand_ins(ruleset))
    assert free
    for rule in ruleset.rules:
        captures = [ch for ch in rule.pattern if ch == "." or ch in rules._CLASS_SETS]
        for n, ch in enumerate(captures, 1):
            if ch == "." or free.intersection(rules._CLASS_SETS[ch]):
                assert str(n) in rule.replacement, (rule.id, rule.pattern, rule.replacement, n)
