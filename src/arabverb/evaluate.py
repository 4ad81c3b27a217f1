"""Evaluation harness: compare a generated lexicon against a reference.

Both files use the normalized TSV schema below; a per-key diff is
written next to the report.  "Correct" means exact surface equality
after shared Unicode-level normalization (the internal transliteration
is already canonical).
"""

from .errors import BadLexicon
from .inflect import CELLS

# Normalized comparison schema, one form per row:
#   lemma (internal) <TAB> tag <TAB> paradigm <TAB> voice <TAB> surface (internal)
# Reference lexicons converted from other analyzers must be mapped to
# these five columns; multiple rows may share a key when the reference
# offers variant surfaces.


class EvalReport:
    def __init__(self, correct=0, incorrect=0, no_data=0, excluded=0):
        self.correct = correct
        self.incorrect = incorrect
        self.no_data = no_data
        self.excluded = excluded

    @property
    def total(self):
        return self.correct + self.incorrect + self.no_data

    @property
    def precision(self):
        evaluable = self.correct + self.incorrect
        return self.correct / evaluable if evaluable else 0.0


def _rows(path):
    """(lineno, fields) of each line of ``path`` that is neither blank nor a
    comment, a leading byte-order mark skipped; a file that is not UTF-8
    is a BadLexicon."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if line and not line.startswith("#"):
                    yield lineno, line.split("\t")
    except UnicodeDecodeError as exc:
        raise BadLexicon("%s is not UTF-8: byte 0x%02x (%s)" % (path, exc.object[exc.start], exc.reason)) from None


def load_normalized(path):
    rows = []
    for lineno, fields in _rows(path):
        if len(fields) != 5:
            raise BadLexicon("%s line %d: expected 5 columns, got %d" % (path, lineno, len(fields)))
        rows.append(tuple(fields))
    return rows


def load_exclusions(path):
    keys = set()
    for lineno, fields in _rows(path):
        if len(fields) < 4:
            raise BadLexicon("%s line %d: expected at least 4 columns, got %d" % (path, lineno, len(fields)))
        keys.add(tuple(fields[:4]))
    return keys


def evaluate(reference_rows, generated_rows, exclusions=None):
    """Per-form verdicts; returns (EvalReport, diff rows).

    A generated form is correct iff some reference row with the same
    (lemma, tag, paradigm, voice) key carries the same surface; keys
    absent from the reference count as no-data.
    """
    exclusions = exclusions or set()
    reference = {}
    for lemma, tag, paradigm, voice, surface in reference_rows:
        reference.setdefault((lemma, tag, paradigm, voice), set()).add(surface)
    report = EvalReport()
    diff = []
    seen = set()
    for row in generated_rows:
        if row in seen:
            continue
        seen.add(row)
        lemma, tag, paradigm, voice, surface = row
        key = (lemma, tag, paradigm, voice)
        if key in exclusions:
            report.excluded += 1
            continue
        expected = reference.get(key)
        if expected is None:
            report.no_data += 1
            verdict = "no-data"
        elif surface in expected:
            report.correct += 1
            verdict = "correct"
        else:
            report.incorrect += 1
            verdict = "incorrect"
            diff.append(key + (surface, "|".join(sorted(expected)), verdict))
            continue
        if verdict != "correct":
            diff.append(key + (surface, "", verdict))
    return report, diff


def forms_to_normalized(forms):
    """The forms of a Forms -> normalized comparison rows."""
    return [(p.lemma, cell.tag, cell.paradigm, cell.voice, surface)
            for p in forms.paradigms for cell, surface in zip(CELLS, p.surfaces)]


def evaluate_files(reference_path, generated_path, exclude_path=None, report_path=None):
    reference = load_normalized(reference_path)
    generated = load_normalized(generated_path)
    exclusions = load_exclusions(exclude_path) if exclude_path else set()
    report, diff = evaluate(reference, generated, exclusions)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("correct\t%d\n" % report.correct)
            fh.write("incorrect\t%d\n" % report.incorrect)
            fh.write("no_data\t%d\n" % report.no_data)
            fh.write("excluded\t%d\n" % report.excluded)
            fh.write("total\t%d\n" % report.total)
            fh.write("precision\t%.4f\n" % (report.precision * 100.0))
        with open(report_path + ".diff", "w", encoding="utf-8") as fh:
            for row in diff:
                fh.write("\t".join(row) + "\n")
    return report, diff
