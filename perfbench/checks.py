"""Correctness gate: a run whose output fails any check reports no number.

Each check returns a list of failure messages; an empty list is a pass.
"""

import hashlib
import json
import os
from collections import Counter

from workloads import paradigm_digest

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
FORMS_PER_LEMMA = 109


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_forms(path):
    """Rows of an inflected lexicon TSV: (arabic, surface, lemma, root,
    code, tag, paradigm, voice), parsed by the benchmark itself."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                rows.append(tuple(line.rstrip("\n").split("\t")))
    return rows


def load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(workload, iseed):
    """Outputs recorded for a workload's input seed; lookup serves the
    mixed-class lexicon."""
    name = "mixed-class" if workload == "lookup" else workload
    return load_expected()[name][str(iseed)]


def not_fixed_point(surfaces, apply_cascade):
    """Sorted distinct surfaces that the cascade still rewrites."""
    return sorted(s for s in set(surfaces) if apply_cascade(s) != s)


def list_digest(items):
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()


def check_digest(path, expected):
    got = sha256_file(path)
    if got != expected["tsv_sha256"]:
        return ["%s: sha256 %s, recorded %s" % (os.path.basename(path), got, expected["tsv_sha256"])]
    return []


def check_paradigm_law(rows, entries):
    """Every lemma has 109 forms, and every input entry has its paradigm."""
    counts = Counter((r[2], r[4]) for r in rows)
    failures = ["%s %s has %d forms" % (lemma, code, n)
                for (lemma, code), n in sorted(counts.items()) if n != FORMS_PER_LEMMA]
    if len(counts) != entries:
        failures.append("%d paradigms written for %d entries" % (len(counts), entries))
    return failures


def check_fixed_point(rows, expected, apply_cascade):
    """The cascade is a fixed point on every generated surface.

    The seed program rewrites some surfaces of the mixed-class draw a
    second time (a known defect); expected.json records that set per input
    seed, and the check fails on any surface outside it or any change to it.
    """
    bad = not_fixed_point([r[1] for r in rows], apply_cascade)
    if len(bad) != expected["not_fixed_point"] or list_digest(bad) != expected["not_fixed_point_sha256"]:
        return ["%d surfaces are not cascade fixed points (recorded %d), e.g. %s"
                % (len(bad), expected["not_fixed_point"], bad[:3])]
    return []


def check_gold(report, forms):
    """Gold precision is 100% and every gold form is evaluated."""
    if report.incorrect or report.no_data or report.correct != forms:
        return ["gold: correct=%d incorrect=%d no-data=%d of %d forms"
                % (report.correct, report.incorrect, report.no_data, forms)]
    return []


def _analysis_key(a):
    return [a.lemma, a.root, a.code, a.surface, a.tag, a.paradigm, a.voice]


def check_query(kind, result, expected):
    """None when the result is right, else a message."""
    if kind == "miss":
        return None if result == [] else "miss returned %d analyses" % len(result)
    if kind == "inflect":
        code, digest = expected
        rows = [(c.tag, c.paradigm, c.voice, s) for c, s in result.get(code, [])]
        return None if paradigm_digest(rows) == digest else "paradigm of code %s differs" % code
    if kind == "derive":
        got = sorted(lemma for lemma, _label in result)
        return None if got == expected else "lemmas %s, expected %s" % (got[:3], expected[:3])
    if expected not in [_analysis_key(a) for a in result]:
        return "analysis %s missing" % (expected,)
    return None
