"""Exhaustive check of the paradigm cache and the cascade memo against
direct generation.

    python3 tests/sweep_paradigm_cache.py [--quad-roots N] [--seed S]

``generate_all`` builds one paradigm per (code, stand-in root) in canonical
letters and renames it for each entry of that key, and the stand-in roots
of one code share one cascade per canonical underlying form; the
reference (``tests/reference_generation.py``) expands every entry itself,
one cascade per cell.  This script compares the two on every bundled
triliteral code x every root over the special consonants plus two free
ones (so that keys hold roots that swap the two, and roots over m and s,
free for the cascade alone, share cascades across keys), and on a seeded
sample of roots over all consonants for the quadriliteral codes.  Forms,
rule hits, failure messages and the pattern histogram must be equal.  It
also checks the two free-consonant invariants that make the analyze
command's selection exact (``analyzer.entries_answering``) on every
surface it generates: its free consonants (``pipeline.stand_ins``) are
radicals of its root, and every free radical of its root is in it.  It
prints the paradigm count, the count of chunks (of about 300 entries of
one code) that mismatch, the count of surfaces that break an invariant
and the wall time, and exits 1 on any mismatch or violation.
It takes several minutes, so pytest does not collect it (the file name
does not start with ``test_``).
"""

import argparse
import itertools
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import reference_generation  # noqa: E402
from arabverb import lexicon, pipeline, rules  # noqa: E402
from arabverb.alphabet import CONSONANTS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "..", "src", "arabverb", "data")
CHUNK = 300  # entries per generate_all call, so that memory stays small


def bundled_codes():
    codes = {}
    for name in ("sample_lexicon.tsv", "gold_lexicon.tsv"):
        for entry in lexicon.load_lexicon(os.path.join(DATA, name)).entries:
            codes[str(entry.code)] = entry.code
    return [codes[c] for c in sorted(codes)]


def chunks(code, roots, free):
    """Entries of one code in slices of about CHUNK, never splitting the
    roots of one key, so that the cache is exercised."""
    groups = {}
    for root in roots:
        groups.setdefault(pipeline.stand_in_root(root, free), []).append(root)
    chunk = []
    for group in groups.values():
        chunk += [lexicon.LexiconEntry("", root, code) for root in group]
        if len(chunk) >= CHUNK:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def compare(entries, free):
    """(1 if the forms, rule hits, failure messages or pattern histogram of
    ``entries`` differ between the two paths, else 0; the count of their
    surfaces whose free consonants, those of ``free``, are not the free
    radicals of their root)."""
    forms, stats = pipeline.generate_all(entries)
    got = list(forms), stats.rule_hits, [str(f) for f in stats.failures], stats.pattern_histogram
    violations = 0
    for p in forms.paradigms:
        radicals = free.intersection(p.root)
        violations += sum(1 for surface in p.surfaces if free.intersection(surface) != radicals)
    return int(got != reference_generation.generate(entries)), violations


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quad-roots", type=int, default=2000, help="sampled roots per quadriliteral code")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ruleset = rules.default_rules()
    special = "".join(sorted(pipeline.special_consonants(ruleset)))
    free = pipeline.stand_ins(ruleset)
    free_set = frozenset(free)
    letters = special + free[1] + free[-1]
    rng = random.Random(args.seed)
    start = time.perf_counter()
    paradigms = mismatches = violations = 0
    for code in bundled_codes():
        if lexicon.resolve_class(code).label in lexicon.QUADRILITERAL:
            pool = sorted(CONSONANTS)
            roots = sorted({"".join(rng.choice(pool) for _ in range(4)) for _ in range(args.quad_roots)})
        else:
            roots = ["".join(r) for r in itertools.product(letters, repeat=3)]
        code_bad = code_violations = 0
        for chunk in chunks(code, roots, free):
            bad, broken = compare(chunk, free_set)
            code_bad += bad
            code_violations += broken
        paradigms += len(roots)
        mismatches += code_bad
        violations += code_violations
        print("%s %-5s %6d roots %d mismatches %d violations"
              % (code, lexicon.resolve_class(code).label, len(roots), code_bad, code_violations), flush=True)
    wall = time.perf_counter() - start
    print("paradigms %d  mismatches %d  violations %d  wall %.0f s  (special %s, free letters %s%s)"
          % (paradigms, mismatches, violations, wall, special, free[1], free[-1]))
    return 1 if mismatches or violations else 0


if __name__ == "__main__":
    sys.exit(main())
