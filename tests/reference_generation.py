"""The reference that generate_all must equal: each entry on its own, one
build_stems, then inflect, RuleSet.apply and to_script per cell, with no
stand-in root, memo or batch.  It imports no pytest: the sweep runs it too.
"""

from arabverb import rules
from arabverb.errors import ArabverbError, EntryFailed
from arabverb.inflect import CELLS, inflect
from arabverb.lexicon import resolve_class
from arabverb.pipeline import InflectedForm
from arabverb.stems import build_stems
from arabverb.translit import to_script


def generate(entries, ruleset=None):
    """generate_all's forms (as a list), rule hits, failure messages and
    pattern histogram for ``entries``; an ArabverbError is wrapped in
    EntryFailed as generate_all wraps it."""
    rs = ruleset if ruleset is not None else rules.default_rules()
    forms, hits, failures, histogram = [], {}, [], {}
    for entry in entries:
        entry_hits = {}  # kept only if the entry generates
        try:
            stems = build_stems(entry)
            surfaces = [rs.apply(inflect(stems, cell), entry_hits) for cell in CELLS]
            forms += [InflectedForm(surface, to_script(surface), entry.lemma, entry.root, entry.code, cell)
                      for surface, cell in zip(surfaces, CELLS)]
        except ArabverbError as exc:
            failures.append(str(EntryFailed(entry.lemma or entry.root, type(exc).__name__, exc,
                                            entry.root, entry.code)))
            continue
        for rule_id, n in entry_hits.items():
            hits[rule_id] = hits.get(rule_id, 0) + n
        label = resolve_class(entry.code).label
        histogram[label] = histogram.get(label, 0) + 1
    return forms, hits, failures, histogram
