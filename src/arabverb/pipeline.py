"""Lexicon-scale generation: every entry expanded through the full
stem/inflection/cascade flow, with stats and a persisted TSV lexicon.
"""

import functools
import multiprocessing
from dataclasses import dataclass, field

from . import rules
from .errors import ArabverbError, EntryFailed
from .inflect import CELLS, CELL_ORDER, Cell, inflect
from .lexicon import resolve_class
from .stems import build_stems
from .translit import to_script

FORMS_PER_LEMMA = len(CELLS)  # 109


@dataclass(frozen=True)
class InflectedForm:
    surface: str
    surface_arabic: str
    lemma: str
    root: str
    code: str
    cell: Cell

    def sort_key(self):
        return (self.lemma, self.code, CELL_ORDER[self.cell])


@dataclass
class GenStats:
    lemma_count: int = 0
    form_count: int = 0
    pattern_histogram: dict = field(default_factory=dict)
    rule_hits: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def forms_per_lemma(self):
        return self.form_count / self.lemma_count if self.lemma_count else 0.0

    def as_rows(self):
        rows = [("lemmas", self.lemma_count), ("forms", self.form_count),
                ("forms_per_lemma", self.forms_per_lemma)]
        for label in sorted(self.pattern_histogram):
            rows.append(("pattern_" + label, self.pattern_histogram[label]))
        for rule_id in sorted(self.rule_hits):
            rows.append(("rule_" + rule_id, self.rule_hits[rule_id]))
        return rows


def generate_entry(entry, ruleset=None, hits=None):
    """All 109 inflected forms of one entry."""
    rs = ruleset if ruleset is not None else rules.default_rules()
    try:
        stems = build_stems(entry)
        code = str(entry.code)
        out = []
        for cell in CELLS:
            surface = rs.apply(inflect(stems, cell), hits)
            out.append(InflectedForm(
                surface=surface,
                surface_arabic=to_script(surface),
                lemma=entry.lemma,
                root=entry.root,
                code=code,
                cell=cell,
            ))
        return out
    except ArabverbError as exc:
        raise EntryFailed(entry.lemma or entry.root, type(exc).__name__, exc)


def regenerate_lemma(entry):
    """The 3SM perfective active surface of (root, code)."""
    stems = build_stems(entry)
    return rules.default_rules().apply(inflect(stems, Cell("3SM", "PERF", "ACT")))


def _expand_entry(entry, ruleset):
    """One entry's (forms, rule hits), or its EntryFailed, as data.

    Module-level so that a process pool can send it to its workers.
    """
    hits = {}
    try:
        return generate_entry(entry, ruleset, hits), hits
    except EntryFailed as exc:
        return exc


def generate_all(entries, ruleset=None, workers=1):
    """Expand a lexicon; per-entry failures are collected, not fatal.

    Returns (forms, stats).  With workers > 1 the entries are expanded
    by the same function in a process pool; results are merged in input
    order either way, so the output is identical to a serial run.
    """
    entries = list(entries)
    expand = functools.partial(_expand_entry, ruleset=ruleset)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(expand, entries)
    else:
        results = map(expand, entries)
    stats = GenStats()
    forms = []
    for entry, result in zip(entries, results):
        if isinstance(result, EntryFailed):
            stats.failures.append(result)
            continue
        entry_forms, hits = result
        forms.extend(entry_forms)
        _count(stats, entry, hits)
    return forms, stats


def _count(stats, entry, hits):
    stats.lemma_count += 1
    stats.form_count += FORMS_PER_LEMMA
    label = resolve_class(entry.code).label
    stats.pattern_histogram[label] = stats.pattern_histogram.get(label, 0) + 1
    for rule_id, n in hits.items():
        stats.rule_hits[rule_id] = stats.rule_hits.get(rule_id, 0) + n


HEADER = "# surface_arabic\tsurface\tlemma\troot\tcode\ttag\tparadigm\tvoice"


def write_lexicon(forms, path):
    """Write the inflected lexicon TSV, sorted by (lemma, code, cell)."""
    rows = sorted(forms, key=InflectedForm.sort_key)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        for f in rows:
            fh.write("\t".join([
                f.surface_arabic, f.surface, f.lemma, f.root, f.code,
                f.cell.tag, f.cell.paradigm, f.cell.voice,
            ]) + "\n")


def read_lexicon(path):
    """Read an inflected lexicon TSV back; raises on malformed rows."""
    forms = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 8:
                raise ArabverbError("line %d: expected 8 columns, got %d" % (lineno, len(fields)))
            arabic, surface, lemma, root, code, tag, paradigm, voice = fields
            try:
                cell = Cell(tag, paradigm, voice)
            except ArabverbError as exc:
                raise ArabverbError("line %d: %s" % (lineno, exc))
            forms.append(InflectedForm(surface, arabic, lemma, root, code, cell))
    return forms


def write_stats(stats, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in stats.as_rows():
            fh.write("%s\t%s\n" % (key, value))
