"""Analysis by lookup over a generated inflected lexicon.

Three query surfaces: analyze a form (full, partial or no diacritics),
inflect a lemma, and list the lemmas of a root.  Everything is an
index over the generator's output; nothing is parsed on the fly.
"""

from dataclasses import dataclass

from .alphabet import ALPHABET, SHADDA, SUKUN, VOWELS
from .errors import LemmaNotFound
from .inflect import CELL_ORDER
from .lexicon import parse_code, resolve_class
from .translit import to_internal

DIACRITICS = VOWELS | {SHADDA, SUKUN}


def skeleton(s):
    """Strip short vowels, gemination and vowellessness marks."""
    return "".join(ch for ch in s if ch not in DIACRITICS)


def matches_partial(query, candidate):
    """True iff deleting the diacritics the query omits from the
    candidate yields the query."""
    i = 0
    for ch in candidate:
        if i < len(query) and query[i] == ch:
            i += 1
        elif ch in DIACRITICS:
            continue
        else:
            return False
    return i == len(query)


@dataclass(frozen=True)
class Analysis:
    lemma: str
    root: str
    code: str
    label: str
    surface: str
    tag: str
    paradigm: str
    voice: str

    def sort_key(self):
        return (self.lemma, self.code, self.paradigm, self.voice, self.tag)


class FormIndex:
    """Diacritic-stripped, lemma and root lookup over inflected forms."""

    def __init__(self, forms):
        self.by_skeleton = {}
        self.by_lemma = {}
        self.by_root = {}
        seen = set()
        labels = {}  # a label depends only on the code
        for f in forms:
            label = labels.get(f.code)
            if label is None:
                label = labels[f.code] = resolve_class(parse_code(f.code)).label
            analysis = Analysis(
                lemma=f.lemma, root=f.root, code=f.code, label=label,
                surface=f.surface, tag=f.cell.tag,
                paradigm=f.cell.paradigm, voice=f.cell.voice,
            )
            if analysis in seen:
                continue  # identical duplicate rows collapse
            seen.add(analysis)
            self.by_skeleton.setdefault(skeleton(f.surface), []).append(analysis)
            self.by_lemma.setdefault(f.lemma, {}).setdefault(f.code, []).append(
                (CELL_ORDER[f.cell], f.cell, f.surface)
            )
            self.by_root.setdefault(f.root, {})[(f.lemma, f.code)] = label
        self.size = len(seen)

    def __len__(self):
        return self.size


def _to_query(text):
    if text and all(ch in ALPHABET for ch in text):
        return text
    return to_internal(text)


def analyze(index, form):
    """All analyses consistent with the (possibly partial) diacritics."""
    query = _to_query(form)
    candidates = index.by_skeleton.get(skeleton(query), [])
    hits = [a for a in candidates if matches_partial(query, a.surface)]
    return sorted(hits, key=Analysis.sort_key)


def inflect_verb(index, lemma):
    """The 109-form table(s) of a lemma; one table per code."""
    query = _to_query(lemma)
    tables = index.by_lemma.get(query)
    if not tables:
        raise LemmaNotFound(lemma)
    out = {}
    for code, rows in sorted(tables.items()):
        out[code] = [(cell, surface) for _, cell, surface in sorted(rows)]
    return out


def derive_root(index, root):
    """All (lemma, pattern label) pairs generated from a root."""
    query = _to_query(root)
    found = index.by_root.get(query, {})
    return sorted((lemma, label) for (lemma, _code), label in found.items())
