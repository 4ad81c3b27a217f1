"""Analysis by lookup over a generated inflected lexicon.

Three query surfaces: analyze a form (full, partial or no diacritics),
inflect a lemma, and list the lemmas of a root.  Everything is an
index over the generator's output; nothing is parsed on the fly.
"""

from collections import namedtuple

from .alphabet import ALPHABET, SHADDA, SUKUN, VOWELS
from .errors import LemmaNotFound
from .inflect import CELLS
from .lexicon import resolve_class
from .translit import to_internal

DIACRITICS = VOWELS | {SHADDA, SUKUN}
# Every internal symbol is Latin-1, so a surface strips as bytes in one C
# call; any other string takes the str.translate path.
_DIACRITIC_BYTES = "".join(sorted(DIACRITICS)).encode("latin-1")
_NO_DIACRITICS = dict.fromkeys(map(ord, DIACRITICS))


def skeleton(s):
    """Strip short vowels, gemination and vowellessness marks."""
    try:
        return s.encode("latin-1").translate(None, _DIACRITIC_BYTES).decode("latin-1")
    except UnicodeEncodeError:
        return s.translate(_NO_DIACRITICS)


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


class Analysis(namedtuple("Analysis", "lemma root code label surface tag paradigm voice")):
    """One reading of a form.  A named tuple, so that the index builds,
    hashes and holds one per form cheaply."""

    __slots__ = ()

    def sort_key(self):
        return (self.lemma, self.code, self.paradigm, self.voice, self.tag)


class FormIndex:
    """Diacritic-stripped, lemma and root lookup over the paradigms of a Forms."""

    def __init__(self, forms):
        self.by_skeleton = by_skeleton = {}
        self.by_lemma = by_lemma = {}
        self.by_root = by_root = {}
        seen = set()
        labels = {}  # a label depends only on the code
        for lemma, root, code, surfaces, _scripts in forms.paradigms:
            label = labels.get(code)
            if label is None:
                label = labels[code] = resolve_class(code).label
            rows = by_lemma.setdefault(lemma, {}).setdefault(code, [])
            by_root.setdefault(root, {})[(lemma, code)] = label
            for i, (cell, surface) in enumerate(zip(CELLS, surfaces)):
                analysis = Analysis(lemma, root, code, label, surface, cell.tag, cell.paradigm, cell.voice)
                if analysis in seen:
                    continue  # identical duplicate forms collapse
                seen.add(analysis)
                by_skeleton.setdefault(skeleton(surface), []).append(analysis)
                rows.append((i, cell, surface))
        self.size = len(seen)

    def __len__(self):
        return self.size


def _to_query(text):
    if text and ALPHABET.issuperset(text):
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
        raise LemmaNotFound("lemma %s is not in the lexicon" % lemma)
    out = {}
    for code, rows in sorted(tables.items()):
        out[code] = [(cell, surface) for _, cell, surface in sorted(rows)]
    return out


def derive_root(index, root):
    """All (lemma, pattern label) pairs generated from a root."""
    query = _to_query(root)
    found = index.by_root.get(query, {})
    return sorted((lemma, label) for (lemma, _code), label in found.items())
