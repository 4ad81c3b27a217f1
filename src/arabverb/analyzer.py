"""Analysis by lookup over a generated inflected lexicon.

Three query surfaces: analyze a form (full, partial or no diacritics),
inflect a lemma, and list the lemmas of a root.  Everything is an
index over the generator's output; nothing is parsed on the fly.
"""

from collections import namedtuple
from itertools import repeat
from operator import itemgetter

from . import pipeline, rules
from .alphabet import ALPHABET, SHADDA, SUKUN, VOWELS
from .errors import BadLexicon, LemmaNotFound
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


# The order of analyze's answer, (lemma, code, paradigm, voice, tag) of an
# Analysis, read by one C-level getter.
_SORT_KEY = itemgetter(0, 2, 6, 7, 5)


class Analysis(namedtuple("Analysis", "lemma root code label surface tag paradigm voice")):
    """One reading of a form.  A named tuple, so that the index builds,
    hashes and holds one per form cheaply."""

    __slots__ = ()

    def sort_key(self):
        return _SORT_KEY(self)


# The tag, paradigm and voice of each cell, as columns in CELLS order.
_TAGS, _PARADIGMS, _VOICES = zip(*((cell.tag, cell.paradigm, cell.voice) for cell in CELLS))


class FormIndex:
    """Diacritic-stripped, lemma and root lookup over the paradigms of a Forms.

    Holds one record per (lemma, code), the key of a lemma lexicon
    (``lexicon.load_lexicon``): a record that repeats a pair is a
    BadLexicon.  ``by_lemma`` maps a lemma and a code to that record's
    surfaces tuple.  Built one record at a time: its surfaces (none holds a
    line break) are stripped in one call, and its analyses built from
    columns."""

    def __init__(self, forms):
        self.by_skeleton = by_skeleton = {}
        self.by_lemma = by_lemma = {}
        self.by_root = by_root = {}
        size = 0
        for lemma, root, code, surfaces in forms.paradigms:
            tables = by_lemma.setdefault(lemma, {})
            if code in tables:
                raise BadLexicon("duplicate (lemma, code) pair: lemma %s, root %s, code %s"
                                 % (lemma, root, code))
            tables[code] = surfaces
            label = resolve_class(code).label
            by_root.setdefault(root, {})[(lemma, code)] = label
            skeletons = skeleton("\n".join(surfaces)).split("\n")
            analyses = map(tuple.__new__, repeat(Analysis),
                           zip(repeat(lemma), repeat(root), repeat(code), repeat(label),
                               surfaces, _TAGS, _PARADIGMS, _VOICES))
            for skel, analysis in zip(skeletons, analyses):
                found = by_skeleton.get(skel)
                if found is None:
                    by_skeleton[skel] = [analysis]
                else:
                    found.append(analysis)
            size += len(surfaces)
        self.size = size

    def __len__(self):
        return self.size


def _to_query(text):
    if text and ALPHABET.issuperset(text):
        return text
    return to_internal(text)


def entries_answering(entries, field, text):
    """The entries whose key equals that of the query ``text`` (either
    alphabet): a "lemma" of inflect_verb, a "root" of derive_root or a
    "form" of analyze, as ``field`` names it.  A lemma or a root is its own
    key; that of a form, and of an entry's root, is its set of free
    consonants (``pipeline.stand_ins`` of the bundled rules).  An index of
    the entries kept answers as one of every entry: inflect_verb and
    derive_root look up by lemma and by root, and an answer to a form has
    its consonants, whose free ones are the free radicals of its root: no
    affix, codebook op or rule writes a free consonant, and no rule deletes
    the last copy of one (tests/test_pipeline.py pins both)."""
    key = str  # a lemma or a root is its own key
    if field == "form":
        key, field = frozenset(pipeline.stand_ins(rules.default_rules())).intersection, "root"
    wanted = key(_to_query(text))
    return [e for e in entries if key(getattr(e, field)) == wanted]


def analyze(index, form):
    """All analyses consistent with the (possibly partial) diacritics,
    sorted by ``Analysis.sort_key``, which no two analyses of an index
    share (each (lemma, code) is one record).  The candidates share the query's
    skeleton, so a query with no diacritics matches every one of them;
    otherwise each distinct candidate surface is tested once."""
    query = _to_query(form)
    bare = skeleton(query)
    candidates = index.by_skeleton.get(bare)
    if not candidates:
        return []
    if query == bare:
        hits = candidates.copy()
    else:
        matched = {}
        for surface in {a[4] for a in candidates}:
            matched[surface] = matches_partial(query, surface)
        hits = [a for a in candidates if matched[a[4]]]
    if len(hits) > 1:
        hits.sort(key=_SORT_KEY)
    return hits


def inflect_verb(index, lemma):
    """The 109-form table of a lemma, (cell, surface) in CELLS order, per code."""
    query = _to_query(lemma)
    tables = index.by_lemma.get(query)
    if not tables:
        raise LemmaNotFound("lemma %s is not in the lexicon" % lemma)
    return {code: list(zip(CELLS, surfaces)) for code, surfaces in sorted(tables.items())}


def derive_root(index, root):
    """All (lemma, pattern label) pairs generated from a root."""
    query = _to_query(root)
    found = index.by_root.get(query, {})
    return sorted((lemma, label) for (lemma, _code), label in found.items())
