"""Lemma-lexicon entries: root plus 7-position morphological code.

A code has six digits and one letter, the letter in position 3 naming
the template (L or H).  Positions 1, 2 and 4 select derivational
operations from the codebook; positions 5-7 override the conjugation
vowels (0 keeps the class default).  Six-character legacy codes are
accepted and right-padded with a default vowel digit.
"""

import functools
from collections import namedtuple

from .alphabet import CONSONANTS
from .errors import ArabverbError, BadCode, BadLexicon, NoEntries, UnknownClass
from .translit import to_internal

_VOWEL_DIGIT = {"0": None, "1": "a", "2": "i", "3": "u"}

# (code position, digit) -> the ops that digit selects (none for 0).
# Positions 1, 2, 4 read in turn give every class its ops in application
# order: prefixes, infixes and lengthenings, append, duplications (whose
# indices are root positions).  ("ta",) marks the ta- of V, VI and QII;
# the other ops are the paper's 7 insertions, 3 lengthenings, 2 duplications.
CODEBOOK = {
    ("1", "1"): (("prefix", "Á"),),
    ("1", "2"): (("prefix", "n"),),
    ("1", "3"): (("prefix", "st"),),
    ("2", "1"): (("infix", "t", 1),),
    ("2", "2"): (("infix", "n", 2),),
    ("2", "3"): (("infix", "w", 2),),
    ("2", "4"): (("prefix", "st"),),
    ("2", "5"): (("infix", "ww", 2),),
    ("2", "6"): (("lengthen", "A", 1),),
    ("2", "7"): (("lengthen", "A", 2),),
    ("2", "8"): (("infix", "n", 2), ("append", "y")),  # -y surfaces as -aY / -ay-
    ("4", "1"): (("dup", 2),),
    ("4", "2"): (("dup", "final"),),
    ("4", "3"): (("ta",),),
    ("4", "4"): (("dup", 2), ("ta",)),
}

# (d1, d2, d4, template) -> traditional pattern label.  Pattern I labels
# get their thematic vowels appended after resolution (Iau, Iii, ...).
_LABELS = {
    ("0", "0", "0", "L"): "I",
    ("0", "0", "1", "H"): "II",
    ("0", "6", "0", "H"): "III",
    ("1", "0", "0", "H"): "IV",
    ("0", "0", "4", "H"): "V",
    ("0", "6", "3", "H"): "VI",
    ("2", "0", "0", "L"): "VII",
    ("0", "1", "0", "L"): "VIII",
    ("0", "0", "2", "L"): "IX",
    ("0", "4", "0", "H"): "X",
    ("3", "0", "0", "H"): "X",
    ("0", "7", "2", "H"): "XI",
    ("0", "3", "1", "H"): "XII",
    ("0", "5", "0", "H"): "XIII",
    ("0", "2", "2", "H"): "XIV",
    ("0", "8", "0", "H"): "XV",
    ("0", "0", "0", "H"): "QI",
    ("0", "0", "3", "H"): "QII",
    ("0", "2", "0", "H"): "QIII",
    ("0", "0", "2", "H"): "QIV",
}

# Imperfective stem vowel defaults.  The first vowel is u exactly for
# II, III, IV and QI; the second is a for the ta- classes, i elsewhere.
_ISTEM_V_U = frozenset(["II", "III", "IV", "QI"])
_ISTEM_W_A = frozenset(["V", "VI", "QII"])

QUADRILITERAL = frozenset(["QI", "QII", "QIII", "QIV"])


class DerivClass(namedtuple("DerivClass", "label ops template_type ta_prefix p_vowels i_vowels")):
    """A resolved code; p_vowels and i_vowels are the (V, W) of the active
    perfective and imperfective stems."""

    __slots__ = ()


class LexiconEntry(namedtuple("LexiconEntry", "lemma root code gloss", defaults=("",))):
    """The lemma (internal, fully diacritized 3SM perfective active), its
    root of 3-4 radicals and its 7-character code, as parse_code returns it."""

    __slots__ = ()

    def key(self):
        return (self.lemma, self.code)


def parse_code(text):
    """The validated 7-character form of a 6- or 7-character lexical code."""
    if len(text) == 6:
        text = text + "0"
    if len(text) != 7:
        raise BadCode("code %r must have 6 or 7 characters" % text)
    d1, d2, tpl, d4, v5, v6, v7 = text
    if tpl not in ("L", "H"):
        raise BadCode("position 3 of %r must be L or H" % text)
    if d1 not in "0123":
        raise BadCode("digit 1 of %r out of range" % text)
    if d2 not in "012345678":
        raise BadCode("digit 2 of %r out of range" % text)
    if d4 not in "01234":
        raise BadCode("digit 4 of %r out of range" % text)
    for v in (v5, v6, v7):
        if v not in "0123":
            raise BadCode("vowel digit of %r out of range" % text)
    return text


@functools.cache
def resolve_class(code):
    """Resolve a code against the codebook into a DerivClass; the code is
    checked and padded by parse_code first.  Cached; a code that raises is not."""
    d1, d2, template, d4, v5, v6, v7 = parse_code(code)
    label = _LABELS.get((d1, d2, d4, template))
    if label is None:
        raise UnknownClass("no codebook row for digits %s%s_%s with template %s"
                           % (d1, d2, d4, template))
    ops = []
    ta = False
    for pos, digit in (("1", d1), ("2", d2), ("4", d4)):
        for op in CODEBOOK.get((pos, digit), ()):
            if op == ("ta",):
                ta = True
            else:
                ops.append(op)

    p_w = _VOWEL_DIGIT[v5] or "a"
    i_v = _VOWEL_DIGIT[v6] or ("u" if label in _ISTEM_V_U else "a")
    if _VOWEL_DIGIT[v7]:
        i_w = _VOWEL_DIGIT[v7]
    elif label == "I":
        i_w = "u"
    elif label in _ISTEM_W_A:
        i_w = "a"
    else:
        i_w = "i"
    if label == "I":
        label = "I" + p_w + i_w
    return DerivClass(
        label=label,
        ops=tuple(ops),
        template_type=template,
        ta_prefix=ta,
        p_vowels=("a", p_w),
        i_vowels=(i_v, i_w),
    )


def parse_root(text):
    root = text.strip()
    if len(root) not in (3, 4):
        raise BadLexicon("root %r must have 3 or 4 radicals" % text)
    for ch in root:
        if ch not in CONSONANTS:
            raise BadLexicon("root %r contains non-consonant %r" % (text, ch))
    return root


class LoadReport:
    def __init__(self):
        self.entries = []
        self.diagnostics = []  # (lineno, message)


def load_lexicon(path):
    """Load a lemma lexicon TSV: lemma-arabic, root, code, gloss.

    Bad lines are reported, not fatal; the load fails only when no
    valid entry remains, with NoEntries carrying the reasons per line.
    A line that is not UTF-8 is a bad line: each byte that does not
    decode is read as a lone surrogate (U+DC80-U+DCFF), which no UTF-8
    text holds and which str.encode rejects.  A leading byte-order mark
    is skipped.
    """
    report = LoadReport()
    seen = set()
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                report.diagnostics.append((lineno, "byte 0x%02x at character %d is not UTF-8"
                                           % (ord(line[exc.start]) - 0xDC00, exc.start + 1)))
                continue
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                report.diagnostics.append((lineno, "need at least 3 tab-separated fields"))
                continue
            if not fields[0].strip():
                report.diagnostics.append((lineno, "empty lemma"))
                continue
            try:
                lemma = to_internal(fields[0].strip())
                root = parse_root(fields[1])
                code = parse_code(fields[2].strip())
                resolve_class(code)
            except ArabverbError as exc:
                report.diagnostics.append((lineno, str(exc)))
                continue
            gloss = fields[3].strip() if len(fields) > 3 else ""
            entry = LexiconEntry(lemma=lemma, root=root, code=code, gloss=gloss)
            if entry.key() in seen:
                report.diagnostics.append((lineno, "duplicate (lemma, code) pair"))
                continue
            seen.add(entry.key())
            report.entries.append(entry)
    if not report.entries:
        raise NoEntries("no valid entries in %s" % path, report.diagnostics)
    return report
