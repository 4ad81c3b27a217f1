"""Internal symbol alphabet shared by every module.

Each internal symbol is exactly one character.  Consonants include the
hamza-bearing letters and the semiconsonants w/y; A is the bare alif
(vowel-lengthening mark and prosthetic support), Y the alif maqsura,
and the marks are ~ (gemination) and · (vowellessness).
"""

import re

# Short vowels
VOWELS = frozenset("aiu")

# Hamza-bearing letters.  The underlying representation uses only the
# alif-seated hamza; the orthographic rules reseat it in context.
HAMZA = "Á"          # on alif
HAMZA_UNDER = "Í"    # under alif
HAMZA_WAW = "Ú"      # on waw
HAMZA_YA = "É"       # on ya
HAMZA_BARE = "Â"     # on the line
MADDA = "Ã"          # alif madda

HAMZA_LETTERS = frozenset([HAMZA, HAMZA_UNDER, HAMZA_WAW, HAMZA_YA, HAMZA_BARE])

SEMICONSONANTS = frozenset("wy")

# Plain consonants (emphatics and pharyngeals use capitals, following
# the one-symbol-per-character convention used in the data files).
BASE_CONSONANTS = frozenset("btþjHxdðrzsXSDTZçgfqklmnh")

CONSONANTS = BASE_CONSONANTS | SEMICONSONANTS | HAMZA_LETTERS

ALIF = "A"
ALIF_MAQSURA = "Y"
SHADDA = "~"
SUKUN = "·"

LENGTHENERS = frozenset([ALIF, ALIF_MAQSURA, MADDA])

ALPHABET = CONSONANTS | VOWELS | LENGTHENERS | frozenset([SHADDA, SUKUN])

# Template slot letters (never appear in finished forms).
SLOT_F = "F"
SLOT_V = "V"
SLOT_W = "W"


def well_formed(s):
    """Check the internal-string invariants; return None or a reason."""
    for i, ch in enumerate(s):
        if ch not in ALPHABET:
            return "symbol %r not in alphabet" % ch
        if ch in (SHADDA, SUKUN) and i == 0:
            return "%r may not open a word" % ch
        if ch in VOWELS and i > 0 and s[i - 1] in VOWELS:
            return "vowel cluster %r at position %d" % (s[i - 1 : i + 1], i)
    return None


def _one_of(symbols):
    return "[%s]" % re.escape("".join(sorted(symbols)))


# The strings well_formed accepts, as one expression for ``fullmatch``: no
# opening mark, and a non-vowel after every vowel but a final one.
WELL_FORMED = re.compile("(?!%s)%s*(?:%s%s+)*%s?" % (
    _one_of((SHADDA, SUKUN)), _one_of(ALPHABET - VOWELS),
    _one_of(VOWELS), _one_of(ALPHABET - VOWELS), _one_of(VOWELS)))
