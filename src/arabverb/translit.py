"""Bijective codec between Arabic script and the internal transliteration.

The codec table lives in ``data/codec_table.tsv``; both directions are
pure character maps.  Unicode input is NFC-composed first, and the
canonical combining order vowel-before-shadda is rewritten to the
internal convention shadda-before-vowel, so ``to_internal`` is stable
across the orderings found in real text.
"""

import codecs
import os
import re
import unicodedata

from .alphabet import SHADDA, VOWELS, WELL_FORMED, well_formed
from .errors import MalformedInternal, UnknownCharacter


def load_codec_table():
    """Load the bundled codec table; returns (arabic->internal, internal->arabic)."""
    with open(os.path.join(os.path.dirname(__file__), "data", "codec_table.tsv"), encoding="utf-8") as fh:
        text = fh.read()
    a2i, i2a = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise MalformedInternal("codec table line %d: need 2+ columns" % lineno)
        cp, sym = fields[0], fields[1]
        arabic = chr(int(cp, 16))
        if arabic in a2i or sym in i2a:
            raise MalformedInternal("codec table line %d: mapping not bijective" % lineno)
        a2i[arabic] = sym
        i2a[sym] = arabic
    return a2i, i2a


_A2I, SCRIPT = load_codec_table()  # SCRIPT: internal symbol -> Arabic letter
_ARABIC = frozenset(_A2I)
_TO_INTERNAL = str.maketrans(_A2I)
# The script of each Latin-1 byte, for charmap_decode: \n and the internal symbols only.
_SCRIPT_BYTES = "".join(SCRIPT.get(chr(b), "\n" if b == 10 else "\ufffe") for b in range(256))
# NFC places a short vowel before shadda; internally the mark precedes its
# vowel (kat~aba, not kata~ba), and a vowel moves past a whole run of them.
_VOWEL_SHADDAS = re.compile("[%s]%s+" % ("".join(sorted(VOWELS)), re.escape(SHADDA)))


def _shaddas_first(match):
    run = match[0]
    return run[1:] + run[0]


def to_internal(text):
    """Convert Arabic script to the internal transliteration.

    Raises UnknownCharacter for any codepoint outside the codec table.
    """
    text = unicodedata.normalize("NFC", text)
    if not _ARABIC.issuperset(text):
        pos, ch = next((pos, ch) for pos, ch in enumerate(text) if ch not in _ARABIC)
        raise UnknownCharacter(ch, pos)
    out = text.translate(_TO_INTERNAL)
    if SHADDA in out:
        out = _VOWEL_SHADDAS.sub(_shaddas_first, out)
    return out


def check_internal(s):
    """Raise MalformedInternal unless ``s`` is a well-formed internal string."""
    if WELL_FORMED.fullmatch(s) is None:
        raise MalformedInternal(well_formed(s))


def to_script(s):
    """Convert an internal string back to Arabic script."""
    check_internal(s)
    return to_scripts((s,))[0]


def to_scripts(surfaces):
    """The scripts of ``surfaces`` (no line breaks), as a list: one Latin-1
    encode and one charmap_decode.  It checks each symbol, not the rest of
    well-formedness, and raises MalformedInternal for one outside the alphabet."""
    try:
        return codecs.charmap_decode("\n".join(surfaces).encode("latin-1"), "strict", _SCRIPT_BYTES)[0].split("\n")
    except UnicodeError:
        bad = next(ch for s in surfaces for ch in s if ch not in SCRIPT)
        raise MalformedInternal("symbol %r not in alphabet" % bad) from None
