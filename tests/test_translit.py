import random
import re
import unicodedata

import pytest

from arabverb.alphabet import ALPHABET, SHADDA, VOWELS, well_formed
from arabverb.errors import MalformedInternal, UnknownCharacter
from arabverb.translit import SCRIPT, load_codec_table, to_internal, to_script, to_scripts


def test_kataba():
    assert to_internal("كَتَبَ") == "kataba"
    assert to_script("kataba") == "كَتَبَ"


def test_faala_pattern_citation():
    assert to_script("façala") == "فَعَلَ"
    assert to_internal("فَعَلَ") == "façala"


def test_full_pointing_with_sukun_and_silent_alif():
    assert to_internal("اِسْتَقْبَلُوا") == "Ais·taq·baluwA"
    # the same word with fewer marks still converts character for character
    assert to_internal("استَقْبَلُوا") == "Astaq·baluwA"


def test_qiyla():
    # hand-applied codec: qaf kasra ya lam fatha
    assert to_script("qiyla") == "قِيلَ"
    assert to_internal("قِيلَ") == "qiyla"


def test_empty():
    assert to_internal("") == ""
    assert to_script("") == ""


def test_unknown_character_position():
    with pytest.raises(UnknownCharacter) as err:
        to_internal("كتب♣")
    assert err.value.position == 3


def test_rejection_is_total():
    with pytest.raises(UnknownCharacter):
        to_internal("abc")  # latin letters are not Arabic script


def test_malformed_internal():
    with pytest.raises(MalformedInternal):
        to_script("k@b")
    with pytest.raises(MalformedInternal):
        to_script("~ab")  # gemination mark may not open a word
    with pytest.raises(MalformedInternal):
        to_script("kaaba")  # vowel after vowel


def test_shadda_vowel_orderings_normalize():
    shadda_first = "فَع" + "ّ" + "َ" + "لَ"
    vowel_first = "فَع" + "َ" + "ّ" + "لَ"
    assert to_internal(shadda_first) == to_internal(vowel_first) == "faç~ala"


def test_round_trip_generated_forms(sample_forms):
    for f in sample_forms:
        assert to_internal(to_script(f.surface)) == f.surface


def test_round_trip_stability():
    for text in ("كَتَبَ", "اِسْتَمَرَّ", "قِيلَ", "يَرْمِي"):
        once = to_internal(text)
        assert to_internal(to_script(once)) == once


def test_codec_table_bijective():
    a2i, i2a = load_codec_table()
    assert len(a2i) == len(i2a)
    assert set(a2i.values()) == set(i2a.keys())


def test_to_script_agrees_with_well_formed():
    """On seeded strings over the alphabet plus one foreign symbol, often
    opened by a mark and often holding vowel pairs, to_script raises with
    well_formed's reason or maps symbol by symbol."""
    rng = random.Random(3)
    symbols = sorted(ALPHABET) + ["@"]
    weights = [6 if ch in "aiu~·" else 1 for ch in symbols]
    strings = [""] + ["".join(rng.choices(symbols, weights, k=rng.randint(1, 8)))
                      for _ in range(5000)]
    reasons = set()
    for s in strings:
        reason = well_formed(s)
        if reason is None:
            assert to_script(s) == "".join(SCRIPT[ch] for ch in s)
        else:
            with pytest.raises(MalformedInternal) as err:
                to_script(s)
            assert str(err.value) == reason
            reasons.add(reason)
    assert "symbol '@' not in alphabet" in reasons
    assert {"'~' may not open a word", "'·' may not open a word"} <= reasons
    assert any(reason.startswith("vowel cluster") for reason in reasons)
    assert sum(well_formed(s) is None for s in strings) > 1000


def test_to_scripts_maps_each_surface(sample_forms):
    surfaces = [f.surface for f in sample_forms[:500]] + [""]
    assert to_scripts(surfaces) == [to_script(s) for s in surfaces]


@pytest.mark.parametrize("symbol", ["é", "@", "\u0628", "\r"])
def test_to_scripts_rejects_a_symbol_outside_the_alphabet(symbol):
    with pytest.raises(MalformedInternal, match="^symbol %s not in alphabet$" % re.escape(repr(symbol))):
        to_scripts(["kataba", "ka" + symbol + "ba", "kutiba"])


# to_internal maps with one str.translate and reorders vowel-before-shadda
# with one regular expression.  The reference below is the per-character
# conversion it replaced: every answer and every rejection must be the same.

_A2I = load_codec_table()[0]


def reference_to_internal(text):
    text = unicodedata.normalize("NFC", text)
    out = []
    for pos, ch in enumerate(text):
        sym = _A2I.get(ch)
        if sym is None:
            raise UnknownCharacter(ch, pos)
        out.append(sym)
    for i in range(len(out) - 1):
        if out[i] in VOWELS and out[i + 1] == SHADDA:
            out[i], out[i + 1] = out[i + 1], out[i]
    return "".join(out)


def outcome(convert, text):
    """The result, or the class, character and position of the rejection."""
    try:
        return convert(text)
    except UnknownCharacter as exc:
        return type(exc), exc.char, exc.position


FATHA, DAMMA, KASRA, SHADDA_MARK, SUKUN_MARK = "\u064e", "\u064f", "\u0650", "\u0651", "\u0652"
# Pieces of the random texts: the codec's letters, the harakat on either side
# of a shadda, shadda runs, pairs that NFC composes into one codec letter,
# and characters the codec table lacks (a bare combining hamza among them).
PIECES = (sorted(_A2I) * 3
          + [h + SHADDA_MARK for h in (FATHA, DAMMA, KASRA)] * 4
          + [SHADDA_MARK + h for h in (FATHA, DAMMA, KASRA)] * 4
          + [SHADDA_MARK * 2, SHADDA_MARK * 3, FATHA + SHADDA_MARK * 2, SHADDA_MARK + FATHA + SHADDA_MARK]
          + ["\u0627\u0654", "\u0627\u0655", "\u0627\u0653", "\u0648\u0654", "\u064a\u0654",
             "\u0627" + FATHA + "\u0654"]
          + ["a", "~", "\u0654", "\u0640", " ", "\n", "\u00e9", "\u2663", "\U0001f600", "\ufffe"])


@pytest.mark.parametrize("seed", range(4))
def test_to_internal_equals_the_per_character_reference(seed):
    rng = random.Random(seed)
    texts = [""] + list(PIECES) + ["".join(rng.choices(PIECES, k=rng.randrange(1, 10))) for _ in range(2000)]
    outcomes = [outcome(reference_to_internal, text) for text in texts]
    for text, expected in zip(texts, outcomes):
        assert outcome(to_internal, text) == expected, text
    # the draw reaches every branch: clean texts with and without a shadda,
    # vowel-shadda runs, and rejections at the start and further in
    converted = [o for o in outcomes if isinstance(o, str)]
    assert any(SHADDA not in o for o in converted) and any("~~" in o for o in converted)
    rejected = [o for o in outcomes if isinstance(o, tuple)]
    assert {o[2] == 0 for o in rejected} == {True, False}


def test_a_vowel_moves_past_a_whole_shadda_run():
    kaf = "\u0643"
    assert to_internal(kaf + FATHA + SHADDA_MARK * 2) == "k~~a"
    assert to_internal(kaf + SHADDA_MARK + FATHA + SHADDA_MARK) == "k~~a"
    assert to_internal(kaf + FATHA + SHADDA_MARK + kaf + DAMMA + SHADDA_MARK) == "k~ak~u"
