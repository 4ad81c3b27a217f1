import random
import re

import pytest

from arabverb.alphabet import ALPHABET, well_formed
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
