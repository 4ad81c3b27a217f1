import pytest

from arabverb.errors import IllegalCell
from arabverb.inflect import CELLS, Cell, inflect, paradigm
from arabverb.lexicon import LexiconEntry, parse_code
from arabverb.rules import apply_cascade
from arabverb.stems import build_stems

FACALA = build_stems(LexiconEntry(lemma="", root="fçl", code=parse_code("00L0003")))


def test_underlying_perfective():
    assert inflect(FACALA, Cell("1SN", "PERF", "ACT")) == "façal·tu"
    assert inflect(FACALA, Cell("3SM", "PERF", "ACT")) == "façala"
    assert inflect(FACALA, Cell("2PF", "PERF", "ACT")) == "façal·tun~a"


def test_underlying_imperfective_uses_stem_vowel_as_prefix_vowel():
    assert inflect(FACALA, Cell("2SF", "IMPF-IND", "ACT")) == "tafçuliyna"
    assert inflect(FACALA, Cell("3SM", "IMPF-JUS", "ACT")) == "yafçul·"
    # surfaces as the chart form once the cascade runs
    assert apply_cascade(inflect(FACALA, Cell("2SF", "IMPF-IND", "ACT"))) == "taf·çuliyna"


def test_underlying_imperative_gets_prosthesis_later():
    underlying = inflect(FACALA, Cell("2SM", "IMPV", "ACT"))
    assert underlying == "fçul·"
    assert apply_cascade(underlying) == "Auf·çul·"


def test_passive_cells():
    assert inflect(FACALA, Cell("3SM", "PERF", "PAS")) == "fuçila"
    assert inflect(FACALA, Cell("3SM", "IMPF-IND", "PAS")) == "yufçalu"


def test_illegal_cells():
    with pytest.raises(IllegalCell):
        Cell("3SM", "IMPV", "ACT")
    with pytest.raises(IllegalCell):
        Cell("2SM", "IMPV", "PAS")
    with pytest.raises(IllegalCell):
        Cell("4SM", "PERF", "ACT")
    with pytest.raises(IllegalCell):
        Cell("3SM", "AORIST", "ACT")


def test_cell_inventory():
    assert len(CELLS) == 109
    assert CELLS[0] == Cell("3SM", "PERF", "ACT")  # the lemma cell that strict generation checks
    impv = [c for c in CELLS if c.paradigm == "IMPV"]
    assert len(impv) == 5
    assert all(c.voice == "ACT" and c.tag.startswith("2") for c in impv)
    # 13 tags x 4 paradigms x 2 voices + 5 imperatives
    assert 13 * 4 * 2 + 5 == 109


def test_paradigm_count_and_order():
    forms = paradigm(FACALA)
    assert len(forms) == 109
    assert [c for c, _ in forms] == list(CELLS)
    # deterministic: voices block-ordered, actives first
    assert forms[0][0] == Cell("3SM", "PERF", "ACT")
    assert forms[52][0] == Cell("3SM", "PERF", "PAS")
    assert forms[-1][0] == Cell("2PF", "IMPV", "ACT")


def test_bulk_law_on_sample(sample_forms, sample_entries):
    assert len(sample_forms) == 109 * len(sample_entries) == 2616
