import pytest

from arabverb.errors import BadCode, NoEntries, UnknownClass
from arabverb.lexicon import (
    CONSONANT_INSERTIONS,
    DUPLICATIONS,
    LENGTHENINGS,
    OP_INVENTORY,
    load_codebook,
    load_lexicon,
    parse_code,
    parse_root,
    resolve_class,
)


def test_parse_legacy_six_character_code():
    code = parse_code("04H000")
    assert str(code) == "04H0000"
    assert code.d2 == "4"
    assert code.template == "H"


def test_parse_all_zero_code_is_default_pattern_one():
    cls = resolve_class(parse_code("00L000"))
    assert cls.label == "Iau"
    assert cls.ops == ()
    assert cls.p_vowels == ("a", "a")
    assert cls.i_vowels == ("a", "u")


def test_bad_codes():
    with pytest.raises(BadCode):
        parse_code("04H00")  # too short
    with pytest.raises(BadCode):
        parse_code("04X0000")  # template letter
    with pytest.raises(BadCode):
        parse_code("09H0000")  # digit out of range
    with pytest.raises(BadCode):
        parse_code("00L0005")  # vowel digit out of range


def test_parse_format_identity():
    for text in ("04H0000", "00L0003", "10H0000", "02H2000"):
        assert str(parse_code(text)) == text


def test_resolve_pattern_ten():
    cls = resolve_class(parse_code("04H0000"))
    assert cls.label == "X"
    assert cls.ops == (("prefix", "st"),)
    assert cls.template_type == "H"
    assert not cls.ta_prefix
    assert cls.p_vowels == ("a", "a")
    assert cls.i_vowels == ("a", "i")


def test_resolve_pattern_two_and_five():
    two = resolve_class(parse_code("00H1000"))
    assert two.label == "II"
    assert two.ops == (("dup", 2),)
    assert two.i_vowels == ("u", "i")
    five = resolve_class(parse_code("00H4000"))
    assert five.label == "V"
    assert five.ta_prefix
    assert five.i_vowels == ("a", "a")


def test_alternate_st_prefix_digit_also_maps_to_ten():
    assert resolve_class(parse_code("30H0000")).label == "X"


def test_unknown_class():
    with pytest.raises(UnknownClass):
        resolve_class(parse_code("11H0000"))


def test_op_inventory_sizes():
    assert len(CONSONANT_INSERTIONS) == 7
    assert len(LENGTHENINGS) == 3
    assert len(DUPLICATIONS) == 2
    assert len(OP_INVENTORY) == 12


def test_codebook_ops_within_inventory():
    table = load_codebook()
    for ops in table.values():
        for op in ops:
            assert op == ("ta",) or op in OP_INVENTORY


def test_every_class_draws_from_inventory(sample_entries):
    for entry in sample_entries:
        cls = resolve_class(entry.code)
        for op in cls.ops:
            assert op in OP_INVENTORY


def test_parse_root():
    assert parse_root("fçl") == "fçl"
    assert parse_root("trjm") == "trjm"
    with pytest.raises(Exception):
        parse_root("fç")
    with pytest.raises(Exception):
        parse_root("fal")  # vowel is not a radical


def test_load_sample_lexicon(sample_entries):
    assert len(sample_entries) == 24
    assert not any(e.gloss == "" for e in sample_entries)


def test_load_single_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("اِسْتَمَرَّ\tmrr\t04H000\tto continue\n", encoding="utf-8")
    report = load_lexicon(str(path))
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.root == "mrr"
    assert str(entry.code) == "04H0000"
    assert entry.lemma == "Ais·tamar~a"


def test_empty_file_raises(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(NoEntries):
        load_lexicon(str(path))


def test_duplicate_and_bad_lines_are_diagnosed(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "كَتَبَ\tktb\t00L0003\twrite\n"
        "كَتَبَ\tktb\t00L0003\twrite again\n"
        "قَالَ\tqwl\t00Z0003\tbroken code\n"
        "badline\n",
        encoding="utf-8",
    )
    report = load_lexicon(str(path))
    assert len(report.entries) == 1
    assert len(report.diagnostics) == 3


def test_same_lemma_different_codes_allowed(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "فَعَلَ\tfçl\t00L0003\tdo (a-u)\n"
        "فَعَلَ\tfçl\t00L0002\tdo (a-i)\n",
        encoding="utf-8",
    )
    report = load_lexicon(str(path))
    assert len(report.entries) == 2


def test_strict_mode_on_sample():
    from conftest import SAMPLE_LEXICON

    report = load_lexicon(SAMPLE_LEXICON, strict=True)
    assert len(report.entries) == 24
    assert not report.diagnostics


def test_strict_mode_rejects_wrong_lemma(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "كَتَبَ\tktb\t00L0003\tgood\n"
        "كَتَبَ\tktb\t00L0002\tlemma spells i-class the same, still fine\n"
        "قَتَبَ\tktb\t00L0303\twrong lemma for kabura-class\n",
        encoding="utf-8",
    )
    report = load_lexicon(str(path), strict=True)
    assert len(report.entries) == 2
    assert len(report.diagnostics) == 1


def test_strict_mode_diagnoses_entry_that_cannot_generate(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "كَتَبَ\tktb\t00L0003\tgood\n"
        "كَتَبَ\tktb\t00H0000\tQI on three radicals\n",
        encoding="utf-8",
    )
    report = load_lexicon(str(path), strict=True)
    assert len(report.entries) == 1
    assert [line for line, _message in report.diagnostics] == [2]
    assert "4-radical root" in report.diagnostics[0][1]


def test_gold_lexicon_strict(gold_entries):
    from conftest import GOLD_LEXICON

    report = load_lexicon(GOLD_LEXICON, strict=True)
    assert len(report.entries) == len(gold_entries)
