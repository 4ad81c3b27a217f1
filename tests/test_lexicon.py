import pytest

from arabverb.errors import BadCode, NoEntries, UnknownClass
from arabverb.lexicon import _LABELS, CODEBOOK, load_lexicon, parse_code, parse_root, resolve_class
from arabverb.pipeline import generate_all
from arabverb.stems import merge
from conftest import SAMPLE_LEXICON


def test_parse_legacy_six_character_code():
    code = parse_code("04H000")
    assert str(code) == "04H0000"
    assert code[1] == "4"
    assert code[2] == "H"


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


# resolve_class keeps the class of each code, but nothing of a code that
# raises: it raises the same error again.
@pytest.mark.parametrize("code, error", [("11H0000", UnknownClass), ("00X0000", BadCode)])
def test_a_failing_code_raises_the_same_error_on_every_call(code, error):
    kept = resolve_class.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(error) as raised:
            resolve_class(code)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert resolve_class.cache_info().currsize == kept


def test_op_inventory_sizes():
    ops = {op for ops in CODEBOOK.values() for op in ops if op != ("ta",)}
    kinds = [op[0] for op in ops]
    assert kinds.count("prefix") + kinds.count("infix") == 7  # consonant insertions
    assert kinds.count("lengthen") + kinds.count("append") == 3  # vowel lengthenings
    assert kinds.count("dup") == 2  # duplications
    assert len(ops) == 12


def test_codebook_ops_within_inventory():
    for (pos, digit), ops in CODEBOOK.items():
        for op in ops:
            if op == ("ta",):
                assert pos == "4", (pos, digit)
                continue
            assert op[0] in ("prefix", "infix", "lengthen", "append", "dup"), op
            assert merge("ktb", (op,)) != "ktb", op  # merge knows the op and applies it


def test_every_class_lists_its_ops_in_application_order():
    rank = {"prefix": 0, "infix": 1, "lengthen": 1, "append": 2, "dup": 3}
    for d1, d2, d4, template in _LABELS:
        ops = resolve_class(parse_code(d1 + d2 + template + d4 + "000")).ops
        assert list(ops) == sorted(ops, key=lambda op: rank[op[0]]), (d1, d2, d4, template)


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


def test_empty_lemma_is_diagnosed(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("كَتَبَ\tktb\t00L0003\twrite\n"
                    "\tktb\t00L0003\n"
                    " \tdrs\t00L0003\tstudy\n", encoding="utf-8")
    report = load_lexicon(str(path))
    assert [e.lemma for e in report.entries] == ["kataba"]
    assert report.diagnostics == [(2, "empty lemma"), (3, "empty lemma")]


def test_same_lemma_different_codes_allowed(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "فَعَلَ\tfçl\t00L0003\tdo (a-u)\n"
        "فَعَلَ\tfçl\t00L0002\tdo (a-i)\n",
        encoding="utf-8",
    )
    report = load_lexicon(str(path))
    assert len(report.entries) == 2


# A leading byte-order mark (saved as "UTF-8 with BOM") is not part of
# line 1, whether that line is the comment header or an entry.
@pytest.mark.parametrize("header", [True, False], ids=["header", "no header"])
def test_leading_byte_order_mark_is_skipped(tmp_path, sample_entries, header):
    with open(SAMPLE_LEXICON, encoding="utf-8") as fh:
        lines = [line for line in fh if header or not line.startswith("#")]
    assert lines[0].startswith("#") == header
    path = tmp_path / "bom.tsv"
    path.write_text("".join(lines), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    report = load_lexicon(path.as_posix())
    assert report.entries == sample_entries and report.diagnostics == []


# generate_all(strict=True) checks that each lemma regenerates from its
# (root, code), under the rule set of the run.
def test_strict_mode_on_sample(sample_entries):
    _forms, stats = generate_all(sample_entries, strict=True)
    assert stats.lemma_count == 24
    assert not stats.failures


def test_strict_mode_rejects_wrong_lemma(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "كَتَبَ\tktb\t00L0003\tgood\n"
        "كَتَبَ\tktb\t00L0002\tlemma spells i-class the same, still fine\n"
        "قَتَبَ\tktb\t00L0303\twrong lemma for kabura-class\n",
        encoding="utf-8",
    )
    _forms, stats = generate_all(load_lexicon(str(path)).entries, strict=True)
    assert stats.lemma_count == 2
    assert [(f.entry, f.stage, str(f.cause)) for f in stats.failures] == [
        ("qataba", "BadLexicon", "lemma qataba does not regenerate (got katuba)")]


def test_strict_mode_diagnoses_entry_that_cannot_generate(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "كَتَبَ\tktb\t00L0003\tgood\n"
        "كَتَبَ\tktb\t00H0000\tQI on three radicals\n",
        encoding="utf-8",
    )
    _forms, stats = generate_all(load_lexicon(str(path)).entries, strict=True)
    assert stats.lemma_count == 1
    assert [f.stage for f in stats.failures] == ["OpOutOfRange"]
    assert "4-radical root" in str(stats.failures[0])


def test_gold_lexicon_strict(gold_entries):
    _forms, stats = generate_all(gold_entries, strict=True)
    assert stats.lemma_count == len(gold_entries)
    assert not stats.failures
