import os
import random

import pytest

from arabverb import pipeline
from arabverb.alphabet import ALPHABET
from arabverb.errors import BadRuleFile, StageOrderError
from arabverb.inflect import CELLS, inflect
from arabverb.rules import RuleSet, apply_cascade, default_rules, load_rules, make_rule
from arabverb.stems import build_stems
from conftest import DATA


def _apply_one(rule, form, hits=None):
    """Apply one rule once: all non-overlapping matches, left to right."""
    return RuleSet((rule,)).apply(form, hits)


def test_shipped_counts():
    rs = default_rules()
    assert len(rs) == 63
    assert rs.count("phono") == 33
    assert rs.count("ortho") == 30


def test_passive_harmony_rule_quwila():
    rule = make_rule("x", "phono", "uwi", "iy", "", "Ca")
    assert _apply_one(rule, "quwila") == "qiyla"
    assert _apply_one(rule, "kataba") == "kataba"


def test_apply_rule_is_one_pass_left_to_right():
    rule = make_rule("x", "ortho", "K", "1·", "", "K")
    assert _apply_one(rule, "yaktubu") == "yak·tubu"
    assert _apply_one(rule, "yastafçilu") == "yas·taf·çilu"


def test_deletion_rule_rewrites_adjacent_sites():
    rule = make_rule("x", "phono", "a", "")
    hits = {}
    assert _apply_one(rule, "baab", hits) == "bb"
    assert hits == {"x": 2}
    between = make_rule("y", "phono", "a", "", "C", "C")
    assert _apply_one(between, "kataba") == "ktba"


def test_anchored_deletion_rule_fires_once():
    # The word boundary is that of the form before the rule: deleting the
    # first symbol does not make the next one initial.
    rule = make_rule("x", "phono", "C", "", "#")
    hits = {}
    assert _apply_one(rule, "ktub", hits) == "tub"
    assert hits == {"x": 1}
    assert _reference_apply(RuleSet((rule,)), "ktub") == ("tub", {"x": 1})


def test_cascade_examples():
    assert apply_cascade("qawala") == "qaAla"
    assert apply_cascade("ramaya") == "ramaY"
    assert apply_cascade("fçul·") == "Auf·çul·"
    assert apply_cascade("nfaçala") == "Ain·façala"
    assert apply_cascade("stamrara") == "Ais·tamar~a"


def test_cascade_empty_ruleset_is_identity():
    empty = RuleSet([])
    assert empty.apply("qawala") == "qawala"


def test_stage_order_enforced(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(
        "o1\tortho\tuw·\tuw\t\t\tx\n"
        "p1\tphono\tuwi\tiy\t\tCa\tx\n",
        encoding="utf-8",
    )
    with pytest.raises(StageOrderError):
        load_rules(str(path))


def test_duplicate_rule_id_rejected(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(
        "p1\tphono\tuwi\tiy\t\tCa\tx\n"
        "p1\tphono\tuyi\tiy\t\tCa\tx\n",
        encoding="utf-8",
    )
    with pytest.raises(BadRuleFile):
        load_rules(str(path))


def test_bad_rule_line_diagnosed(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("p1\tphono\tuwi\n", encoding="utf-8")
    with pytest.raises(BadRuleFile) as err:
        load_rules(str(path))
    assert "line 1" in str(err.value)


def test_rule_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "rules.tsv"
    with open(os.path.join(DATA, "surface_rules.tsv"), encoding="utf-8") as fh:
        path.write_text(fh.read(), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_rules(path.as_posix()).rules == default_rules().rules


@pytest.mark.parametrize("pattern, replacement", [
    ("K", "2a"),  # one capture, digit 2
    ("K", "0"),  # captures count from 1
    ("aK", "1a2"),
    ("a", "1"),  # no capture at all
    ("C1", "13"),
])
def test_replacement_digit_must_name_a_capture(pattern, replacement):
    with pytest.raises(BadRuleFile) as err:
        make_rule("x9", "phono", pattern, replacement)
    assert "rule x9" in str(err.value)


@pytest.mark.parametrize("pattern", ["1C", "C2", "C0"])
def test_pattern_digit_must_name_an_earlier_capture(pattern):
    with pytest.raises(BadRuleFile) as err:
        make_rule("x9", "phono", pattern, "1")
    assert "rule x9" in str(err.value)


# Both cascade paths put a line break before the text and a leading # of a
# left context matches it, so a # elsewhere in a context could join two
# forms of a batch; an empty pattern would match before that line break.
@pytest.mark.parametrize("left, right", [("C#", ""), ("##", ""), ("#C#", ""), ("", "#C"), ("", "C#C"), ("", "##")])
def test_make_rule_rejects_a_misplaced_boundary(left, right):
    with pytest.raises(BadRuleFile, match="^rule x9: # may only open a left context or close a right one$"):
        make_rule("x9", "phono", "a", "", left, right)


def test_make_rule_accepts_the_boundary_at_the_edges():
    rule = make_rule("x9", "phono", "a", "", "#C", "C#")
    assert RuleSet((rule,)).apply_many(["kab", "kabk", "ak", "bak"]) == (
        ["kb", "kabk", "ak", "bk"], [{"x9": 1}, {}, {}, {"x9": 1}])
    assert rule.rx.pattern.startswith("(\n")  # a literal the regex engine scans for


def test_make_rule_rejects_an_empty_pattern():
    with pytest.raises(BadRuleFile, match="^rule x9: empty pattern$"):
        make_rule("x9", "phono", "", "a", "", "#")


def test_bad_replacement_digit_in_rule_file(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(
        "# comment\n"
        "p1\tphono\tuwi\tiy\t\tCa\tx\n"
        "p2\tphono\tK\t2a\t\t\tx\n",
        encoding="utf-8",
    )
    with pytest.raises(BadRuleFile) as err:
        load_rules(str(path))
    assert "line 3" in str(err.value) and "rule p2" in str(err.value)


def _rule(rule_id):
    for rule in default_rules().rules:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


# Orthographic conventions that the shipped lexicons never reach are
# exercised directly.
@pytest.mark.parametrize("rule_id,given,expected", [
    ("o06", "fiAl", "fiyl"),
    ("o14", "jadwala", "jad·wala"),
    ("o19", "ÁiÁmaAn", "ÁiymaAn"),
    ("o21", "laÁ~uma", "laÚ~uma"),
    ("o29", "yaXaAÁu", "yaXaAÂu"),
    ("o30", "Áin·", "Íin·"),
])
def test_rare_orthographic_rules(rule_id, given, expected):
    assert _apply_one(_rule(rule_id), given) == expected


def test_every_rule_exercised(sample_entries, gold_entries, ruleset):
    _forms, stats = pipeline.generate_all(list(sample_entries) + list(gold_entries), ruleset)
    assert not stats.failures
    fired = set(stats.rule_hits)
    unit_fixture_rules = {"o06", "o14", "o19", "o21", "o29", "o30"}
    expected_idle = unit_fixture_rules
    all_ids = {rule.id for rule in ruleset.rules}
    assert all_ids - fired == expected_idle


def test_cascade_deterministic(sample_entries, ruleset):
    forms1, stats1 = pipeline.generate_all(sample_entries[:1], ruleset)
    forms2, stats2 = pipeline.generate_all(sample_entries[:1], ruleset)
    assert len(forms1) == 109 and (forms1, stats1.rule_hits) == (forms2, stats2.rule_hits)


def test_fixed_point_on_generated(sample_forms, ruleset):
    for f in sample_forms:
        assert ruleset.apply(f.surface) == f.surface


def test_stage_separation():
    # orthographic symbols (hamza seats, madda) never occur in
    # phonological patterns or outputs
    seats = set("ÍÚÉÂÃ")
    for rule in default_rules().rules:
        if rule.stage == "phono":
            assert not (set(rule.pattern) & seats)
            assert not (set(rule.replacement) & seats)


def _reference_apply(ruleset, form):
    """(surface, rule hits) of ``form``: every rule in order, each scanning
    the whole form for its non-overlapping matches, with no firing guard.
    The form follows a line break, which a leading # of a left context
    matches."""
    form = "\n" + form
    hits = {}
    for rule in ruleset.rules:
        out, pos = [], 0
        for m in rule.rx.finditer(form):
            shift = 1 if rule.left_ctx else 0  # group 1 is the left context, if any
            start = m.end(1) if shift else m.start()
            rep = "".join(m.group(int(ch) + shift) if ch.isdigit() else ch for ch in rule.replacement)
            out += [form[pos:start], rep]
            pos = m.end()
            hits[rule.id] = hits.get(rule.id, 0) + 1
        form = "".join(out) + form[pos:]
    return form[1:], hits


@pytest.fixture(scope="module")
def underlying_forms(sample_entries, gold_entries):
    """Every underlying form that the sample and gold entries feed the cascade."""
    forms = {}
    for entry in list(sample_entries) + list(gold_entries):
        stems = build_stems(entry)
        forms.update((inflect(stems, cell), None) for cell in CELLS)
    return list(forms)


def _assert_cascade_equals_reference(ruleset, forms):
    fired = {}
    for form in forms:
        hits = {}
        assert (ruleset.apply(form, hits), hits) == _reference_apply(ruleset, form), form
        for rule_id, n in hits.items():
            fired[rule_id] = max(fired.get(rule_id, 0), n)
    return fired


def test_cascade_equals_reference(ruleset, underlying_forms):
    fired = _assert_cascade_equals_reference(ruleset, underlying_forms)
    assert len(underlying_forms) > 4000
    assert len(fired) == 57
    assert max(fired.values()) > 1  # a rule rewrote two sites of one form


# Strings over every internal symbol, those that no underlying form holds
# (Y, Ã and the reseated hamza letters) included: half drawn at random,
# half underlying forms with one to three symbols replaced at random.
def _random_strings(seed, forms, n=3000):
    rng = random.Random(seed)
    symbols = sorted(ALPHABET)
    weights = [4 if ch in "aiu" else 1 for ch in symbols]
    strings = ["".join(rng.choices(symbols, weights, k=rng.randint(1, 12))) for _ in range(n)]
    for form in rng.sample(forms, n):
        form = list(form)
        for _ in range(rng.randint(1, 3)):
            form[rng.randrange(len(form))] = rng.choice(symbols)
        strings.append("".join(form))
    return strings


def test_cascade_equals_reference_on_random_strings(ruleset, underlying_forms):
    fired = _assert_cascade_equals_reference(ruleset, _random_strings(7, underlying_forms))
    assert len(fired) >= 60


CUSTOM_RULES = (
    make_rule("d7", "phono", "a", "i", "", "t"),  # its one consonant, t, only in a context
    make_rule("d1", "phono", "a", "", "C", "C"),  # deletion at adjacent sites
    make_rule("d2", "phono", "C1", "1~"),  # back-reference in the pattern
    make_rule("d3", "phono", "VG", "21", "", "C"),  # captures swapped
    make_rule("d4", "phono", "K", "1·", "", "K"),  # chains of sites
    make_rule("d8", "phono", "C", "1·", "", "Q"),  # the hamza class only in a context
    make_rule("d9", "phono", "Áa", "Ã"),  # writes Ã, which no underlying form holds
    make_rule("d5", "ortho", "..", "21", "#"),  # anchored at the start
    make_rule("d6", "ortho", "V", "", "", "#"),  # deletion at the end
    make_rule("d10", "ortho", "Ã", "Â"),  # on underlying forms, fires only where d9 wrote Ã
    make_rule("d11", "ortho", "~a", "a"),  # a pattern of shadda and a vowel only
)


def test_cascade_equals_reference_under_a_custom_rule_set(underlying_forms):
    custom = RuleSet(CUSTOM_RULES)
    fired = _assert_cascade_equals_reference(custom, underlying_forms)
    assert set(fired) == {rule.id for rule in CUSTOM_RULES}
    assert fired["d1"] > 1 and fired["d4"] > 1
    assert not any("Ã" in form for form in underlying_forms)
    fired = _assert_cascade_equals_reference(custom, _random_strings(8, underlying_forms))
    assert set(fired) == {rule.id for rule in CUSTOM_RULES}


# The cascade memo of generate_all rests on this: the cascade commutes with
# any permutation of the free consonants, rule hits included.

BUNDLED_FREE = "DHSTXZbdfghjklmqrsxzçðþ"


def _count_broken(ruleset, forms, seed, moved=""):
    """How many seeded strings break apply(p(s)) == p(apply(s)) with equal
    hits, for a random permutation p of ``ruleset.free`` plus ``moved``."""
    rng = random.Random(seed)
    letters = sorted(ruleset.free | set(moved))
    broken = 0
    for form in _random_strings(seed, forms, n=1000):
        images = letters[:]
        rng.shuffle(images)
        perm = str.maketrans(dict(zip(letters, images)))
        hits, renamed_hits = {}, {}
        surface = ruleset.apply(form, hits)
        renamed = ruleset.apply(form.translate(perm), renamed_hits)
        broken += (renamed, renamed_hits) != (surface.translate(perm), hits)
    return broken


def test_free_consonants_of_the_bundled_rules(ruleset):
    assert "".join(sorted(ruleset.free)) == BUNDLED_FREE
    named = set()
    for rule in ruleset.rules:
        named.update(rule.pattern + rule.replacement + rule.left_ctx + rule.right_ctx)
    assert not named & ruleset.free
    assert RuleSet([]).free == ruleset.free | {"t"}  # n stays out: M leaves it out


def test_cascade_commutes_with_permuting_the_free_consonants(ruleset, underlying_forms):
    assert _count_broken(ruleset, underlying_forms, 3) == 0
    # Not vacuous: moving t, which rules name, breaks the law.
    assert _count_broken(ruleset, underlying_forms, 4, moved="t") > 0


def test_a_named_consonant_leaves_the_free_set(ruleset, underlying_forms):
    custom = RuleSet((make_rule("b1", "phono", "ba", "m", "", "C"),) + ruleset.rules)
    assert custom.free == ruleset.free - {"b", "m"}
    hits = {}
    custom.apply("baka", hits)
    assert hits["b1"] == 1
    assert _count_broken(custom, underlying_forms, 5) == 0
    assert _count_broken(custom, underlying_forms, 6, moved="b") > 0


def test_cascade_commutes_under_a_custom_rule_set(underlying_forms):
    custom = RuleSet(CUSTOM_RULES)
    assert custom.free == RuleSet([]).free - {"t"}  # d7 names t
    assert _count_broken(custom, underlying_forms, 9) == 0


# RuleSet.apply_many runs each rule once over the forms joined by line
# breaks; it must equal apply on each form, surfaces and rule hits alike.

def _assert_batch_equals_apply(ruleset, forms):
    """apply_many(forms) equals apply on each form; returns the ids of the
    rules that fired."""
    expected_surfaces, expected_hits = [], []
    for form in forms:
        hits = {}
        expected_surfaces.append(ruleset.apply(form, hits))
        expected_hits.append(hits)
    surfaces, hits = ruleset.apply_many(forms)
    assert surfaces == expected_surfaces
    assert hits == expected_hits
    return {rule_id for own in hits for rule_id in own}


# Strings on which each #-anchored rule matches at the start or the end of
# its form, each next to strings where it does not: in the batch its match
# sits at a line break.
ANCHORED = {
    "p01": "Ákul", "p02": "yuÁkrimu", "p21": "ktub", "p22": "nfaçala", "p25": "ramaya",
    "p26": "daçawa", "p27": "yarmiyu", "p28": "yadçuwu", "p29": "yarmiy·", "o30": "Áik·ram",
}


def test_batch_equals_apply_on_underlying_forms(ruleset, underlying_forms):
    assert len(_assert_batch_equals_apply(ruleset, underlying_forms)) == 57
    # Each form alone, and in batches of every size from 2 to 5.
    for size in range(1, 6):
        for start in range(0, 300, size):
            _assert_batch_equals_apply(ruleset, underlying_forms[start:start + size])


def test_batch_equals_apply_at_line_edges(ruleset, underlying_forms):
    edges = []
    for rule_id, form in ANCHORED.items():
        assert rule_id in _assert_batch_equals_apply(ruleset, [form])
        edges += ["k", form, "", form, "Á", "a" + form, form + "k"]
    fired = _assert_batch_equals_apply(ruleset, edges)
    assert set(ANCHORED) <= fired
    rng = random.Random(12)
    for _ in range(20):
        rng.shuffle(edges)
        _assert_batch_equals_apply(ruleset, edges)


def test_batch_equals_apply_on_random_strings(ruleset, underlying_forms):
    # Empty and one-symbol strings, then seeded strings over the alphabet.
    strings = ["", *sorted(ALPHABET), ""] + _random_strings(13, underlying_forms)
    fired = _assert_batch_equals_apply(ruleset, strings)
    assert len(fired) >= 60
    assert ruleset.apply_many([]) == ([], [])


def test_batch_equals_apply_on_adjacent_sites(ruleset):
    # Chains of o12 sites (a consonant before a consonant) and o08/o09
    # doubling, alone and in runs that cross the line breaks of the batch.
    strings = ["ktbqlm"[:n] for n in range(1, 7)] + ["k" * n for n in range(1, 8)]
    strings += ["tbtbtb", "yaktbtbu", "madda", "mad·da", "ddd·ddd"]
    for rule_id in ("o12", "o08", "o09"):
        assert rule_id in _assert_batch_equals_apply(ruleset, strings)
    surfaces, hits = ruleset.apply_many(strings)
    assert (surfaces[5], hits[5]["o12"]) == ("Aik·t·b·q·l·m", 5)  # every site of the chain
    assert (surfaces[11], hits[11]["o08"]) == ("Aik~k~k~", 3)  # kk kk kk: non-overlapping sites


def test_batch_equals_apply_under_custom_rule_sets(ruleset, underlying_forms):
    strings = underlying_forms + _random_strings(14, underlying_forms, n=1000)
    custom = RuleSet(CUSTOM_RULES)
    assert _assert_batch_equals_apply(custom, strings) == {rule.id for rule in CUSTOM_RULES}
    # A rule anchored on a free consonant, one on m, a deletion anchored
    # on the word boundary alone, and one that writes a symbol beyond
    # Latin-1.
    named = RuleSet((make_rule("b01", "phono", "b", "f", left="#"),
                     make_rule("m01", "phono", "ma", "mu", left="#"),
                     make_rule("x01", "phono", "C", "", left="#"))
                    + ruleset.rules + (make_rule("k01", "ortho", "k", "\u0643"),))
    extra = ["bak", "maktab", "ktub", "", "k", "ktub"]
    assert {"b01", "m01", "x01", "k01"} <= _assert_batch_equals_apply(named, strings + extra)
    assert _assert_batch_equals_apply(RuleSet(named.rules[2:3]), ["ktub", "ktub"]) == {"x01"}
    assert RuleSet(named.rules[2:3]).apply_many(["ktub", "k", "ktub"]) == (["tub", "", "tub"], [{"x01": 1}] * 3)


def test_batch_rejects_a_line_break_in_a_form(ruleset):
    with pytest.raises(ValueError):
        ruleset.apply_many(["ka", "k\nb"])
    with pytest.raises(BadRuleFile):
        make_rule("n01", "phono", "a", "\n")
