import pytest

from arabverb import pipeline
from arabverb.errors import BadRuleFile, StageOrderError
from arabverb.inflect import CELLS, inflect
from arabverb.rules import RuleSet, apply_cascade, apply_rule, default_rules, load_rules, make_rule
from arabverb.stems import build_stems


def test_shipped_counts():
    rs = default_rules()
    assert len(rs) == 63
    assert rs.count("phono") == 33
    assert rs.count("ortho") == 30


def test_passive_harmony_rule_quwila():
    rule = make_rule("x", "phono", "uwi", "iy", "", "Ca")
    assert apply_rule(rule, "quwila") == "qiyla"
    assert apply_rule(rule, "kataba") == "kataba"


def test_apply_rule_is_one_pass_left_to_right():
    rule = make_rule("x", "ortho", "K", "1·", "", "K")
    assert apply_rule(rule, "yaktubu") == "yak·tubu"
    assert apply_rule(rule, "yastafçilu") == "yas·taf·çilu"


def test_deletion_rule_rewrites_adjacent_sites():
    rule = make_rule("x", "phono", "a", "")
    hits = {}
    assert apply_rule(rule, "baab", hits) == "bb"
    assert hits == {"x": 2}
    between = make_rule("y", "phono", "a", "", "C", "C")
    assert apply_rule(between, "kataba") == "ktba"


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
    assert apply_rule(_rule(rule_id), given) == expected


def test_every_rule_exercised(sample_entries, gold_entries, ruleset):
    hits = {}
    for entry in list(sample_entries) + list(gold_entries):
        pipeline.generate_entry(entry, ruleset, hits)
    fired = set(hits)
    unit_fixture_rules = {"o06", "o14", "o19", "o21", "o29", "o30"}
    expected_idle = unit_fixture_rules
    all_ids = {rule.id for rule in ruleset.rules}
    assert all_ids - fired == expected_idle


def test_cascade_deterministic(sample_entries, ruleset):
    forms1 = [f.surface for f in pipeline.generate_entry(sample_entries[0], ruleset)]
    forms2 = [f.surface for f in pipeline.generate_entry(sample_entries[0], ruleset)]
    assert forms1 == forms2


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
    the whole form for its non-overlapping matches, with no firing guard."""
    hits = {}
    for rule in ruleset.rules:
        pos = 0
        while pos <= len(form):
            m = rule._rx.search(form, pos)
            if m is None:
                break
            start, end = m.span(1)
            rep = "".join(m.group(int(ch) + 1) if ch.isdigit() else ch for ch in rule.replacement)
            form = form[:start] + rep + form[end:]
            hits[rule.id] = hits.get(rule.id, 0) + 1
            pos = start + len(rep)
    return form, hits


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


def test_cascade_equals_reference_under_a_custom_rule_set(underlying_forms):
    custom = RuleSet([
        make_rule("d1", "phono", "a", "", "C", "C"),  # deletion at adjacent sites
        make_rule("d2", "phono", "C1", "1~"),  # back-reference in the pattern
        make_rule("d3", "phono", "VG", "21", "", "C"),  # captures swapped
        make_rule("d4", "phono", "K", "1·", "", "K"),  # chains of sites
        make_rule("d5", "ortho", "..", "21", "#"),  # anchored at the start
        make_rule("d6", "ortho", "V", "", "", "#"),  # deletion at the end
    ])
    fired = _assert_cascade_equals_reference(custom, underlying_forms)
    assert set(fired) == {"d1", "d2", "d3", "d4", "d5", "d6"}
    assert fired["d1"] > 1 and fired["d4"] > 1
