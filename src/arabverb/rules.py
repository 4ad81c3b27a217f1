"""Ordered contextual rewrite cascade: underlying form -> surface form.

Rules live in a TSV file, phonological stage before orthographic, and
apply once each in file order.  A rule rewrites every non-overlapping
match left to right in a single pass; the right context is not consumed,
so chains of adjacent sites (e.g. repeated vowelless letters) still all
fire within the pass.

Pattern language (one symbol per character):
  literals      any internal symbol
  C             any consonant (glides and hamza letters included)
  K             basic consonant (no glides, no hamza letters)
  Q             hamza letter
  G             glide (w or y)
  M             any consonant except n
  V             short vowel
  1-9           back-reference to the Nth class capture in the pattern
Left/right contexts use literals, C, V (and # for the word boundary),
plus the same class letters where a finer set is needed.  Replacements
are literals and capture references.
"""

import functools
import re
from dataclasses import dataclass, field
from importlib import resources

from .alphabet import CONSONANTS, HAMZA_LETTERS, SEMICONSONANTS
from .errors import ArabverbError, BadRuleFile, StageOrderError

_BASIC = CONSONANTS - SEMICONSONANTS - HAMZA_LETTERS

_CLASS_SETS = {
    "C": "".join(sorted(CONSONANTS)),
    "K": "".join(sorted(_BASIC)),
    "Q": "".join(sorted(HAMZA_LETTERS)),
    "G": "wy",
    "M": "".join(sorted(CONSONANTS - {"n"})),
    "V": "aiu",
}

STAGES = ("phono", "ortho")


@dataclass(frozen=True)
class RewriteRule:
    id: str
    stage: str
    pattern: str
    replacement: str
    left_ctx: str
    right_ctx: str
    comment: str = ""
    _rx: object = field(default=None, compare=False, repr=False)
    _trigger: frozenset = field(default=frozenset(), compare=False, repr=False)


def _ctx_source(ctx, trailing):
    """Compile a context expression to regex source (no captures)."""
    out = []
    for ch in ctx:
        if ch == "#":
            out.append(r"\Z" if trailing else r"\A")
        elif ch == ".":
            out.append(".")
        elif ch in _CLASS_SETS:
            out.append("[%s]" % re.escape(_CLASS_SETS[ch]))
        else:
            out.append(re.escape(ch))
    return "".join(out)


# Symbols present in nearly every form are useless as firing guards.
_UBIQUITOUS = frozenset("aiu·~")

# A narrow class still implies a usable guard set.
_CLASS_TRIGGERS = {"G": frozenset("wy"), "Q": HAMZA_LETTERS}


def make_rule(rule_id, stage, pattern, replacement, left="", right="", comment=""):
    if stage not in STAGES:
        raise BadRuleFile("rule %s: unknown stage %r" % (rule_id, stage))
    core = []
    literals = set()
    narrow = set()
    for ch in pattern:
        if ch == ".":
            core.append("(.)")
        elif ch in _CLASS_SETS:
            core.append("([%s])" % re.escape(_CLASS_SETS[ch]))
            if ch in _CLASS_TRIGGERS:
                narrow |= _CLASS_TRIGGERS[ch]
        elif ch.isdigit():
            core.append("\\%d" % (int(ch) + 1))  # +1: group 1 is the core
        else:
            core.append(re.escape(ch))
            if ch not in _UBIQUITOUS:
                literals.add(ch)
    src = "(?:%s)(%s)(?=%s)" % (
        _ctx_source(left, False),
        "".join(core),
        _ctx_source(right, True),
    )
    # Firing guard: a match must contain every pattern literal, and a
    # member of each narrow class; either gives a sound reason to skip
    # the rule when the form lacks all guard symbols.
    trigger = frozenset(literals or narrow)
    return RewriteRule(
        id=rule_id, stage=stage, pattern=pattern, replacement=replacement,
        left_ctx=left, right_ctx=right, comment=comment,
        _rx=re.compile(src), _trigger=trigger,
    )


def _substitute(rule, match):
    out = []
    for ch in rule.replacement:
        if ch.isdigit():
            out.append(match.group(int(ch) + 1))
        else:
            out.append(ch)
    return "".join(out)


def _rewrite(rule, form, match, hits):
    """Rewrite ``match``, the first match of ``rule`` in ``form``, and every
    later non-overlapping one, left to right."""
    search = rule._rx.search
    n = 0
    while match is not None:
        start, end = match.span(1)
        rep = _substitute(rule, match)
        form = form[:start] + rep + form[end:]
        n += 1
        # Resume right after the replacement.  Group 1 is never empty, so
        # each match uses up a symbol of the form and the loop ends, also
        # after a deletion.
        match = search(form, start + len(rep))
    if hits is not None:
        hits[rule.id] = hits.get(rule.id, 0) + n
    return form


class RuleSet:
    """An ordered cascade; phonological rules strictly precede orthographic."""

    def __init__(self, rules):
        seen = set()
        in_ortho = False
        for rule in rules:
            if rule.id in seen:
                raise BadRuleFile("duplicate rule id %s" % rule.id)
            seen.add(rule.id)
            if rule.stage == "ortho":
                in_ortho = True
            elif in_ortho:
                raise StageOrderError(
                    "phonological rule %s after the orthographic stage" % rule.id
                )
        self.rules = tuple(rules)

    def __len__(self):
        return len(self.rules)

    def count(self, stage):
        return sum(1 for r in self.rules if r.stage == stage)

    def apply(self, form, hits=None):
        symbols = None
        for rule in self.rules:
            trigger = rule._trigger
            if trigger:
                if symbols is None:
                    symbols = set(form)
                if symbols.isdisjoint(trigger):
                    continue
            match = rule._rx.search(form)
            if match is not None:
                form = _rewrite(rule, form, match, hits)
                symbols = None
        return form


def apply_rule(rule, form, hits=None):
    """Apply one rule once: all non-overlapping matches, left to right."""
    return RuleSet((rule,)).apply(form, hits)


def load_rules(path=None):
    """Load a rule TSV: id, stage, pattern, replacement, left, right, comment."""
    if path is None:
        text = resources.files("arabverb.data").joinpath("surface_rules.tsv").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    rules = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 6:
            raise BadRuleFile("rule file line %d: need 6+ columns" % lineno)
        rule_id, stage, pattern, replacement, left, right = fields[:6]
        comment = fields[6] if len(fields) > 6 else ""
        if not pattern:
            raise BadRuleFile("rule file line %d: empty pattern" % lineno)
        try:
            rules.append(make_rule(rule_id, stage, pattern, replacement, left, right, comment))
        except ArabverbError:
            raise
        except Exception as exc:
            raise BadRuleFile("rule file line %d: %s" % (lineno, exc))
    return RuleSet(rules)


@functools.cache
def default_rules():
    return load_rules()


def apply_cascade(form, ruleset=None, hits=None):
    rs = ruleset if ruleset is not None else default_rules()
    return rs.apply(form, hits)
