"""Ordered contextual rewrite cascade: underlying form -> surface form.

Rules live in a TSV file, phonological stage before orthographic, and
apply once each in file order, to one form (``RuleSet.apply``) or to a
batch of forms, one per line (``RuleSet.apply_many``).  A rule rewrites
every non-overlapping match left to right in a single pass; the right
context is not consumed, so chains of adjacent sites (e.g. repeated
vowelless letters) still all fire within the pass.

Pattern language (one symbol per character):
  literals      any internal symbol
  C             any consonant (glides and hamza letters included)
  K             basic consonant (no glides, no hamza letters)
  Q             hamza letter
  G             glide (w or y)
  M             any consonant except n
  V             short vowel
  1-9           back-reference to the Nth class capture in the pattern
Left/right contexts use literals, C, V (and # for the word boundary, to
open a left or close a right one), plus the same class letters where a
finer set is needed.  Replacements are literals and capture references.
"""

import functools
import os
import re
from collections import namedtuple

from .alphabet import CONSONANTS, HAMZA_LETTERS, SEMICONSONANTS
from .errors import BadRuleFile, StageOrderError

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


class RewriteRule(namedtuple("RewriteRule", "id stage pattern replacement left_ctx right_ctx comment "
                                            "rx parts", defaults=("", None, ()))):
    """A rule: the seven columns of its row, and the regex and replacement
    parts that make_rule compiles from them.  Those two are equal whenever
    the seven are, so rules compare by their row."""

    __slots__ = ()


def _ctx_source(ctx, trailing):
    """Compile a context expression to regex source (no captures)."""
    out = []
    for ch in ctx:
        if ch == "#":
            out.append("$" if trailing else "\n")  # $ under re.M: also at a line break
        elif ch == ".":
            out.append(".")
        elif ch in _CLASS_SETS:
            out.append("[%s]" % re.escape(_CLASS_SETS[ch]))
        else:
            out.append(re.escape(ch))
    return "".join(out)


def make_rule(rule_id, stage, pattern, replacement, left="", right="", comment=""):
    if stage not in STAGES:
        raise BadRuleFile("rule %s: unknown stage %r" % (rule_id, stage))
    if not pattern:
        raise BadRuleFile("rule %s: empty pattern" % rule_id)
    if "\n" in pattern + replacement + left + right:
        raise BadRuleFile("rule %s: a line break is not a symbol" % rule_id)
    if "#" in left[1:] + right[:-1]:
        raise BadRuleFile("rule %s: # may only open a left context or close a right one" % rule_id)
    # The match consumes the left context, so a replacement puts it back.
    # It is group 1 only if there is one: an empty group in front would hide
    # the first class of the core from the regex engine's prefix scan.
    shift = 1 if left else 0
    core = []
    captures = 0
    for ch in pattern:
        if ch == ".":
            core.append("(.)")
            captures += 1
        elif ch in _CLASS_SETS:
            core.append("([%s])" % re.escape(_CLASS_SETS[ch]))
            captures += 1
        elif ch.isdigit():
            if ch not in "123456789"[:captures]:
                raise BadRuleFile("rule %s: pattern %r: digit %s names no earlier capture"
                                  % (rule_id, pattern, ch))
            core.append("\\%d" % (int(ch) + shift))
        else:
            core.append(re.escape(ch))
    parts = [1] if shift else []  # runs of literals, and the group number of each capture
    for ch in replacement:
        if ch.isdigit():
            if ch not in "123456789"[:captures]:
                raise BadRuleFile("rule %s: replacement %r: digit %s names none of the %d captures of %r"
                                  % (rule_id, replacement, ch, captures, pattern))
            parts.append(int(ch) + shift)
        elif parts and isinstance(parts[-1], str):
            parts[-1] += ch
        else:
            parts.append(ch)
    src = "".join(core)
    if left:
        src = "(%s)%s" % (_ctx_source(left, False), src)
    if right:
        src = "%s(?=%s)" % (src, _ctx_source(right, True))
    return RewriteRule(
        id=rule_id, stage=stage, pattern=pattern, replacement=replacement,
        left_ctx=left, right_ctx=right, comment=comment,
        rx=re.compile(src, re.M), parts=tuple(parts),
    )


def _substitute(rule, match):
    group = match.group
    return "".join([part if part.__class__ is str else group(part) for part in rule.parts])


class RuleSet:
    """An ordered cascade; phonological rules strictly precede orthographic.

    ``free`` is the largest set of consonants that the cascade cannot tell
    apart: no rule names them, and every class of ``_CLASS_SETS`` holds
    all of them or none.  So ``apply`` commutes with any permutation p of
    them, rule hits included: ``apply(p(s)) == p(apply(s))``.
    """

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
        named = set()
        for rule in self.rules:
            named.update(rule.pattern, rule.replacement, rule.left_ctx, rule.right_ctx)
        alike = {}  # the unnamed consonants by the classes that hold them
        for ch in sorted(CONSONANTS - named):
            alike.setdefault(tuple(ch in members for members in _CLASS_SETS.values()), []).append(ch)
        self.free = frozenset(max(alike.values(), key=len, default=()))

    def __len__(self):
        return len(self.rules)

    def count(self, stage):
        return sum(1 for r in self.rules if r.stage == stage)

    def apply(self, form, hits=None):
        form = "\n" + form  # which a leading # matches, as in apply_many
        for rule in self.rules:
            if rule.rx.search(form) is not None:
                # Every non-overlapping match, left to right, in one pass
                # over the form as it was before the rule.
                form, n = rule.rx.subn(functools.partial(_substitute, rule), form)
                if hits is not None:
                    hits[rule.id] = hits.get(rule.id, 0) + n
        return form[1:]

    def apply_many(self, forms):
        """``[apply(form, hits) for form in forms]`` in one batch: returns
        the surfaces and, for each form, the dict of its rule hits.

        The forms follow a line break each, and each rule runs once over
        the text as one ``sub``, in cascade order.  No class and no ``.``
        matches a line break and ``#`` matches next to one, so no match
        crosses two forms.  The callback credits a match to the line of
        the symbol after its start (a leading ``#`` matches the line break
        before its form), counting line breaks.
        """
        text = "\n" + "\n".join(forms)
        if text.count("\n") != max(len(forms), 1):
            raise ValueError("a form of the batch holds a line break")
        hits = [{} for _ in forms]
        for rule in self.rules:
            rule_id = rule.id
            line, last = -1, 0

            def rewrite(match):
                nonlocal line, last
                start = match.start() + 1
                line += text.count("\n", last, start)
                last = start
                own = hits[line]
                own[rule_id] = own.get(rule_id, 0) + 1
                return _substitute(rule, match)

            text = rule.rx.sub(rewrite, text)
        return (text[1:].split("\n") if forms else []), hits


def load_rules(path=None):
    """Load a rule TSV: id, stage, pattern, replacement, left, right, comment.
    A leading byte-order mark is skipped; a file that holds no rule is a
    BadRuleFile."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "surface_rules.tsv")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadRuleFile("rule file %s is not UTF-8: byte 0x%02x (%s)"
                          % (path, exc.object[exc.start], exc.reason)) from None
    rules = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 6:
            raise BadRuleFile("rule file line %d: need 6+ columns" % lineno)
        rule_id, stage, pattern, replacement, left, right = fields[:6]
        comment = fields[6] if len(fields) > 6 else ""
        try:
            rules.append(make_rule(rule_id, stage, pattern, replacement, left, right, comment))
        except (BadRuleFile, re.error) as exc:
            raise BadRuleFile("rule file line %d: %s" % (lineno, exc)) from None
    if not rules:
        raise BadRuleFile("rule file %s holds no rule" % path)
    return RuleSet(rules)


@functools.cache
def default_rules():
    return load_rules()


def apply_cascade(form, ruleset=None, hits=None):
    rs = ruleset if ruleset is not None else default_rules()
    return rs.apply(form, hits)
