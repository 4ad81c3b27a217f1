"""Stem construction: root + derivation merge, template insertion,
ta- affixation, vocalization, and deep phonotactic preprocessing.

All verbs are generated as regular here; weak-radical and geminate
allomorphy is repaired later by the surface-rule cascade.  The
class-aware repairs happen in ``preprocess``:

* assimilation of a radical-initial w/y/Á into the t infix of the VIII
  pattern,
* resyllabification of the imperfective stem: the template strips the
  interior stem vowel, and the prohibited consonant run is repaired by
  restoring an a at the position the perfective template vowel holds,
* deletion of the initial radical w from pattern-I imperfective stems
  that select it (yajidu-type verbs),
* shift of a final radical w to y in the derived patterns.
"""

from collections import namedtuple

from .alphabet import ALPHABET, CONSONANTS, SLOT_F, SLOT_V, SLOT_W
from .errors import IllegalCell, MalformedInternal, OpOutOfRange, StringTooLong
from .lexicon import QUADRILITERAL, resolve_class

TEMPLATES = {
    ("L", "p"): "FFVFWF",
    ("L", "i"): "VFFFWF",
    ("L", "m"): "FFFWF",
    ("H", "p"): "FFVFFWF",
    ("H", "i"): "VFFFFWF",
    ("H", "m"): "FFFFWF",
}

# Passive vocalism is fixed for every class: only the vowels carry voice.
PASSIVE_VOWELS = {"p": ("u", "i"), "i": ("u", "a")}

# Radical-initial consonants that assimilate into the VIII t-infix.
VIII_ASSIMILATION = {"w": "t", "y": "t", "Á": "t"}


class StemSet(namedtuple("StemSet", "p_act i_act m_act p_pas i_pas")):
    __slots__ = ()


def merge(root, ops):
    """Apply the derivational operations to the root (Module 1)."""
    prefix = ""
    post = [""] * len(root)  # material inserted after each radical
    dup_after = [0] * len(root)
    for op in ops:
        kind = op[0]
        if kind == "prefix":
            prefix += op[1]
        elif kind in ("infix", "lengthen"):
            seg, pos = op[1], op[2]
            if pos > len(root):
                raise OpOutOfRange("no radical %d in root %s" % (pos, root))
            post[pos - 1] += seg
        elif kind == "append":
            post[-1] += op[1]
        elif kind == "dup":
            pos = len(root) if op[1] == "final" else op[1]
            if pos > len(root):
                raise OpOutOfRange("no radical %d in root %s" % (pos, root))
            dup_after[pos - 1] += 1
        else:
            raise OpOutOfRange("unknown op %r" % (op,))
    out = [prefix]
    for i, radical in enumerate(root):
        out.append(radical)
        out.append(post[i])
        out.append(radical * dup_after[i])
    return "".join(out)


def insert_into_template(merged, template):
    """Fill the template's F slots from the end (Module 2).

    Each character of the merged string replaces an F starting from the
    rightmost; leftover F slots are removed.  V and W stay put.
    """
    slots = [i for i, ch in enumerate(template) if ch == SLOT_F]
    if len(merged) > len(slots):
        raise StringTooLong(len(merged), len(slots))
    out = list(template)
    for ch, slot in zip(reversed(merged), reversed(slots)):
        out[slot] = ch
    for slot in slots[: len(slots) - len(merged)]:
        out[slot] = None
    return "".join(ch for ch in out if ch is not None)


def apply_ta(skeleton, ta):
    """Insert the derivational affix ta- (Module 3).

    The affix lands before the first consonant: skeletons that open
    with the V slot (imperfective) keep that slot word-initial.
    """
    if not ta:
        return skeleton
    if skeleton.startswith(SLOT_V):
        return SLOT_V + "ta" + skeleton[1:]
    return "ta" + skeleton


def vocalize(skeleton, dclass, aspect, voice="act"):
    """Replace the V and W slots with the stem vowels (Module 4)."""
    if voice == "pas":
        if aspect == "m":
            raise IllegalCell("no passive imperative stem")
        v, w = PASSIVE_VOWELS[aspect]
    elif aspect == "p":
        v, w = dclass.p_vowels
    else:
        v, w = dclass.i_vowels
    stem = skeleton.replace(SLOT_V, v).replace(SLOT_W, w)
    if voice == "pas" and aspect == "p" and dclass.ta_prefix and stem.startswith("ta"):
        stem = "tu" + stem[2:]  # the affix vowel harmonizes in the passive
    return stem


def _is_pattern_one(label):
    return len(label) == 3 and label[0] == "I" and label[1] in "aiu"


def _resyllabify(stem, vowel_slot):
    """Break a prohibited consonant run by restoring an interior a.

    The imperfective template removes the perfective's interior vowel;
    the repair re-inserts one after as many consonants as precede the
    V slot of the perfective skeleton (utrjim > utarjim, astfçil >
    astafçil, anfçil > anfaçil).
    """
    run_start, run_len = None, 0
    for i, ch in enumerate(stem):
        if ch in CONSONANTS:
            if run_start is None:
                run_start = i
            run_len += 1
            if run_len >= 3:
                at = run_start + vowel_slot
                return stem[:at] + "a" + stem[at:]
        else:
            run_start, run_len = None, 0
    return stem


def preprocess(stem, dclass, root, aspect="p", voice="act", vowel_slot=2):
    """Deep class-level repairs on a fully vocalized stem (Module 5)."""
    if dclass.label == "VIII":
        target = VIII_ASSIMILATION.get(root[0])
        if target is not None:
            probe = root[0] + "t"
            idx = stem.find(probe)
            if idx >= 0:
                stem = stem[:idx] + target + "t" + stem[idx + 2 :]
    if (
        root[0] == "w"
        and aspect in ("i", "m")
        and voice == "act"
        and (dclass.label == "Iaa"
             or (_is_pattern_one(dclass.label) and dclass.i_vowels[1] == "i"))
    ):
        # yajidu/yariþu/yaDaçu-type verbs drop the initial radical
        # throughout the active imperfective and imperative.
        idx = stem.find("w")
        if idx in (0, 1):
            stem = stem[:idx] + stem[idx + 1 :]
    if (
        root[-1] == "w"
        and stem.endswith("w")
        and not any(op[0] == "append" for op in dclass.ops)
        and (not _is_pattern_one(dclass.label)
             or (aspect == "i" and voice == "pas"))
    ):
        # Final-radical w conjugates as y outside pattern I, and in the
        # passive imperfective of pattern I as well (yud·çaY).
        stem = stem[:-1] + "y"
    if aspect in ("i", "m") and dclass.label != "IV":
        # Class IV resolves its cluster by dropping the hamza instead
        # (a surface rule), so its stem keeps the run intact.
        stem = _resyllabify(stem, vowel_slot)
    return stem


def build_stems(entry):
    """Compose Modules 1-5 into the five stems of an entry."""
    # Generation joins forms with line breaks, so no symbol outside the
    # alphabet (a line break least of all) may enter one.
    if not ALPHABET.issuperset(entry.root):
        bad = min(set(entry.root) - ALPHABET)
        raise MalformedInternal("root %r: symbol %r not in alphabet" % (entry.root, bad))
    dclass = resolve_class(entry.code)
    need = 4 if dclass.label in QUADRILITERAL else 3
    if len(entry.root) != need:
        raise OpOutOfRange(
            "pattern %s needs a %d-radical root, got %r"
            % (dclass.label, need, entry.root)
        )
    merged = merge(entry.root, dclass.ops)
    bare_p = insert_into_template(merged, TEMPLATES[(dclass.template_type, "p")])
    vowel_slot = bare_p.index(SLOT_V)  # consonants preceding the stem vowel
    skel_p = apply_ta(bare_p, dclass.ta_prefix)
    skel_i = apply_ta(insert_into_template(merged, TEMPLATES[(dclass.template_type, "i")]), dclass.ta_prefix)

    def stem(skel, aspect, voice):
        s = vocalize(skel, dclass, aspect, voice)
        return preprocess(s, dclass, entry.root, aspect, voice, vowel_slot)

    i_act = stem(skel_i, "i", "act")
    return StemSet(
        p_act=stem(skel_p, "p", "act"),
        i_act=i_act,
        m_act=i_act[1:],  # the imperative stem is the i-stem minus its first vowel
        p_pas=stem(skel_p, "p", "pas"),
        i_pas=stem(skel_i, "i", "pas"),
    )
