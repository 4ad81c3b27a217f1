"""Inflectional chart: expand a stem set into the 109 underlying forms.

13 person/number/gender tags x (perfective + three imperfective moods)
x two voices, plus 5 active imperatives.  Suffix strings carry long
vowels and the vowellessness mark directly; all surface repair is left
to the rewrite cascade.
"""

from .errors import IllegalCell

TAGS = ("3SM", "3SF", "3DM", "3DF", "3PM", "3PF",
        "2SM", "2SF", "2DN", "2PM", "2PF", "1SN", "1PN")

PARADIGMS = ("PERF", "IMPF-IND", "IMPF-SUBJ", "IMPF-JUS", "IMPV")
VOICES = ("ACT", "PAS")

PERF_SUFFIX = {
    "3SM": "a", "3SF": "at·", "3DM": "aA", "3DF": "ataA",
    "3PM": "uwA", "3PF": "·na",
    "2SM": "·ta", "2SF": "·ti", "2DN": "·tumaA", "2PM": "·tum·", "2PF": "·tun~a",
    "1SN": "·tu", "1PN": "·naA",
}

IMPF_PREFIX = {
    "3SM": "y", "3SF": "t", "3DM": "y", "3DF": "t", "3PM": "y", "3PF": "y",
    "2SM": "t", "2SF": "t", "2DN": "t", "2PM": "t", "2PF": "t",
    "1SN": "Á", "1PN": "n",
}

MOOD_SUFFIX = {
    "IMPF-IND": {
        "3SM": "u", "3SF": "u", "3DM": "aAni", "3DF": "aAni",
        "3PM": "uwna", "3PF": "·na",
        "2SM": "u", "2SF": "iyna", "2DN": "aAni", "2PM": "uwna", "2PF": "·na",
        "1SN": "u", "1PN": "u",
    },
    "IMPF-SUBJ": {
        "3SM": "a", "3SF": "a", "3DM": "aA", "3DF": "aA",
        "3PM": "uwA", "3PF": "·na",
        "2SM": "a", "2SF": "iy", "2DN": "aA", "2PM": "uwA", "2PF": "·na",
        "1SN": "a", "1PN": "a",
    },
    "IMPF-JUS": {
        "3SM": "·", "3SF": "·", "3DM": "aA", "3DF": "aA",
        "3PM": "uwA", "3PF": "·na",
        "2SM": "·", "2SF": "iy", "2DN": "aA", "2PM": "uwA", "2PF": "·na",
        "1SN": "·", "1PN": "·",
    },
}

IMPV_SUFFIX = {"2SM": "·", "2SF": "iy", "2DN": "aA", "2PM": "uwA", "2PF": "·na"}


class Cell:
    """One legal cell of the chart.  Immutable, and equal and hashed by its
    tag, paradigm and voice.  Not a tuple, so that ``"%s" % cell`` formats
    the cell instead of spreading its fields over the format."""

    __slots__ = ("tag", "paradigm", "voice")

    def __init__(self, tag, paradigm, voice):
        if tag not in TAGS or paradigm not in PARADIGMS or voice not in VOICES:
            raise IllegalCell("bad cell %s %s %s" % (tag, paradigm, voice))
        if paradigm == "IMPV" and (voice != "ACT" or not tag.startswith("2")):
            raise IllegalCell("imperative is active second person only")
        for name, value in zip(self.__slots__, (tag, paradigm, voice)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("field %r of a Cell is read-only" % name)

    __delattr__ = __setattr__  # with value=None, deletion raises alike

    def __eq__(self, other):
        if other.__class__ is not Cell:
            return NotImplemented
        return (self.tag, self.paradigm, self.voice) == (other.tag, other.paradigm, other.voice)

    def __hash__(self):
        return hash((self.tag, self.paradigm, self.voice))

    def __reduce__(self):
        return Cell, (self.tag, self.paradigm, self.voice)

    def __repr__(self):
        return "Cell(tag=%r, paradigm=%r, voice=%r)" % (self.tag, self.paradigm, self.voice)

    def __str__(self):
        return "%s %s %s" % (self.tag, self.paradigm, self.voice)


def all_cells():
    """The 109 legal cells in canonical order."""
    cells = []
    for voice in VOICES:
        for paradigm in ("PERF", "IMPF-IND", "IMPF-SUBJ", "IMPF-JUS"):
            for tag in TAGS:
                cells.append(Cell(tag, paradigm, voice))
    for tag in ("2SM", "2SF", "2DN", "2PM", "2PF"):
        cells.append(Cell(tag, "IMPV", "ACT"))
    return cells

CELLS = tuple(all_cells())


def inflect(stems, cell):
    """One underlying (pre-cascade) wordform for one cell."""
    if cell.paradigm == "PERF":
        stem = stems.p_act if cell.voice == "ACT" else stems.p_pas
        return stem + PERF_SUFFIX[cell.tag]
    if cell.paradigm == "IMPV":
        return stems.m_act + IMPV_SUFFIX[cell.tag]
    stem = stems.i_act if cell.voice == "ACT" else stems.i_pas
    return IMPF_PREFIX[cell.tag] + stem + MOOD_SUFFIX[cell.paradigm][cell.tag]


def paradigm(stems):
    """All 109 (cell, underlying form) pairs in canonical order."""
    return [(cell, inflect(stems, cell)) for cell in CELLS]
