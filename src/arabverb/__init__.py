"""arabverb: a generation and analysis engine for Modern Standard
Arabic verbal morphology.

Conjugation paradigms (109 forms per lemma) are generated from (root,
code) lexicon entries through a two-template stem algebra and an
ordered phonological/orthographic rewrite cascade; analysis is lookup
over the generated forms.
"""

from .analyzer import FormIndex, analyze, derive_root, inflect_verb
from .inflect import CELLS, Cell, inflect, paradigm
from .lexicon import LexiconEntry, load_lexicon, parse_code, resolve_class
from .pipeline import generate_all, read_lexicon, write_lexicon
from .rules import apply_cascade, default_rules, load_rules
from .stems import build_stems
from .translit import to_internal, to_script

__version__ = "0.1.0"

__all__ = [
    "FormIndex", "analyze", "derive_root", "inflect_verb",
    "CELLS", "Cell", "inflect", "paradigm",
    "LexiconEntry", "load_lexicon", "parse_code", "resolve_class",
    "generate_all", "read_lexicon", "write_lexicon",
    "apply_cascade", "default_rules", "load_rules",
    "build_stems", "to_internal", "to_script",
]
