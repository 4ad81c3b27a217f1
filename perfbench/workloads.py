"""Seeded inputs for the three workloads.

Everything here is the benchmark's own code: the program under test only
ever sees the files written by ``write_inputs``.  Inputs depend on the
workload and on ``input_seed(seed)`` and on nothing else, so the same seed
gives byte-identical inputs on every commit.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
SAMPLE_LEXICON = os.path.join(DATA, "sample_lexicon.tsv")
GOLD_LEXICON = os.path.join(DATA, "gold_lexicon.tsv")

WORKLOADS = ("sound-bulk", "mixed-class", "lookup")

# Expected outputs are recorded for this many input seeds (expected.json);
# a run's inputs are drawn from ``seed mod INPUT_SEEDS``.
INPUT_SEEDS = 32

SOUND_BULK_LEMMAS = 1000
SOUND_BULK_CODE = "00L0003"
MIXED_SYNTHETIC = 300
GEMINATE_SHARE = 0.2
QUERIES = 20000
# Shares of the lookup query mix; they sum to 1.  The repository holds no
# traffic data, so the shares are an assumption.  The paper names three
# kinds of analysis query (full, partial and bare-consonant diacritics) and
# the analyzer takes the internal transliteration or Arabic script; each of
# those six inputs gets an equal share.  Undiacritized Arabic script
# ("script-bare") is the usual input in real text.  Misses, inflect_verb
# and derive_root get small shares so that every public query is measured.
# Each kind's latency is also reported on its own (analyzer.*_us), so a
# regression in one kind does not hide behind the weights.
QUERY_MIX = (
    ("exact", 0.15),
    ("partial", 0.15),
    ("bare", 0.15),
    ("script", 0.15),
    ("script-partial", 0.15),
    ("script-bare", 0.15),
    ("miss", 0.06),
    ("inflect", 0.02),
    ("derive", 0.02),
)

BASIC = "btþjHxdðrzsXSDTZçgfqklmnh"
WEAK = "wyÁ"
DIACRITICS = frozenset("aiu~·")

# Internal symbol -> Arabic codepoint, for the symbols synthetic lemmas use.
_SCRIPT = {
    "b": 0x628, "t": 0x62A, "þ": 0x62B, "j": 0x62C, "H": 0x62D, "x": 0x62E,
    "d": 0x62F, "ð": 0x630, "r": 0x631, "z": 0x632, "s": 0x633, "X": 0x634,
    "S": 0x635, "D": 0x636, "T": 0x637, "Z": 0x638, "ç": 0x639, "g": 0x63A,
    "f": 0x641, "q": 0x642, "k": 0x643, "l": 0x644, "m": 0x645, "n": 0x646,
    "h": 0x647, "w": 0x648, "y": 0x64A, "Á": 0x623, "A": 0x627, "Y": 0x649,
    "a": 0x64E, "i": 0x650, "u": 0x64F, "~": 0x651, "·": 0x652,
}

# The Arabic marks of DIACRITICS; stripping them from a form's script gives
# the script of its skeleton.
SCRIPT_DIACRITICS = frozenset(chr(_SCRIPT[ch]) for ch in DIACRITICS)

# Citation shape of each of the 24 bundled codes, with radical slots 1-4,
# read off the demonstration-root lemmas of the sample lexicon.  Synthetic
# entries carry the sound shape filled with their radicals as the lemma: it
# names the entry uniquely, and a non-strict load does not regenerate it.
SHAPES = {
    "00L0003": "1a2a3a", "00L0002": "1a2a3a", "00L0001": "1a2a3a",
    "00L0303": "1a2u3a", "00L0201": "1a2i3a", "00L0202": "1a2i3a",
    "00H1000": "1a2~a3a", "06H0000": "1aA2a3a", "10H0000": "Áa1·2a3a",
    "00H4000": "ta1a2~a3a", "06H3000": "ta1aA2a3a", "20L0000": "Ain·1a2a3a",
    "01L0000": "Ai1·ta2a3a", "00L2000": "Ai1·2a3~a", "04H0000": "Ais·ta1·2a3a",
    "07H2000": "Ai1·2aA3~a", "03H1000": "Ai1·2aw·2a3a", "05H0000": "Ai1·2aw~a3a",
    "02H2000": "Ai1·2an·3a3a", "08H0000": "Ai1·2an·3aY",
    "00H0000": "1a2·3a4a", "00H3000": "ta1a2·3a4a",
    "02H0000": "Ai1·2an·3a4a", "00H2000": "Ai1·2a3a4~a",
}


def input_seed(seed):
    return seed % INPUT_SEEDS


def rng_for(workload, seed, purpose):
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random("%s/%d/%s" % (workload, input_seed(seed), purpose))


def script(internal):
    return "".join(chr(_SCRIPT[ch]) for ch in internal)


def lemma_for(root, code):
    return "".join(root[int(ch) - 1] if ch.isdigit() else ch for ch in SHAPES[code])


def read_entries(path):
    """(lemma-arabic, root, code, gloss) rows of a lemma lexicon file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                rows.append(tuple(line.split("\t")[:4]))
    return rows


def bundled_entries():
    """The sample and gold entries, each (lemma, code) pair once."""
    rows, seen = [], set()
    for row in read_entries(SAMPLE_LEXICON) + read_entries(GOLD_LEXICON):
        if (row[0], row[2]) not in seen:
            seen.add((row[0], row[2]))
            rows.append(row)
    return rows


def sound_bulk(seed):
    rng = rng_for("sound-bulk", seed, "roots")
    roots = set()
    while len(roots) < SOUND_BULK_LEMMAS:
        roots.add("".join(rng.sample(BASIC, 3)))
    return [(script(lemma_for(r, SOUND_BULK_CODE)), r, SOUND_BULK_CODE, "synthetic")
            for r in sorted(roots)]


def mixed_class(seed):
    rng = rng_for("mixed-class", seed, "entries")
    bundled = bundled_entries()
    taken = {(row[1], row[2]) for row in bundled}
    letters = BASIC + WEAK
    codes = sorted(SHAPES)
    synthetic = []
    while len(synthetic) < MIXED_SYNTHETIC:
        code = rng.choice(codes)
        if SHAPES[code].count("4"):
            radicals = rng.sample(letters, 4)
        else:
            radicals = rng.sample(letters, 3)
            if rng.random() < GEMINATE_SHARE:
                radicals[2] = radicals[1]
        root = "".join(radicals)
        if (root, code) in taken:
            continue
        taken.add((root, code))
        synthetic.append((script(lemma_for(root, code)), root, code, "synthetic"))
    return bundled + sorted(synthetic, key=lambda row: (row[2], row[1]))


def lemma_rows(workload, seed):
    return sound_bulk(seed) if workload == "sound-bulk" else mixed_class(seed)


def lemma_tsv(rows):
    lines = ["# lemma-arabic\troot\tcode\tgloss"]
    lines += ["\t".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def skeleton(s):
    return "".join(ch for ch in s if ch not in DIACRITICS)


def _partial(text, diacritics, rng):
    marks = [i for i, ch in enumerate(text) if ch in diacritics]
    drop = {i for i in marks if rng.random() < 0.5} or {marks[0]}
    return "".join(ch for i, ch in enumerate(text) if i not in drop)


def _miss(surface, skeletons, rng):
    """A surface with one radical swapped so that no form shares its skeleton."""
    consonants = BASIC + WEAK
    while True:
        positions = [i for i, ch in enumerate(surface) if ch in consonants]
        i = rng.choice(positions)
        candidate = surface[:i] + rng.choice(consonants) + surface[i + 1:]
        if skeleton(candidate) not in skeletons:
            return candidate


def paradigm_digest(rows):
    """Order-independent digest of (tag, paradigm, voice, surface) rows."""
    return hashlib.sha256("\n".join("\t".join(r) for r in sorted(rows)).encode()).hexdigest()


def queries(workload, seed, forms):
    """The seeded query mix over an inflected lexicon.

    ``forms`` are the rows of the TSV the program wrote (see
    checks.read_forms).  Each query is (kind, text, expected), where
    expected is what checks.check_query needs.
    """
    rng = rng_for(workload, seed, "queries")
    skeletons = {skeleton(f[1]) for f in forms}
    paradigms, lemmas_of_root = {}, {}
    for f in forms:
        paradigms.setdefault((f[2], f[4]), []).append((f[5], f[6], f[7], f[1]))
        lemmas_of_root.setdefault(f[3], set()).add((f[2], f[4]))
    keys = sorted(paradigms)
    roots = sorted(lemmas_of_root)
    kinds = [k for k, _ in QUERY_MIX]
    weights = [w for _, w in QUERY_MIX]
    out = []
    for kind in rng.choices(kinds, weights, k=QUERIES):
        if kind == "inflect":
            lemma, code = rng.choice(keys)
            out.append((kind, lemma, [code, paradigm_digest(paradigms[(lemma, code)])]))
            continue
        if kind == "derive":
            root = rng.choice(roots)
            out.append((kind, root, sorted(l for l, _ in lemmas_of_root[root])))
            continue
        arabic, surface, lemma, root, code, tag, paradigm, voice = rng.choice(forms)
        expected = [lemma, root, code, surface, tag, paradigm, voice]
        if kind == "exact":
            text = surface
        elif kind == "partial":
            text = _partial(surface, DIACRITICS, rng)
        elif kind == "bare":
            text = skeleton(surface)
        elif kind == "script":
            text = arabic
        elif kind == "script-partial":
            text = _partial(arabic, SCRIPT_DIACRITICS, rng)
        elif kind == "script-bare":
            text = "".join(ch for ch in arabic if ch not in SCRIPT_DIACRITICS)
        else:
            text, expected = _miss(surface, skeletons, rng), None
        out.append((kind, text, expected))
    return out


def cli_forms(seed, gold_rows, n):
    """Gold reference rows to look up through the CLI, in run order."""
    rng = rng_for("cli", seed, "forms")
    return [rng.choice(gold_rows) for _ in range(n)]


def write_inputs(workload, seed, directory):
    """Write the lemma lexicon of a run; returns its path."""
    path = os.path.join(directory, "lemmas.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lemma_tsv(lemma_rows(workload, seed)))
    return path


def write_queries(path, items):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(items, fh, ensure_ascii=False)
