"""Lexicon-scale generation through the full stem/inflection/cascade
flow, once per code and radical signature, with stats and a persisted
TSV lexicon.  Generated and read-back forms are kept as one Paradigm
record per entry.
"""

import functools
import os
import stat
from collections import Counter, namedtuple
from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter

from . import rules
from .alphabet import CONSONANTS, HAMZA_LETTERS, SEMICONSONANTS
from .errors import ArabverbError, BadLexicon, EntryFailed
from .inflect import CELLS, IMPF_PREFIX, IMPV_SUFFIX, MOOD_SUFFIX, PERF_SUFFIX, Cell, inflect
from .lexicon import CODEBOOK, resolve_class
from .stems import VIII_ASSIMILATION, build_stems
# to_script is not called here; the benchmark traces arabverb.pipeline.to_script, so it stays importable.
from .translit import check_internal, to_script, to_scripts

FORMS_PER_LEMMA = len(CELLS)  # 109


class InflectedForm(namedtuple("InflectedForm", "surface surface_arabic lemma root code cell")):
    __slots__ = ()


class Paradigm(namedtuple("Paradigm", "lemma root code surfaces")):
    """The 109 surfaces of one entry, a tuple in CELLS order, under the lemma,
    root and code they share.  Scripts are derived where they are used."""

    __slots__ = ()


class Forms(Sequence):
    """A read-only sequence of the forms of ``paradigms``: an InflectedForm,
    its script derived, for each cell of each paradigm, paradigm by paradigm,
    in CELLS order.  Equal when the paradigms are equal."""

    __slots__ = ("paradigms",)

    def __init__(self, paradigms):
        self.paradigms = paradigms

    def __len__(self):
        return FORMS_PER_LEMMA * len(self.paradigms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        # Floor division keeps a negative index negative, and the list
        # raises IndexError for an index out of range.
        q, i = divmod(index, FORMS_PER_LEMMA)
        p = self.paradigms[q]
        return InflectedForm(p.surfaces[i], *to_scripts(p.surfaces[i:i + 1]), p.lemma, p.root, p.code, CELLS[i])

    def __iter__(self):
        for p in self.paradigms:
            yield from map(InflectedForm, p.surfaces, to_scripts(p.surfaces), repeat(p.lemma),
                           repeat(p.root), repeat(p.code), CELLS)

    def __eq__(self, other):
        if not isinstance(other, Forms):
            return NotImplemented
        return self.paradigms == other.paradigms


class GenStats:
    def __init__(self):
        self.lemma_count = 0
        self.form_count = 0
        self.pattern_histogram = {}
        self.rule_hits = {}
        self.failures = []

    @property
    def forms_per_lemma(self):
        return self.form_count / self.lemma_count if self.lemma_count else 0.0

    def as_rows(self):
        rows = [("lemmas", self.lemma_count), ("forms", self.form_count),
                ("forms_per_lemma", self.forms_per_lemma)]
        for label in sorted(self.pattern_histogram):
            rows.append(("pattern_" + label, self.pattern_histogram[label]))
        for rule_id in sorted(self.rule_hits):
            rows.append(("rule_" + rule_id, self.rule_hits[rule_id]))
        return rows


def _failed(entry, exc):
    return EntryFailed(entry.lemma or entry.root, type(exc).__name__, exc, entry.root, entry.code)


# Paradigm cache.  Stems, chart and cascade read most radicals only as
# members of a class (C, K, M); a few they compare by identity.  Two roots
# that differ only in the other radicals, equal ones staying equal, have
# the same paradigm up to renaming those radicals, so the entries of one
# code and stand-in root share one paradigm, renamed for each (_expand_code).


def special_consonants(ruleset):
    """The consonants that generation under ``ruleset`` treats by identity.

    Those that the cascade can tell apart (all but ``ruleset.free``), those
    named by an affix of the chart, a codebook op or the VIII assimilation
    table, and the glides and hamza letters that the stem repairs single
    out.  An affix letter stays special because back-references compare
    radicals with it.
    """
    named = set((CONSONANTS - ruleset.free) | SEMICONSONANTS | HAMZA_LETTERS)
    for table in (PERF_SUFFIX, IMPF_PREFIX, IMPV_SUFFIX, *MOOD_SUFFIX.values()):
        for affix in table.values():
            named.update(affix)
    for ops in CODEBOOK.values():
        for op in ops:
            if op[0] not in ("dup", "ta"):  # their argument is a position
                named.update(op[1])
    for source, target in VIII_ASSIMILATION.items():
        named.update(source + target)
    return frozenset(named & CONSONANTS)


def stand_ins(ruleset):
    """The free consonants, in the order roots draw them as stand-ins."""
    return "".join(sorted(CONSONANTS - special_consonants(ruleset)))


def stand_in_root(root, free):
    """``root`` with each radical of ``free`` renamed to the next stand-in
    in order of first appearance; equal radicals get equal stand-ins."""
    renamed = {}
    for radical in root:
        if radical in free and radical not in renamed:
            renamed[radical] = free[len(renamed)]
    return "".join(renamed.get(radical, radical) for radical in root)


_UNCHANGED = bytes(range(256))


# Cascade memo.  The cascade reads the consonants of ``RuleSet.free`` only
# as members of a class, so it commutes with any permutation of them.  A
# stand-in root is cascaded in canonical letters: its free radicals renamed
# to the first stand-ins, which no affix or codebook op writes, so that
# pattern letters such as m and s stay in place.  Stand-in roots of one code
# whose forms then coincide share one cascade per form.  The memo lives
# for one code, and its forms are cascaded as one batch (RuleSet.apply_many):
# one memo for all codes holds many more forms for few more hits.


def _renaming(root, free, targets):
    """Byte tables of a permutation of ``free`` and of its inverse, or None
    if it changes nothing.  It takes the free radicals of ``root``, in
    order of first appearance, to the first ``targets``, and those of the
    targets that are not radicals to the radicals that are not targets."""
    radicals = list(dict.fromkeys(r for r in root if r in free))
    chosen = list(targets[:len(radicals)])
    sources = radicals + [t for t in chosen if t not in radicals]
    images = chosen + [r for r in radicals if r not in chosen]
    if sources == images:
        return None
    forward, backward = bytearray(_UNCHANGED), bytearray(_UNCHANGED)
    for source, image in zip(sources, images):
        forward[ord(source)] = ord(image)
        backward[ord(image)] = ord(source)
    return forward, backward


def _translate(strings, table):
    """``strings`` renamed by the byte table ``table``, in one batch.  The
    internal alphabet is Latin-1, so each symbol is its own byte; a symbol
    beyond it, which only a rule can write, is left as it is, and
    check_internal rejects it."""
    text = "\n".join(strings)
    try:
        text = text.encode("latin-1").translate(table).decode("latin-1")
    except UnicodeEncodeError:
        text = text.translate(table)
    return text.split("\n")


def _expand_code(entries, ruleset, stand, targets):
    """The (paradigm, rule hits) or EntryFailed of each of ``entries``, all
    of one code, in their order.  The first entry of each stand-in root
    (over ``stand``) that builds, the next one if it does not, puts its
    underlying forms in canonical letters (free radicals renamed to
    ``targets``) in the code's memo, cascaded in one batch.  A key's
    paradigm is its distinct surfaces, checked with check_internal, and
    each cell's index among them; an entry renames them by the inverse of
    its own renaming, or fails with the key's error (renaming free
    consonants changes neither what check_internal rejects nor its
    message).  Module-level so that a process pool can send it to workers."""
    keys = []  # each entry's stand-in root, or its EntryFailed
    paradigms = {}  # stand-in root -> batch position of each cell's form, then its paradigm
    memo = {}  # canonical underlying form -> its position in the batch
    for entry in entries:
        key = stand_in_root(entry.root, stand)
        if key not in paradigms:
            try:
                stems = build_stems(entry)
                underlying = [inflect(stems, cell) for cell in CELLS]
            except ArabverbError as exc:
                keys.append(_failed(entry, exc))
                continue
            renaming = _renaming(entry.root, ruleset.free, targets)
            if renaming is not None:
                underlying = _translate(underlying, renaming[0])
            paradigms[key] = [memo.setdefault(form, len(memo)) for form in underlying]
        keys.append(key)
    surfaces, form_hits = ruleset.apply_many(list(memo))
    del memo
    for key, positions in paradigms.items():
        distinct = {}  # surface -> its index among the key's distinct surfaces
        cells = tuple([distinct.setdefault(surfaces[p], len(distinct)) for p in positions])
        try:
            for surface in distinct:
                check_internal(surface)
        except ArabverbError as exc:
            paradigms[key] = exc
            continue
        hits = {}
        for p in positions:
            for rule_id, n in form_hits[p].items():
                hits[rule_id] = hits.get(rule_id, 0) + n
        paradigms[key] = cells, list(distinct), hits
    out = []
    for entry, key in zip(entries, keys):
        if isinstance(key, EntryFailed):
            out.append(key)
        elif isinstance(paradigms[key], ArabverbError):
            out.append(_failed(entry, paradigms[key]))
        else:
            cells, distinct, hits = paradigms[key]
            renaming = _renaming(entry.root, ruleset.free, targets)
            if renaming is not None:
                distinct = _translate(distinct, renaming[1])
            out.append((Paradigm(entry.lemma, entry.root, entry.code, tuple(map(distinct.__getitem__, cells))),
                        hits))
    return out


def generate_all(entries, ruleset=None, workers=1, strict=False):
    """Expand a lexicon; per-entry failures are collected, not fatal.

    Returns (forms, stats): forms is a Forms over one Paradigm per entry
    that generated, in input order.  The entries of each code are expanded
    in one pass (see _expand_code): one paradigm per stand-in root (see
    special_consonants), renamed for each entry, its equal surfaces one
    string.  With workers > 1 the codes are expanded in a process pool, one
    task each; the output is identical to a serial run.  With strict=True
    an entry whose 3SM perfective active surface (CELLS[0]) is not its
    lemma fails as well.
    """
    entries = list(entries)
    rs = ruleset if ruleset is not None else rules.default_rules()
    stand = stand_ins(rs)
    targets = stand + "".join(sorted(rs.free.difference(stand)))
    codes = {}  # code -> its entries, in input order
    for entry in entries:
        codes.setdefault(entry.code, []).append(entry)
    expand = functools.partial(_expand_code, ruleset=rs, stand=stand, targets=targets)
    if workers > 1:
        import multiprocessing  # only a pool needs it; every import of arabverb would pay for it

        with multiprocessing.Pool(workers) as pool:
            expanded = pool.map(expand, codes.values())
    else:
        expanded = map(expand, codes.values())
    results = dict(zip(codes, map(iter, expanded)))  # code -> its entries' results, in order
    stats = GenStats()
    paradigms = []
    for entry in entries:
        result = next(results[entry.code])
        if isinstance(result, EntryFailed):
            stats.failures.append(result)
            continue
        paradigm, hits = result
        if strict and paradigm.surfaces[0] != entry.lemma:
            stats.failures.append(_failed(entry, BadLexicon(
                "lemma %s does not regenerate (got %s)" % (entry.lemma, paradigm.surfaces[0]))))
            continue
        paradigms.append(paradigm)
        for rule_id, n in hits.items():
            stats.rule_hits[rule_id] = stats.rule_hits.get(rule_id, 0) + n
    stats.pattern_histogram = dict(Counter(resolve_class(p.code).label for p in paradigms))
    stats.lemma_count, stats.form_count = len(paradigms), FORMS_PER_LEMMA * len(paradigms)
    return Forms(paradigms), stats


HEADER = "# surface_arabic\tsurface\tlemma\troot\tcode\ttag\tparadigm\tvoice"


# The last three columns of each cell's row, with the line end.
_CELL_TAILS = tuple("\t%s\t%s\t%s\n" % (c.tag, c.paradigm, c.voice) for c in CELLS)


def write_lexicon(forms, path):
    """Write the inflected lexicon TSV of ``forms``, a Forms: the paradigms
    sorted stably by (lemma, code), each as one block of 109 rows in CELLS
    order.  Each paradigm is written as it is formatted, so that no string
    holds the whole file.  The script column is derived from the surfaces
    (translit.to_scripts).  If writing raises (a surface outside the
    alphabet raises MalformedInternal), the partial file is removed
    (_remove_partial) and the error re-raised."""
    with open(path, "w", encoding="utf-8") as fh:
        try:
            fh.write(HEADER + "\n")
            for p in sorted(forms.paradigms, key=attrgetter("lemma", "code")):
                fh.write("".join(map("".join, zip(to_scripts(p.surfaces), repeat("\t"), p.surfaces,
                                                  repeat("\t%s\t%s\t%s" % (p.lemma, p.root, p.code)),
                                                  _CELL_TAILS))))
        except BaseException:
            _remove_partial(fh, path)
            raise


def _remove_partial(fh, path):
    """Close ``fh`` and unlink ``path`` only if ``path`` itself names the
    regular file ``fh`` wrote: a device, a pipe or a symbolic link (such as
    /dev/stdout redirected to a file) is left as it is.  An OSError here is
    dropped, so that the caller re-raises the error of the write."""
    try:
        written = os.fstat(fh.fileno())
        try:
            fh.close()
        except OSError:
            pass  # the file is partial either way
        named = os.lstat(path)
        if stat.S_ISREG(named.st_mode) and (named.st_dev, named.st_ino) == (written.st_dev, written.st_ino):
            os.unlink(path)
    except OSError:
        pass


def read_lexicon(path):
    """Read an inflected lexicon TSV back into a Forms; raises on a malformed
    row, naming its line.  Each paradigm is a block of rows: a row of cell
    0 opens it, and the rows of cells 1..108 of its lemma, root and code
    follow in CELLS order.  The code of each block must resolve.  The file
    streams row by row; a row splits once, into the script, the surface
    and the rest, which must equal the rest of the open block's next row.
    Only a line that does not (the header, a comment, a blank line, a row
    of cell 0, a last row with no line end, a malformed row) is split in
    full and checked.  The script column is not read: it is derived.  A
    file that is not UTF-8 raises, naming the file and the byte."""
    paradigms = []  # [lemma, root, code, surfaces, last line] of each block, as opened
    p = due = None  # the open block, and the rest of its next row after the surface
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                fields = raw.split("\t", 2)
                if fields[-1] != due or raw[0] == "#":
                    line = raw.rstrip("\n")
                    if not line or line[0] == "#":
                        continue
                    fields = line.split("\t")
                    if len(fields) != 8:
                        raise ArabverbError("line %d: expected 8 columns, got %d" % (lineno, len(fields)))
                    lemma, root, code = fields[2:5]
                    try:
                        cell = Cell(*fields[5:])  # raises for an illegal cell
                        resolve_class(code)
                    except ArabverbError as exc:
                        raise ArabverbError("line %d: %s" % (lineno, exc))
                    fields = (line + "\n").split("\t", 2)
                    if fields[2] != due:
                        if cell != CELLS[0]:
                            raise ArabverbError("line %d: no open paradigm of %s %s %s is due cell %s"
                                                % (lineno, lemma, root, code, cell))
                        surfaces = []
                        p = [lemma, root, code, surfaces, lineno]
                        paradigms.append(p)
                        head = "%s\t%s\t%s" % (lemma, root, code)
                        dues = [head + tail for tail in _CELL_TAILS] + [None]
                surfaces.append(fields[1])
                p[4] = lineno
                due = dues[len(surfaces)]
    except UnicodeDecodeError as exc:
        raise ArabverbError("%s is not UTF-8: byte 0x%02x (%s)"
                            % (path, exc.object[exc.start], exc.reason)) from None
    for j, (lemma, root, code, surfaces, lineno) in enumerate(paradigms):
        if len(surfaces) != FORMS_PER_LEMMA:
            raise ArabverbError("line %d: paradigm of %s %s %s ends after %d of %d cells"
                                % (lineno, lemma, root, code, len(surfaces), FORMS_PER_LEMMA))
        paradigms[j] = Paradigm(lemma, root, code, tuple(surfaces))
    return Forms(paradigms)


def write_stats(stats, path):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in stats.as_rows():
            fh.write("%s\t%s\n" % (key, value))
