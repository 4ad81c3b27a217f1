"""In-memory spans around the program's public functions, for traced runs.

The program is not instrumented: ``Tracer.install`` replaces each public
function by a timing wrapper under the name its calling module uses (for
example ``pipeline.build_stems``), and ``uninstall`` puts the originals
back.  A name missing from the program is an error, not a layer with zero
calls: a refactor that moves a call must point SITES at its new name.
"""

import importlib
import statistics
import time
from array import array

# (module, attribute path, span name).  One layer can be called from several
# modules; each call site is wrapped under the layer's span name.
SITES = (
    ("arabverb.rules", "RuleSet.apply", "rules.RuleSet.apply"),
    ("arabverb.pipeline", "build_stems", "stems.build_stems"),
    ("arabverb.pipeline", "inflect", "inflect.inflect"),
    ("arabverb.pipeline", "to_script", "translit.to_script"),
    ("arabverb.pipeline", "resolve_class", "lexicon.resolve_class"),
    ("arabverb.stems", "resolve_class", "lexicon.resolve_class"),
    ("arabverb.lexicon", "resolve_class", "lexicon.resolve_class"),
    ("arabverb.analyzer", "resolve_class", "lexicon.resolve_class"),
    ("arabverb.lexicon", "to_internal", "translit.to_internal"),
    ("arabverb.analyzer", "to_internal", "translit.to_internal"),
)
# Counted, not timed: called once per candidate of every analysis.
COUNTED = (("arabverb.analyzer", "matches_partial", "analyzer.matches_partial"),)


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until written."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.counts = {}
        self._stack = []
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        """``fn`` recording one span per call."""
        nid = self._id(name)
        stack, ids, starts, ends, parents = (
            self._stack, self.name_id, self.start, self.end, self.parent)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counted(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for sites, make in ((SITES, self.wrap), (COUNTED, self.counted)):
            for module_name, path, name in sites:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                if not hasattr(owner, attr):
                    self.uninstall()
                    raise LookupError("trace site %s.%s is gone; point spans.SITES at its new name"
                                      % (module_name, path))
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, make(original, name))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total self seconds, per-call durations (ns)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[self.name_id[i]], {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (dur - child[i]) / 1e9
            entry["durations"].append(dur)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%d\t%d\t%d\n" % (
                    i, self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]))


def median_us(durations):
    return statistics.median(durations) / 1e3 if durations else 0.0
