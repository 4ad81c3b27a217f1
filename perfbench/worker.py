"""One measured process of a benchmark run.  run.py starts it as

    python3 perfbench/worker.py <mode> ...

with PYTHONPATH pointing at the checkout's src/, and reads the JSON object
it prints as its last line.  Modes:

  setup [--index TSV]       fresh-process set-up time
  compile LEMMAS OUT        lemma TSV -> inflected TSV, as `arabverb generate`
  compile LEMMAS OUT --spans FILE
                            the same, then TRACE_PAIRS pairs of untraced and
                            traced compiles; forms compared
  serve TSV QUERIES [--spans FILE]
                            read + index the TSV, check every query once,
                            then serve timed query windows (see serve)
  workers2 LEMMAS OUT --cpus LIST
                            generate_all(workers=2) on the listed CPUs

Only os, sys, json and time are imported before the set-up clock starts.
"""

import json
import os
import sys
import time

TRACE_PAIRS = 3


def _emit(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def _maxrss_kb():
    """Peak resident set of this process since it was exec'd.  ru_maxrss
    would also count the parent's resident set at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(index_tsv):
    start = time.perf_counter()
    import arabverb

    arabverb.default_rules()
    if index_tsv:
        forms = arabverb.read_lexicon(index_tsv)
        arabverb.FormIndex(forms)
    _emit({"setup_s": time.perf_counter() - start, "arabverb": arabverb.__file__})


def _compile(arabverb, lemmas, out, wrap=lambda fn, name: fn):
    """What `arabverb generate --lexicon LEMMAS --out OUT` does, timed."""
    load = wrap(arabverb.load_lexicon, "lexicon.load_lexicon")
    generate = wrap(arabverb.generate_all, "pipeline.generate_all")
    write = wrap(arabverb.write_lexicon, "pipeline.write_lexicon")
    t0 = time.perf_counter()
    report = load(lemmas)
    t1 = time.perf_counter()
    forms, stats = generate(report.entries)
    t2 = time.perf_counter()
    write(forms, out)
    t3 = time.perf_counter()
    result = {
        "seconds": t3 - t0,
        "load_s": t1 - t0,
        "generate_s": t2 - t1,
        "write_s": t3 - t2,
        "entries": len(report.entries),
        "diagnostics": [list(d) for d in report.diagnostics],
        "forms": len(forms),
        "failures": [str(f) for f in stats.failures],
        "rule_hits": stats.rule_hits,
        "patterns": stats.pattern_histogram,
    }
    return forms, result


def compile_(lemmas, out, spans_path):
    import gc

    import arabverb

    gc.collect()
    forms, result = _compile(arabverb, lemmas, out)
    if spans_path:
        import statistics

        from spans import Tracer

        # The compile above warms the process.  Each pair then compiles
        # untraced and traced back to back, so that a change of host speed
        # between pairs cancels out of the pair's difference.
        pairs, equal = [], True
        for _ in range(TRACE_PAIRS):
            gc.collect()
            _forms, untraced = _compile(arabverb, lemmas, out)
            del _forms
            gc.collect()
            tracer = Tracer()
            tracer.install()
            try:
                traced_forms, traced = _compile(arabverb, lemmas, out + ".traced", tracer.wrap)
            finally:
                tracer.uninstall()
            equal = equal and traced_forms == forms
            del traced_forms
            pairs.append((untraced["seconds"], traced["seconds"]))
        tracer.write(spans_path)
        result["trace_pairs_s"] = pairs
        result["trace_overhead_s"] = statistics.median(t - u for u, t in pairs)
        result["traced"] = traced
        result["traced_forms_equal"] = equal
        result["layers"] = _layers(tracer)
        result["write_bytes"] = os.path.getsize(out)
    result["maxrss_kb"] = _maxrss_kb()
    _emit(result)


def _layers(tracer):
    from spans import median_us

    summary = tracer.summary()
    layers = {name: {"calls": s["calls"], "self_s": s["self_s"], "median_us": median_us(s["durations"])}
              for name, s in summary.items()}
    for name, n in tracer.counts.items():
        layers[name] = {"calls": n, "self_s": 0.0, "median_us": 0.0}
    return layers


class QueryLoop:
    """A closed loop with one client: each query is sent when the previous
    one returns.  Only the call is timed; its result is checked after."""

    def __init__(self, arabverb, index, queries, wrap):
        from arabverb.errors import ArabverbError
        from checks import check_query

        self.check = check_query
        self.error = ArabverbError
        self.index = index
        self.queries = queries
        self.calls = {
            "inflect": wrap(arabverb.inflect_verb, "analyzer.inflect_verb"),
            "derive": wrap(arabverb.derive_root, "analyzer.derive_root"),
        }
        self.analyze = wrap(arabverb.analyze, "analyzer.analyze")
        self.issued = 0
        self.failures = []
        self.hits = {}

    def run(self, count=None, seconds=None):
        """Latencies (ns) per query kind, for ``count`` queries or until
        ``seconds`` have passed."""
        from array import array

        latency = {}
        clock = time.perf_counter_ns
        deadline = clock() + int((seconds or 0) * 1e9)
        stop = self.issued + (count or 0)
        queries, index, calls, analyze = self.queries, self.index, self.calls, self.analyze
        while True:
            kind, text, expected = queries[self.issued % len(queries)]
            fn = calls.get(kind, analyze)
            start = clock()
            try:
                result = fn(index, text)
            except self.error as exc:
                end = clock()
                result, problem = None, "%s %r raised %s" % (kind, text, exc)
            else:
                end = clock()
                problem = self.check(kind, result, expected)
            latency.setdefault(kind, array("q")).append(end - start)
            self.issued += 1
            if problem:
                self.failures.append(problem)
            elif kind not in calls:
                self.hits[kind] = self.hits.get(kind, 0) + len(result)
            if (self.issued >= stop) if count else (end >= deadline):
                return latency


def _rank(sorted_values, q):
    """Nearest-rank quantile of a sorted list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _window(latency):
    pooled = sorted(x for arr in latency.values() for x in arr)
    return {"n": len(pooled), "p50_us": _rank(pooled, 0.50) / 1e3, "p99_us": _rank(pooled, 0.99) / 1e3}


def serve(tsv, queries_path, spans_path):
    """Read and index the TSV, then check every query once.

    Traced, that one pass is the measurement.  Untraced, the process then
    serves timed windows: each line ``window SECONDS`` on stdin runs the
    loop for that long and answers with the window's percentiles; any other
    line ends the process."""
    import gc

    import arabverb

    tracer = None
    wrap = lambda fn, name: fn  # noqa: E731
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        wrap = tracer.wrap
    t0 = time.perf_counter()
    forms = wrap(arabverb.read_lexicon, "pipeline.read_lexicon")(tsv)
    index = wrap(arabverb.FormIndex, "analyzer.FormIndex")(forms)
    del forms
    index_s = time.perf_counter() - t0
    with open(queries_path, encoding="utf-8") as fh:
        loop = QueryLoop(arabverb, index, json.load(fh), wrap)
    latency = loop.run(count=len(loop.queries))
    result = {"index_s": index_s, "index_entries": len(index), "queries": loop.issued,
              "failed": len(loop.failures), "failures": loop.failures[:5]}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans_path)
        result["layers"] = _layers(tracer)
        result["per_kind"] = {kind: {"n": len(arr), "median_us": _rank(sorted(arr), 0.5) / 1e3,
                                     "hits": loop.hits.get(kind, 0)} for kind, arr in latency.items()}
        _emit(result)
        return
    del latency
    _emit(result)
    for line in sys.stdin:
        command = line.split()
        if not command or command[0] != "window":
            break
        gc.collect()
        window = _window(loop.run(seconds=float(command[1])))
        window["failed"] = len(loop.failures)
        window["failures"] = loop.failures[:5]
        _emit(window)
    _emit({"queries": loop.issued, "failed": len(loop.failures), "maxrss_kb": _maxrss_kb()})


def workers2(lemmas, out, cpus):
    import arabverb

    os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
    report = arabverb.load_lexicon(lemmas)
    start = time.perf_counter()
    forms, stats = arabverb.generate_all(report.entries, workers=2)
    seconds = time.perf_counter() - start
    arabverb.write_lexicon(forms, out)
    _emit({"seconds": seconds, "forms": len(forms), "failures": [str(f) for f in stats.failures]})


def main(argv):
    mode, rest = argv[0], argv[1:]
    opts = {}
    positional = []
    while rest:
        item = rest.pop(0)
        if item.startswith("--"):
            opts[item[2:]] = rest.pop(0)
        else:
            positional.append(item)
    if mode == "setup":
        setup(opts.get("index"))
    elif mode == "compile":
        compile_(positional[0], positional[1], opts.get("spans"))
    elif mode == "serve":
        serve(positional[0], positional[1], opts.get("spans"))
    elif mode == "workers2":
        workers2(positional[0], positional[1], opts["cpus"])
    else:
        sys.exit("unknown mode %r" % mode)


if __name__ == "__main__":
    main(sys.argv[1:])
