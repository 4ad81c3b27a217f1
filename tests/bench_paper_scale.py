"""Paper-scale benchmark: 15,452 lemmas, 1,684,268 inflected forms.

    python3 tests/bench_paper_scale.py [--label L] [--src DIR] [--out DIR] [--commit C]

Draws 15,452 entries over the 24 bundled codes the way the benchmark's
mixed-class workload draws its synthetic entries (the bundled sample and
gold entries, then seeded roots, seed string ``paper/0/entries``), with the
helpers of ``perfbench/workloads.py``.  Each layer runs in a child
process, after the layers it needs, and reports its own wall time and the
peak RSS (``VmHWM``) of the run up to its end.  The write_lexicon and
read_lexicon children run REPEATS times each, and their layers record the
median and the range (``wall_s_range``, ``peak_rss_mb_range``) of those
runs:

  generate_all   load the lemma TSV, generate_all serial
  write_lexicon  the same, then write the inflected TSV
  read_lexicon   read the inflected TSV back
  FormIndex      the same, then build the index
  queries        in the FormIndex child, once the index has taken its
                 figures: time ``analyze`` over a seeded query set
  cli_analyze    a cold ``arabverb analyze`` of each of CLI_FORMS seeded
                 surfaces (seed string ``paper/0/cli``) on the lemma TSV,
                 each in its own child process: the median wall time and
                 peak RSS (the child's ``ru_maxrss``)
  cli_analyze_no_free  the same for one more surface, of a seeded entry
                 whose root has no free consonant (``pipeline.stand_ins``),
                 so that the query reaches every entry whose root has none
                 (``analyzer.entries_answering``)
  cli_inflect    a cold ``arabverb inflect`` of the lemma of a seeded entry,
                 in Arabic script
  cli_derive     a cold ``arabverb derive`` of the root of a seeded entry

The query set holds QUERIES_PER_KIND queries of each of the six analysis
kinds of the lookup workload (exact, partial and bare diacritics, in the
internal transliteration and in Arabic script), each drawn from a seeded
cell of a seeded record of the index (seed string ``paper/0/queries``),
and issued in one shuffled closed loop with each call timed alone.  Every
answer must hold the analysis it was drawn from.

It writes ``BENCH_paper_<label>.json`` to ``--out`` (default: the
repository root) with each layer's time and RSS, the forms, failures,
bytes and sha256 of the TSV, the (code, stand-in root) keys of the
paradigm cache (``stand_in_keys``, counted after generate_all is timed),
the forms it passes to ``RuleSet.apply_many`` (``cascaded_forms``,
counted in a second run after its peak RSS is taken), the analyses the
index holds (``index_entries``, ``len`` of the FormIndex), the count, p50
and p99 (nearest rank) of the query latencies per kind and pooled, each
cold CLI query with its figures, the interpreter, ``nproc``, the commit,
and the load average (``os.getloadavg()``) at the start and at the end of
the run (``loadavg_start``, ``loadavg_end``), so that a run on a loaded
host can be told from a slow program.  ``--src`` measures another
checkout's ``src``.  It exits 1 unless there are 1,684,268 forms, read
back and indexed, no failure and every query answered, the cold CLI
queries included: the output of each of those must hold every row of
the entry it was drawn from (the analysis of the surface, the 109 rows
of the lemma's table, or the lemma and label).  It takes about 25 s on
a 2-core host and peaks near 0.5 GB (the FormIndex child), so pytest
does not collect it (the file name does not start with ``test_``).
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from worker import _rank  # noqa: E402

ENTRIES = 15452
FORMS = 1684268
SEED = "paper/0/entries"
QUERY_SEED = "paper/0/queries"
KINDS = ("exact", "partial", "bare", "script", "script-partial", "script-bare")
# The nearest-rank p99 of 5,000 samples is the 4,951st, with 49 beyond it.
QUERIES_PER_KIND = 5000
# One child each; the queries layer runs in the FormIndex child.
LAYERS = ("generate_all", "write_lexicon", "read_lexicon", "FormIndex")
# The children of these layers run this often; one run is too noisy there.
REPEATS = {"write_lexicon": 3, "read_lexicon": 3}
CLI_SEED = "paper/0/cli"
CLI_FORMS = 4


def paper_rows():
    """The bundled entries, then seeded synthetic ones up to ENTRIES, drawn
    as workloads.mixed_class draws its synthetic entries."""
    rng = random.Random(SEED)
    bundled = workloads.bundled_entries()
    taken = {(row[1], row[2]) for row in bundled}
    letters = workloads.BASIC + workloads.WEAK
    codes = sorted(workloads.SHAPES)
    synthetic = []
    while len(bundled) + len(synthetic) < ENTRIES:
        code = rng.choice(codes)
        if workloads.SHAPES[code].count("4"):
            radicals = rng.sample(letters, 4)
        else:
            radicals = rng.sample(letters, 3)
            if rng.random() < workloads.GEMINATE_SHARE:
                radicals[2] = radicals[1]
        root = "".join(radicals)
        if (root, code) in taken:
            continue
        taken.add((root, code))
        synthetic.append((workloads.script(workloads.lemma_for(root, code)), root, code, "synthetic"))
    return bundled + sorted(synthetic, key=lambda row: (row[2], row[1]))


def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_layer(layer, src, lemmas, tsv):
    """Run ``layer`` and the layers it needs in this process; returns its
    wall time, the peak RSS so far and what it counted.  The FormIndex
    layer also returns the queries layer's, under ``queries``."""
    sys.path.insert(0, src)
    import arabverb

    out = {}
    if layer in ("generate_all", "write_lexicon"):
        entries = arabverb.load_lexicon(lemmas).entries
        start = time.perf_counter()
        forms, stats = arabverb.generate_all(entries)
        wall = time.perf_counter() - start
        out.update(entries=len(entries), forms=len(forms), failures=len(stats.failures))
        if layer == "generate_all":
            from arabverb import pipeline

            free = pipeline.stand_ins(arabverb.default_rules())
            out["stand_in_keys"] = len({(str(e.code), pipeline.stand_in_root(e.root, free)) for e in entries})
        if layer == "write_lexicon":
            start = time.perf_counter()
            arabverb.write_lexicon(forms, tsv)
            wall = time.perf_counter() - start
    else:
        start = time.perf_counter()
        forms = arabverb.read_lexicon(tsv)
        wall = time.perf_counter() - start
        out.update(forms=len(forms))
        if layer == "FormIndex":
            start = time.perf_counter()
            index = arabverb.FormIndex(forms)
            wall = time.perf_counter() - start
            out.update(index_entries=len(index))
    out.update(wall_s=round(wall, 3), peak_rss_mb=round(peak_rss_mb(), 1))
    if layer == "generate_all":
        del forms
        out["cascaded_forms"] = cascaded_forms(entries)
    if layer == "FormIndex":
        queries = paper_queries(forms.paradigms, arabverb.CELLS, arabverb.to_script)
        del forms
        start = time.perf_counter()
        latency, missed = time_queries(arabverb.analyze, index, queries)
        wall = time.perf_counter() - start
        out["queries"] = dict(wall_s=round(wall, 3), peak_rss_mb=round(peak_rss_mb(), 1),
                              latency=latency, missed=missed)
    return out


def cascaded_forms(entries):
    """The count of forms that generate_all passes to RuleSet.apply_many,
    from a second, untimed run of it with that method wrapped."""
    from arabverb import generate_all, rules

    apply_many, passed = rules.RuleSet.apply_many, []

    def counted(self, forms):
        passed.append(len(forms))
        return apply_many(self, forms)

    rules.RuleSet.apply_many = counted
    try:
        generate_all(entries)
    finally:
        rules.RuleSet.apply_many = apply_many
    return sum(passed)


def _partial(text, marks, rng):
    """``text`` without each of its ``marks`` with probability 1/2, and
    without its first mark if that dropped none."""
    kept = [ch for ch in text if ch not in marks or rng.random() < 0.5]
    if len(kept) == len(text):
        first = next((i for i, ch in enumerate(text) if ch in marks), None)
        if first is not None:
            del kept[first]
    return "".join(kept)


def paper_queries(records, cells, to_script):
    """QUERIES_PER_KIND queries of each kind, shuffled: (kind, text, the
    (lemma, root, code, surface, tag, paradigm, voice) drawn)."""
    rng = random.Random(QUERY_SEED)
    queries = []
    for kind in KINDS:
        for _ in range(QUERIES_PER_KIND):
            record = records[rng.randrange(len(records))]
            i = rng.randrange(len(cells))
            surface, cell = record.surfaces[i], cells[i]
            if kind.startswith("script"):
                text, marks = to_script(surface), workloads.SCRIPT_DIACRITICS
            else:
                text, marks = surface, workloads.DIACRITICS
            if kind.endswith("partial"):
                text = _partial(text, marks, rng)
            elif kind.endswith("bare"):
                text = "".join(ch for ch in text if ch not in marks)
            queries.append((kind, text, (record.lemma, record.root, record.code, surface,
                                         cell.tag, cell.paradigm, cell.voice)))
    rng.shuffle(queries)
    return queries


def time_queries(analyze, index, queries):
    """Each query timed alone; returns the count, p50 and p99 (us) per kind
    and pooled, and how many answers lack the analysis they were drawn from."""
    clock = time.perf_counter_ns
    latency = {kind: [] for kind in KINDS}
    answers = []
    for kind, text, _drawn in queries:
        start = clock()
        hits = analyze(index, text)
        latency[kind].append(clock() - start)
        answers.append(hits)
    missed = sum(1 for (_kind, _text, drawn), hits in zip(queries, answers)
                 if drawn not in {(a.lemma, a.root, a.code, a.surface, a.tag, a.paradigm, a.voice) for a in hits})
    latency["pooled"] = [ns for kind in KINDS for ns in latency[kind]]
    return {kind: {"n": len(ns), "p50_us": round(_rank(sorted(ns), 0.50) / 1e3, 2),
                   "p99_us": round(_rank(sorted(ns), 0.99) / 1e3, 2)}
            for kind, ns in latency.items()}, missed


def cli_queries(src, lemmas):
    """The cold CLI queries: CLI_FORMS surfaces, each of a seeded cell of a
    seeded entry, then one of an entry whose root has no free consonant,
    then the lemma and the root of a seeded entry each.  Each is the
    command's arguments and the output rows its answer must hold."""
    sys.path.insert(0, src)
    import arabverb
    from arabverb import pipeline

    entries = arabverb.load_lexicon(lemmas).entries
    free = set(pipeline.stand_ins(arabverb.default_rules()))
    rng = random.Random(CLI_SEED)
    drawn = rng.sample(entries, CLI_FORMS) + [rng.choice([e for e in entries if not free & set(e.root)])]
    drawn += [rng.choice(entries), rng.choice(entries)]
    records = arabverb.generate_all(drawn)[0].paradigms
    queries = []
    for record in records[:-2]:
        i = rng.randrange(len(arabverb.CELLS))
        cell = arabverb.CELLS[i]
        label = arabverb.resolve_class(record.code).label
        queries.append([["analyze", "--form", record.surfaces[i]],
                        [[record.surfaces[i], record.lemma, record.root, label, cell.tag, cell.paradigm, cell.voice]]])
    lemma, root = records[-2], records[-1]
    queries.append([["inflect", "--lemma", arabverb.to_script(lemma.lemma)],
                    [[cell.tag, cell.paradigm, cell.voice, surface, arabverb.to_script(surface)]
                     for cell, surface in zip(arabverb.CELLS, lemma.surfaces)]])
    queries.append([["derive", "--root", root.root],
                    [[root.lemma, arabverb.to_script(root.lemma), arabverb.resolve_class(root.code).label]]])
    return queries


def cold_cli(src, lemmas, command, expected):
    """One cold ``arabverb`` run of ``command``, a command and its query, on
    the lemma TSV in a child process: its wall time, its peak RSS, its
    count of output rows (a ``# code`` line of inflect is no row), and
    whether they hold every row of ``expected``."""
    argv = [sys.executable, "-m", "arabverb.cli"] + command + ["--lexicon", lemmas]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        out = proc.stdout.read().decode("utf-8")
    # wait4 gives this child's own rusage, not the maximum over all children.
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rows = [tuple(line.split("\t")) for line in out.splitlines() if not line.startswith("# code ")]
    answered = proc.returncode == 0 and set(map(tuple, expected)) <= set(rows)
    return dict(command=command[0], query=command[2], wall_s=round(wall, 3),
                peak_rss_mb=round(usage.ru_maxrss / 1024, 1), rows=len(rows), answered=answered)


def child(layer, src, lemmas, tsv):
    argv = [sys.executable, os.path.abspath(__file__), "--layer", layer, "--src", src,
            "--lemmas", lemmas, "--tsv", tsv]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def repeated(runs):
    """The figures of a layer that ran once per item of ``runs``: those of
    its last run, with the median and the range of the wall time and the
    peak RSS over all of them."""
    out = dict(runs[-1], runs=len(runs))
    for key in ("wall_s", "peak_rss_mb"):
        values = [run[key] for run in runs]
        out[key], out[key + "_range"] = statistics.median(values), [min(values), max(values)]
    return out


def commit_of(src):
    try:
        done = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="local", help="names the output, BENCH_paper_<label>.json")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src directory to measure")
    ap.add_argument("--out", default=ROOT, help="directory of the JSON output")
    ap.add_argument("--commit", help="the commit to record (default: git rev-parse HEAD of --src)")
    ap.add_argument("--layer", choices=LAYERS + ("cli_queries",), help=argparse.SUPPRESS)
    ap.add_argument("--lemmas", help=argparse.SUPPRESS)
    ap.add_argument("--tsv", help=argparse.SUPPRESS)
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    if args.layer == "cli_queries":
        print(json.dumps(cli_queries(src, args.lemmas)))
        return 0
    if args.layer:
        print(json.dumps(run_layer(args.layer, src, args.lemmas, args.tsv)))
        return 0

    loadavg_start = list(os.getloadavg())
    with tempfile.TemporaryDirectory(prefix="arabverb-paper-") as tmp:
        lemmas, tsv = os.path.join(tmp, "lemmas.tsv"), os.path.join(tmp, "inflected.tsv")
        text = workloads.lemma_tsv(paper_rows())
        with open(lemmas, "w", encoding="utf-8") as fh:
            fh.write(text)
        layers = {}
        for layer in LAYERS:
            if layer in REPEATS:
                layers[layer] = repeated([child(layer, src, lemmas, tsv) for _ in range(REPEATS[layer])])
            else:
                layers[layer] = child(layer, src, lemmas, tsv)
            print(layer, json.dumps(layers[layer]), flush=True)
        layers["queries"] = layers["FormIndex"].pop("queries")
        cli = [cold_cli(src, lemmas, command, expected)
               for command, expected in child("cli_queries", src, lemmas, tsv)]
        print("cli", json.dumps(cli), flush=True)
        layers["cli_analyze"] = {key: round(statistics.median(run[key] for run in cli[:CLI_FORMS]), digits)
                                 for key, digits in (("wall_s", 3), ("peak_rss_mb", 1))}
        layers["cli_analyze_no_free"], layers["cli_inflect"], layers["cli_derive"] = cli[CLI_FORMS:]
        result = {
            "label": args.label,
            "commit": args.commit or commit_of(src),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg_start": loadavg_start,
            "loadavg_end": list(os.getloadavg()),
            "entries": layers["generate_all"]["entries"],
            "lemma_tsv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "forms": layers["generate_all"]["forms"],
            "failures": layers["generate_all"]["failures"],
            "stand_in_keys": layers["generate_all"]["stand_in_keys"],
            "cascaded_forms": layers["generate_all"]["cascaded_forms"],
            "tsv_bytes": os.path.getsize(tsv),
            "tsv_sha256": sha256_of(tsv),
            "read_forms": layers["read_lexicon"]["forms"],
            "index_entries": layers["FormIndex"]["index_entries"],
            "layers": {layer: {key: r[key] for key in ("wall_s", "peak_rss_mb", "runs", "wall_s_range",
                                                         "peak_rss_mb_range") if key in r}
                       for layer, r in layers.items()},
            "queries": layers["queries"]["latency"],
            "queries_missed": layers["queries"]["missed"],
            "cli_queries": cli,
            "cli_missed": sum(1 for run in cli if not run["answered"]),
        }
    path = os.path.join(args.out, "BENCH_paper_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    ok = (result["forms"] == result["read_forms"] == result["index_entries"] == FORMS
          and result["failures"] == result["queries_missed"] == result["cli_missed"] == 0)
    print("%s: %d forms, %d failures, %d queries and %d cold CLI queries missed, TSV %s -> %s" % (
        "ok" if ok else "FAILED", result["forms"], result["failures"], result["queries_missed"],
        result["cli_missed"], result["tsv_sha256"][:12], path))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
