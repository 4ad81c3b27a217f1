"""Benchmark of the arabverb engine: one run of one workload.

    python3 perfbench/run.py --workload sound-bulk --seed 1 --seconds 30 --trace 0

Run it from anywhere; it builds nothing, imports the engine from the
checkout's src/ and writes only under the checkout's .perfbench/.

Every run compiles the workload's seeded lemma lexicon into an inflected
TSV (what `arabverb generate` does), serves a closed loop of lookups over
that TSV, times `arabverb analyze` cold starts and fresh-process set-up,
and checks every output (see checks.py).  With --trace 0 it prints the
end-to-end metrics; with --trace 1 it times each module's public calls
(see spans.py) and prints the per-layer metrics.  The last line of stdout
is one JSON object; a run whose output fails a check reports no number and
exits 1.  The full record, with the environment and per-rule hit counts,
goes to .perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLD_FORMS = os.path.join(ROOT, "tests", "data", "gold_forms.tsv")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

# (name, unit) of every metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("compile_forms_per_s", "forms/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("cli_analyze_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)
PER_LAYER = (
    ("rules.apply_s", "s"), ("rules.apply_calls", "count"),
    ("rules.fired_per_form", "rules/form"), ("rules.rules_witnessed", "count"),
    ("translit.to_script_s", "s"), ("translit.to_script_calls", "count"),
    ("translit.to_internal_us", "us"),
    ("stems.build_stems_s", "s"), ("stems.build_stems_calls", "count"),
    ("inflect.inflect_s", "s"), ("inflect.inflect_calls", "count"),
    ("lexicon.load_lexicon_s", "s"), ("lexicon.resolve_class_calls", "count"),
    ("lexicon.resolve_class_s", "s"),
    ("pipeline.generate_all_self_s", "s"), ("pipeline.generate_all_workers2_s", "s"),
    ("pipeline.write_lexicon_s", "s"), ("pipeline.write_bytes", "bytes"),
    ("pipeline.read_lexicon_s", "s"),
    ("analyzer.FormIndex_s", "s"), ("analyzer.index_entries", "count"),
    ("analyzer.analyze_exact_us", "us"), ("analyzer.analyze_partial_us", "us"),
    ("analyzer.analyze_bare_us", "us"), ("analyzer.analyze_script_us", "us"),
    ("analyzer.analyze_script_partial_us", "us"), ("analyzer.analyze_script_bare_us", "us"),
    ("analyzer.analyze_miss_us", "us"), ("analyzer.candidates_per_query", "forms/query"),
    ("analyzer.hit_ratio", "share"), ("analyzer.inflect_verb_us", "us"),
    ("analyzer.derive_root_us", "us"),
    ("evaluate.evaluate_s", "s"), ("evaluate.precision", "share"),
    ("cli.import_ms", "ms"), ("cli.analyze_ms", "ms"),
    ("trace.overhead_s", "s"),
)

# One round of an untraced run: one compile, `setups` set-up probes,
# `windows` query windows of WINDOW_S seconds and `cli` CLI calls.  Rounds
# repeat until --seconds are used, so every metric samples the whole run.
ROUNDS = {
    "sound-bulk": {"setups": 3, "windows": 4, "cli": 2},
    "mixed-class": {"setups": 3, "windows": 4, "cli": 2},
    "lookup": {"setups": 2, "windows": 6, "cli": 2},
}
WINDOW_S = 0.25
MIN_ROUNDS = 3
TRACED_CLI = 3
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 60
RUN_LIMIT_S = 170


class Failed(Exception):
    """A check failed or a measured process did not finish."""


class Server:
    """The serving process of an untraced run, alive across rounds; see
    worker.serve for its protocol."""

    def __init__(self, run):
        self.run = run
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "serve", run.tsv, run.queries]
        self.err = open(os.path.join(run.dir, "serve.err"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=run.env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err, text=True,
                                     start_new_session=True)

    def __enter__(self):
        self.ready = self.reply(CHILD_TIMEOUT_S)
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.err.close()

    def reply(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise Failed("serve: no reply within %.0fs (see serve.err)" % timeout)
        res = json.loads(line)
        if res["failed"]:
            self.run.failed += res["failed"]
            self.run.fail(["query: %s" % f for f in res["failures"]])
        return res

    def window(self, seconds):
        self.proc.stdin.write("window %.3f\n" % seconds)
        self.proc.stdin.flush()
        return self.reply(seconds + CHILD_TIMEOUT_S)

    def close(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        res = self.reply(CHILD_TIMEOUT_S)
        self.run.attempted += res["queries"]
        return res


class Run:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.workload = args.workload
        self.iseed = workloads.input_seed(args.seed)
        self.dir = os.path.join(OUT, "%s-trace%d" % (args.workload, args.trace))
        shutil.rmtree(self.dir, ignore_errors=True)
        self.tmp = os.path.join(self.dir, "tmp")
        os.makedirs(self.tmp)
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.tmp)
        # Every measured process runs on the CPU that runs the calibration.
        self.cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpus[0]})
        self.expected = checks.expected_for(self.workload, self.iseed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.record = {}

    # -- processes ---------------------------------------------------------

    def child(self, argv, timeout=CHILD_TIMEOUT_S):
        """Run a process to completion; returns (stdout, wall seconds).

        The process gets its own session so that a timeout kills it and
        everything it started (a worker pool included)."""
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        timeout = min(timeout, left)
        if timeout <= 0:
            raise Failed("run limit of %ds reached" % RUN_LIMIT_S)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise TimeoutError("%s timed out after %.0fs" % (argv[1:3], timeout))
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise Failed("%s exited %d: %s" % (argv[1:3], proc.returncode, err.strip()[-800:]))
        return out, wall

    def worker(self, *argv, timeout=CHILD_TIMEOUT_S):
        out, _wall = self.child([sys.executable, os.path.join(HERE, "worker.py")] + list(argv), timeout)
        return json.loads(out.strip().splitlines()[-1])

    def fail(self, problems):
        self.problems.extend(problems)
        if problems:
            raise Failed("; ".join(problems[:3]))

    # -- phases ------------------------------------------------------------

    def inputs(self):
        self.lemmas = workloads.write_inputs(self.workload, self.args.seed, self.dir)
        self.entries = len(workloads.lemma_rows(self.workload, self.args.seed))
        self.tsv = os.path.join(self.dir, "inflected.tsv")

    def compile_once(self, spans=None):
        argv = ["compile", self.lemmas, self.tsv] + (["--spans", spans] if spans else [])
        res = self.worker(*argv)
        self.attempted += self.entries
        self.failed += len(res["failures"])
        problems = ["compile: %s" % f for f in res["failures"][:3]]
        problems += ["lexicon line %d: %s" % tuple(d) for d in res["diagnostics"][:3]]
        if res["entries"] != self.entries or res["forms"] != self.entries * checks.FORMS_PER_LEMMA:
            problems.append("compile: %d entries -> %d forms" % (res["entries"], res["forms"]))
        problems += checks.check_digest(self.tsv, self.expected)
        self.fail(problems)
        self.record["rule_hits"] = res["rule_hits"]
        self.record["patterns"] = res["patterns"]
        return res

    def check_output(self):
        """Output checks outside timing; returns the TSV rows."""
        import arabverb
        from arabverb import evaluate

        rows = checks.read_forms(self.tsv)
        problems = checks.check_paradigm_law(rows, self.entries)
        problems += checks.check_fixed_point(rows, self.expected, arabverb.apply_cascade)
        self.fail(problems)
        gold = arabverb.load_lexicon(workloads.GOLD_LEXICON).entries
        forms, _stats = arabverb.generate_all(gold)
        generated = evaluate.forms_to_normalized(forms)
        reference = evaluate.load_normalized(GOLD_FORMS)
        run_eval = self.traced_eval if self.args.trace else evaluate.evaluate
        report, _diff = run_eval(reference, generated)
        self.fail(checks.check_gold(report, len(generated)))
        self.gold_rows = generated
        self.gold_report = report
        return rows

    def write_queries(self, rows):
        self.queries = os.path.join(self.dir, "queries.json")
        workloads.write_queries(self.queries, workloads.queries(self.workload, self.args.seed, rows))

    def setup_probe(self):
        index = ["--index", self.tsv] if self.workload == "lookup" else []
        res = self.worker("setup", *index)
        if not os.path.realpath(res["arabverb"]).startswith(os.path.realpath(SRC) + os.sep):
            self.fail(["setup imported arabverb from %s" % res["arabverb"]])
        return res["setup_s"]

    def cli_analyze(self, form):
        """Wall seconds of one `arabverb analyze` cold start, checked."""
        lemma, tag, paradigm, voice, surface = form
        argv = [sys.executable, "-m", "arabverb.cli", "analyze", "--form", surface,
                "--lexicon", workloads.GOLD_LEXICON]
        self.attempted += 1
        try:
            out, wall = self.child(argv)
        except Failed:
            self.failed += 1
            raise
        lines = [line.split("\t") for line in out.splitlines()]
        if not any(f[:2] == [surface, lemma] and f[4:7] == [tag, paradigm, voice] for f in lines):
            self.failed += 1
            self.fail(["cli analyze %s: analysis %s %s %s %s missing" % (surface, lemma, tag, paradigm, voice)])
        return wall

    def cli_forms(self, n):
        return workloads.cli_forms(self.args.seed, self.gold_rows, n)

    # -- the two kinds of run ----------------------------------------------

    def calibrated(self, measure, samples, pool):
        """Run ``measure`` between two calibrations.  Its result goes to
        ``samples``, the calibration timings to ``pool``."""
        pool += calibrate.timings()
        samples.append(measure())
        pool += calibrate.timings()

    def end_to_end(self):
        plan = ROUNDS[self.workload]
        self.inputs()
        compiles, setups, windows, cli = [], [], [], []
        cal = {"compile": [], "setup": [], "window": [], "cli": []}
        self.calibrated(self.compile_once, compiles, cal["compile"])
        rows = self.check_output()
        self.write_queries(rows)
        del rows
        forms = self.cli_forms(64)
        with Server(self) as server:
            start = time.perf_counter()
            rounds = 0
            while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (rounds + 1) / rounds <= self.args.seconds:
                self.calibrated(self.compile_once, compiles, cal["compile"])
                for _ in range(plan["setups"]):
                    self.calibrated(self.setup_probe, setups, cal["setup"])
                for _ in range(plan["windows"]):
                    self.calibrated(lambda: server.window(WINDOW_S), windows, cal["window"])
                for _ in range(plan["cli"]):
                    self.calibrated(lambda: self.cli_analyze(forms[len(cli) % len(forms)]), cli, cal["cli"])
                rounds += 1
            served = server.close()
        if self.workload == "lookup":
            rss_kb = served["maxrss_kb"]
        else:
            rss_kb = max(s["maxrss_kb"] for s in compiles)
        self.record["samples"] = {
            "rounds": rounds,
            "setup_s": setups,
            "compile": [{k: s[k] for k in ("seconds", "load_s", "generate_s", "write_s", "maxrss_kb")}
                        for s in compiles],
            "index": server.ready,
            "query_windows": windows,
            "queries": served["queries"],
            "serve_maxrss_kb": served["maxrss_kb"],
            "cli_analyze_s": cli,
            "calibration_s": cal,
        }
        median = statistics.median
        scale = {name: calibrate.REFERENCE_S / median(pool) for name, pool in cal.items()}
        self.record["scale"] = scale
        return {
            "setup_s": median(setups) * scale["setup"],
            "compile_forms_per_s": median(s["forms"] / s["seconds"] for s in compiles) / scale["compile"],
            "query_p50_us": median(w["p50_us"] for w in windows) * scale["window"],
            "query_p99_us": median(w["p99_us"] for w in windows) * scale["window"],
            "cli_analyze_p50_ms": median(cli) * 1e3 * scale["cli"],
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_share": (self.attempted - self.failed) / self.attempted,
        }

    def traced_eval(self, reference, generated):
        from arabverb import evaluate

        from spans import Tracer

        tracer = Tracer()
        report = tracer.wrap(evaluate.evaluate, "evaluate.evaluate")(reference, generated)
        self.eval_s = tracer.summary()["evaluate.evaluate"]["self_s"]
        return report

    def workers2(self):
        """generate_all(workers=2), under a timeout: a hang is one failed
        operation, not a hung benchmark.  No failing entry reaches the pool,
        because a serial failure ends the run before this step."""
        out = os.path.join(self.dir, "workers2.tsv")
        self.attempted += 1
        try:
            res = self.worker("workers2", self.lemmas, out, "--cpus", ",".join(map(str, self.cpus)))
        except TimeoutError as exc:
            self.failed += 1
            self.record["workers2"] = str(exc)
            return float(CHILD_TIMEOUT_S)
        if res["failures"]:
            self.failed += 1
        self.fail(["workers=2: " + p for p in checks.check_digest(out, self.expected)])
        return res["seconds"]

    def per_layer(self):
        self.inputs()
        compiled = self.compile_once(spans=os.path.join(self.dir, "spans-compile.tsv"))
        if not compiled["traced_forms_equal"]:
            self.fail(["forms generated under tracing differ from the untraced forms"])
        self.fail(["traced: " + p for p in checks.check_digest(self.tsv + ".traced", self.expected)])
        rows = self.check_output()
        self.write_queries(rows)
        del rows
        workers2_s = self.workers2()
        served = self.worker("serve", self.tsv, self.queries, "--spans", os.path.join(self.dir, "spans-serve.tsv"))
        self.attempted += served["queries"]
        self.failed += served["failed"]
        self.fail(["query: %s" % f for f in served["failures"]])
        imports = [self.child([sys.executable, "-c", "import arabverb"])[1] for _ in range(IMPORT_SAMPLES)]
        cli = [self.cli_analyze(form) for form in self.cli_forms(TRACED_CLI)]
        c, s = compiled["layers"], served["layers"]
        kinds = served["per_kind"]

        def self_s(layers, name):
            return layers.get(name, {}).get("self_s", 0.0)

        def calls(layers, name):
            return layers.get(name, {}).get("calls", 0)

        hits = compiled["rule_hits"]
        analyses = sum(kind["hits"] for kind in kinds.values())
        candidates = calls(s, "analyzer.matches_partial")
        self.record["samples"] = {"compile": {k: compiled[k] for k in ("seconds", "load_s", "generate_s", "write_s")},
                                  "traced_compile": compiled["traced"], "trace_pairs_s": compiled["trace_pairs_s"],
                                  "serve": served["per_kind"],
                                  "import_s": imports, "cli_analyze_s": cli}
        self.record["layers"] = {"compile": c, "serve": s}
        return {
            "rules.apply_s": self_s(c, "rules.RuleSet.apply"),
            "rules.apply_calls": calls(c, "rules.RuleSet.apply"),
            "rules.fired_per_form": sum(hits.values()) / compiled["forms"],
            "rules.rules_witnessed": sum(1 for n in hits.values() if n > 0),
            "translit.to_script_s": self_s(c, "translit.to_script"),
            "translit.to_script_calls": calls(c, "translit.to_script"),
            "translit.to_internal_us": s.get("translit.to_internal", {}).get("median_us", 0.0),
            "stems.build_stems_s": self_s(c, "stems.build_stems"),
            "stems.build_stems_calls": calls(c, "stems.build_stems"),
            "inflect.inflect_s": self_s(c, "inflect.inflect"),
            "inflect.inflect_calls": calls(c, "inflect.inflect"),
            "lexicon.load_lexicon_s": self_s(c, "lexicon.load_lexicon"),
            "lexicon.resolve_class_calls": calls(c, "lexicon.resolve_class") + calls(s, "lexicon.resolve_class"),
            "lexicon.resolve_class_s": self_s(c, "lexicon.resolve_class") + self_s(s, "lexicon.resolve_class"),
            "pipeline.generate_all_self_s": self_s(c, "pipeline.generate_all"),
            "pipeline.generate_all_workers2_s": workers2_s,
            "pipeline.write_lexicon_s": self_s(c, "pipeline.write_lexicon"),
            "pipeline.write_bytes": compiled["write_bytes"],
            "pipeline.read_lexicon_s": self_s(s, "pipeline.read_lexicon"),
            "analyzer.FormIndex_s": self_s(s, "analyzer.FormIndex"),
            "analyzer.index_entries": served["index_entries"],
            "analyzer.analyze_exact_us": kinds["exact"]["median_us"],
            "analyzer.analyze_partial_us": kinds["partial"]["median_us"],
            "analyzer.analyze_bare_us": kinds["bare"]["median_us"],
            "analyzer.analyze_script_us": kinds["script"]["median_us"],
            "analyzer.analyze_script_partial_us": kinds["script-partial"]["median_us"],
            "analyzer.analyze_script_bare_us": kinds["script-bare"]["median_us"],
            "analyzer.analyze_miss_us": kinds["miss"]["median_us"],
            "analyzer.candidates_per_query": candidates / calls(s, "analyzer.analyze"),
            "analyzer.hit_ratio": analyses / candidates if candidates else 0.0,
            "analyzer.inflect_verb_us": kinds["inflect"]["median_us"],
            "analyzer.derive_root_us": kinds["derive"]["median_us"],
            "evaluate.evaluate_s": self.eval_s,
            "evaluate.precision": self.gold_report.precision,
            "cli.import_ms": min(imports) * 1e3,
            "cli.analyze_ms": min(cli) * 1e3,
            "trace.overhead_s": compiled["trace_overhead_s"],
        }


def environment(args):
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def commit():
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return "unknown (not a git checkout)"
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return res.stdout.strip() or "unknown"

    h = hashlib.sha256()
    package = os.path.join(SRC, "arabverb")
    for dirpath, dirnames, filenames in sorted(os.walk(package)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".tsv")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "src_sha256": h.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": workloads.input_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


def preflight():
    """The program and the gold data must be in this checkout."""
    missing = [p for p in (os.path.join(SRC, "arabverb", "__init__.py"), GOLD_FORMS) if not os.path.isfile(p)]
    if missing:
        sys.exit("perfbench: not an arabverb checkout, missing %s" % ", ".join(missing))
    sys.path.insert(0, SRC)
    import arabverb

    if not os.path.realpath(arabverb.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("perfbench: arabverb imported from %s, not from %s" % (arabverb.__file__, SRC))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    meta = environment(args)
    run = Run(args)
    names = PER_LAYER if args.trace else END_TO_END
    try:
        values = run.per_layer() if args.trace else run.end_to_end()
    except (Failed, TimeoutError) as exc:
        if not run.problems:  # fail() has already recorded its problems
            run.problems.append(str(exc))
        values = None
    correct = values is not None and not run.problems
    metrics = {}
    if correct:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    record = dict(meta, correct=correct, attempted=run.attempted, failed=run.failed,
                  problems=run.problems, metrics=metrics, wall_s=time.perf_counter() - run.started,
                  **run.record)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, ensure_ascii=False)
    print("%s seed %d (input seed %d), trace %d, python %s, %d cpus, load %.2f"
          % (args.workload, args.seed, meta["input_seed"], args.trace, meta["python"],
             meta["nproc"], meta["loadavg_start"][0]))
    for problem in run.problems:
        print("FAILED CHECK: %s" % problem)
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d (failed_share %.6f)"
          % (run.attempted, run.failed, run.failed / run.attempted if run.attempted else 0.0))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
