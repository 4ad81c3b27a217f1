"""Record the expected outputs that the correctness gate compares against.

    python3 perfbench/record.py

For every generation workload and input seed it compiles the seeded lemma
lexicon with the program in this checkout and writes expected.json: the
sha256 of the inflected TSV, and the surfaces that the cascade would still
rewrite (the known fixed-point defect, see checks.check_fixed_point).

expected.json pins the program's output byte for byte.  Re-record only
for a change that is meant to alter the output, and say so in the change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import arabverb  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def record(workload, iseed, directory):
    lemmas = workloads.write_inputs(workload, iseed, directory)
    tsv = os.path.join(directory, "inflected.tsv")
    report = arabverb.load_lexicon(lemmas)
    forms, stats = arabverb.generate_all(report.entries)
    if report.diagnostics or stats.failures:
        raise SystemExit("%s seed %d: %s %s" % (workload, iseed, report.diagnostics[:3], stats.failures[:3]))
    arabverb.write_lexicon(forms, tsv)
    bad = checks.not_fixed_point([f.surface for f in forms], arabverb.apply_cascade)
    return {
        "tsv_sha256": checks.sha256_file(tsv),
        "forms": len(forms),
        "not_fixed_point": len(bad),
        "not_fixed_point_sha256": checks.list_digest(bad),
        "not_fixed_point_examples": bad[:5],
    }


def main():
    directory = os.path.join(ROOT, ".perfbench", "record")
    os.makedirs(directory, exist_ok=True)
    expected = {"input_seeds": workloads.INPUT_SEEDS}
    try:
        for workload in ("sound-bulk", "mixed-class"):
            expected[workload] = {}
            for iseed in range(workloads.INPUT_SEEDS):
                expected[workload][str(iseed)] = entry = record(workload, iseed, directory)
                print(workload, iseed, entry["forms"], entry["not_fixed_point"], flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    with open(checks.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
