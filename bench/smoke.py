"""Smoke test of the benchmark itself, on tiny inputs.

    python3 bench/smoke.py

Runs one tiny block of every workload untraced and traced and checks that
each run is correct and computes a finite number for every metric that
BENCHMARK.json names (a metric the runner cannot compute stops the run).
Then it checks that the output checker rejects a perturbed ``i_total`` and a
truncated or corrupted transcript, and that the
correlation-form digest repeats for the same seed. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def check_runs():
    digests = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, record = run.run_workload(workload, 7, 0, trace, tiny=True)
            values = [v["value"] for v in result["metrics"].values()]
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: every request passes its check")
            expect(all(math.isfinite(v) for v in values), f"{workload} trace={trace}: every metric is a finite number")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace={trace}: result keys")
            if workload == "cut_sweep":
                digests[trace] = record["forms_digests"]
    expect(digests[0] == digests[1] and digests[0], "cut_sweep: forms digest repeats for the same seed")


def check_checker():
    program = run.load_program()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as directory:
        requests = workloads.block("certify_mix", 7, 0, directory, tiny=True)
        req = next(r for r in requests if r.expect["exit"] == 0)
        _, _, (out,), _ = run.execute(program, [req], directory)
        expect(checks.check(req, out) is None, "certify output passes unperturbed")
        doc = json.loads(out.stdout)
        doc["i_total"] += 1e-6
        out.stdout = json.dumps(doc)
        expect(checks.check(req, out) is not None, "certify check rejects i_total perturbed by 1e-6")

        requests = workloads.block("qss_transcript", 7, 0, directory, tiny=True)
        req = next(r for r in requests if r.out_ext)
        _, _, (out,), _ = run.execute(program, [req], directory)
        expect(checks.check(req, out) is None, "qss transcript passes unaltered")
        with open(out.path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(out.path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
        expect(checks.check(req, out) is not None, "qss check rejects a transcript missing its last round")
        with open(out.path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1] + [lines[-1][: len(lines[-1]) // 2] + "\n"])
        expect(checks.check(req, out) is not None, "qss check rejects a transcript with a cut-off line")


def main():
    check_runs()
    check_checker()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
