"""Benchmark of the graphsteering toolkit, driven from outside the way a user drives it.

    python3 bench/run.py --workload certify_mix --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory. Traffic is a closed loop of one client in this process;
each request is issued after the previous one returned. ``certify`` and
``qss`` go through the click entry point ``graphsteering.cli.main``;
``cut_sweep`` calls the public ``graphsteering.derive_both_settings``.

Requests come in blocks (see workloads.py). Blocks run until the next one
would end after ``--seconds``, but at least until 100 requests were issued.
Every output is checked (checks.py); a failed check counts in ``failed`` and
the request stays in the traffic.

``wall_s`` is the lower quartile of the block times and the latency
percentiles are over every request of the run. ``setup_s`` is the median of five fresh processes,
one started after each of the first blocks. Every time is scaled to the
nominal speed of the host by a reference kernel timed just before and just
after it (speed.py), and a block's scaled time is the sum of its scaled
latencies; the record keeps the unscaled figures as ``raw_metrics``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each block runs untraced and then traced on the same inputs and
the last line holds the per-layer metrics. The line before it is the full
record, also appended to ``.bench_out/results.jsonl``; traced runs write their
spans to ``.bench_out/trace-<workload>-<seed>.jsonl.gz``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads. One thread is steadier than two on small requests.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks
import speed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
MIN_REQUESTS = 100
SETUP_PROBES = 5


def metric_units(trace):
    """Names and units of the metrics one run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class ProgramMissing(RuntimeError):
    """The checkout has no importable graphsteering package under src/."""


def load_program():
    """Import graphsteering from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        gs = importlib.import_module("graphsteering")
        cli = importlib.import_module("graphsteering.cli")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import graphsteering from {src}: {exc}") from exc
    if not os.path.abspath(gs.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"graphsteering was imported from {gs.__file__}, not {src}")
    return gs, cli.main


@dataclass
class Outcome:
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    exc: BaseException | None = None
    value: object = None
    path: str | None = None

    def bytes_written(self):
        size = os.path.getsize(self.path) if self.path and os.path.exists(self.path) else 0
        return len(self.stdout) + len(self.stderr) + size


def invoke_cli(main, argv):
    """One in-process CLI invocation, as ``graphsteering <argv>`` would run it."""
    out, err = io.StringIO(), io.StringIO()
    result = Outcome()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=argv, prog_name="graphsteering")
        except SystemExit as exc:
            result.code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an escaped exception is a traceback for the user
            result.code, result.exc = 1, exc
    result.stdout, result.stderr = out.getvalue(), err.getvalue()
    return result


def invoke_derive(gs, path, side_a):
    """Settings for one cut through the public library API."""
    result = Outcome()
    try:
        with open(path, encoding="utf-8") as fh:
            g, d = gs.parse_graph(fh.read())
        result.value = gs.derive_both_settings(g, d, gs.Bipartition.from_side_a(g, side_a))
    except Exception as exc:
        result.exc = exc
    return result


def execute(program, requests, out_dir, tracer=None, kernel=None):
    """Issue requests back to back; returns (block wall seconds, latencies, outcomes, kernel times).

    With ``kernel``, one call of that speed reference is timed before each
    request and one after the last, so request ``i`` lies between kernel times
    ``i`` and ``i + 1``; their time is left out of the block wall.
    """
    gs, main = program
    latencies, outcomes, kernel_times = [], [], []
    t_block = time.perf_counter()
    for k, req in enumerate(requests):
        if kernel is not None:
            kernel_times.append(speed.timed(kernel))
        path = os.path.join(out_dir, f"r{k}.{req.out_ext}") if req.out_ext else None
        if tracer is not None:
            tracer.request = k
            root = tracer.open("request", {"bytes_written": 0})
        t0 = time.perf_counter()
        if req.command == "derive":
            outcome = invoke_derive(gs, *req.argv)
        else:
            argv = req.argv + (["--out", path] if path else [])
            if tracer is not None:
                sid = tracer.open("cli." + req.command)
                outcome = invoke_cli(main, argv)
                tracer.close(sid, error=outcome.exc is not None)
            else:
                outcome = invoke_cli(main, argv)
        latencies.append(time.perf_counter() - t0)
        outcome.path = path
        if tracer is not None:
            tracer.spans[root][tracing.ATTRS]["bytes_written"] = outcome.bytes_written()
            tracer.close(root)
        outcomes.append(outcome)
    if kernel is not None:
        kernel_times.append(speed.timed(kernel))
    return time.perf_counter() - t_block - sum(kernel_times), latencies, outcomes, kernel_times


def forms_digest(outcomes):
    """Digest of every derived correlation form of a cut_sweep block."""
    h = hashlib.sha256()
    for out in outcomes:
        if out.value is not None:
            for s in out.value:
                h.update(repr((s.m, s.a_vertices, s.b_vertices, s.fa_coeffs, s.fb_coeffs)).encode())
    return h.hexdigest()[:16]


def _check_all(requests, outcomes, failures):
    for k, (req, out) in enumerate(zip(requests, outcomes)):
        reason = checks.check(req, out)
        if reason is not None:
            failures.append(f"{req.command} #{k} {req.argv}: {reason}")


def _environment(seed):
    import numpy

    return {
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
    }


def setup_probe(workload, seed):
    """What a fresh process does before its first request: import and generate inputs."""
    load_program()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as directory:
        workloads.block(workload, seed, 0, directory)


def setup_probe_time(workload, seed):
    """Nominal-speed wall time of a fresh process that starts, imports and generates the first inputs.

    Returns (scaled, raw) seconds; the speed reference runs twice before and
    twice after the process.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    kernel = speed.KERNELS["setup"]
    samples = [speed.timed(kernel) for _ in range(2)]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    raw = time.perf_counter() - t0
    samples += [speed.timed(kernel) for _ in range(2)]
    return raw * speed.scale(kernel, samples), raw


def run_workload(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line, full record)."""
    program = load_program()
    units = metric_units(trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT_DIR)
    block_walls, block_costs, block_latencies, block_scales, digests, failures = [], [], [], [], [], []
    traced_blocks, layer_blocks, overheads, setup_samples = [], [], [], []
    kernel = None if trace else speed.KERNELS[workload]
    probes = 0 if trace else 1 if tiny else SETUP_PROBES
    attempted = 0
    started = time.time()
    t_start = time.perf_counter()
    try:
        while not block_costs or not (
            tiny
            or attempted >= MIN_REQUESTS
            and time.perf_counter() - t_start + statistics.median(block_costs) > seconds
        ):
            t_cost = time.perf_counter()
            index = len(block_costs)
            directory = os.path.join(work, f"block{index}")
            os.makedirs(directory)
            requests = workloads.block(workload, seed, index, directory, tiny)
            wall, latencies, outs, kernel_times = execute(program, requests, directory, kernel=kernel)
            _check_all(requests, outs, failures)
            attempted += len(requests)
            block_walls.append(wall)
            block_latencies.append(latencies)
            if kernel:
                block_scales.append([speed.scale(kernel, kernel_times[i : i + 2]) for i in range(len(latencies))])
            if workload == "cut_sweep":
                digests.append(forms_digest(outs))
            if trace:
                traced_dir = os.path.join(directory, "traced")
                os.makedirs(traced_dir)
                tracer = tracing.Tracer()
                patched = tracing.install(tracer)
                try:
                    traced_wall, _, traced_outs, _ = execute(program, requests, traced_dir, tracer)
                finally:
                    tracing.restore(patched)
                _check_all(requests, traced_outs, failures)
                attempted += len(requests)
                overheads.append(traced_wall - wall)
                layer_blocks.append(tracing.layer_metrics(tracer.spans, units))
                traced_blocks.append(tracer.spans)
            shutil.rmtree(directory)
            block_costs.append(time.perf_counter() - t_cost)
            if len(setup_samples) < probes:  # spread over the run, like the blocks
                setup_samples.append(setup_probe_time(workload, seed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_samples) < probes:
            setup_samples.append(setup_probe_time(workload, seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = tracing.median_metrics(layer_blocks)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        raw_metrics = None
    else:
        scaled_latencies = [[x * f for x, f in zip(lats, fs)] for lats, fs in zip(block_latencies, block_scales)]
        metrics = _time_metrics(
            [scaled for scaled, _ in setup_samples],
            [sum(lats) for lats in scaled_latencies],
            [x for lats in scaled_latencies for x in lats],
        )
        metrics["peak_rss_mb"] = peak_rss_mb
        raw_metrics = _time_metrics(
            [raw for _, raw in setup_samples], block_walls, [x for lats in block_latencies for x in lats]
        )
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload,
        "trace": int(trace),
        "started": started,
        "seconds": seconds,
        "env": _environment(seed),
        "error_rate": failed / attempted,
        "samples": {"blocks": len(block_walls), "requests": sum(map(len, block_latencies)), "setup": len(setup_samples)},
        "block_wall_s": block_walls,
        "request_latency_s": block_latencies,
        "request_speed_scale": block_scales,
        "setup_samples_s": setup_samples,
        "raw_metrics": raw_metrics,
        "forms_digests": digests,
        "failures": failures[:20],
        **result,
    }
    if trace:
        meta = {k: record[k] for k in ("workload", "env")}
        tracing.dump(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl.gz"), meta, traced_blocks)
    return result, record


def _time_metrics(setup, walls, latencies):
    return {
        "setup_s": statistics.median(setup),
        "wall_s": _lower_quartile(walls),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_p90_ms": 1e3 * _p90(latencies),
    }


def _lower_quartile(values):
    """Lower quartile of block times: a slow phase of a shared machine only adds time."""
    return statistics.quantiles(values, n=4, method="inclusive")[0] if len(values) > 1 else values[0]


def _p90(values):
    """Highest decile that has at least ten samples beyond it (callers issue >= 100)."""
    return statistics.quantiles(values, n=10)[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
