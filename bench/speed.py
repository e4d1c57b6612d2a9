"""Machine-speed reference: fixed work outside the program, timed between requests.

The shared host this benchmark was tuned on changes speed in phases that last
from under a second to over half an hour, by up to 60%, so raw times of the
same code on different runs differ by more than any bound. The runner times
one call of a reference kernel before every timed request and once more after
the last request of a block. The kernel does the same kind of work as the
workload's dominant layer, using only numpy and the standard library, so no
change to the program changes it. Each latency is scaled by
``NOMINAL_S / mean(reference times just before and after it)``: a phase that
slows the program slows the kernel alike and cancels out, and the times read
as milliseconds and seconds on the host in its usual phase. Phases can turn
within a block, so the scale is per request, not per block.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

_rng = np.random.default_rng(0)
_DENSE = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_DENSE = _DENSE + _DENSE.conj().T
_RECORDS = [{"round": k, "a": k % 3, "b": [k % 2, k % 5], "x": k * 0.25, "kept": k % 4 == 0} for k in range(2000)]


def dense():
    """Hermitian eigenvalues, like the DensityOperator validation of certify."""
    np.linalg.eigvalsh(_DENSE)


def python():
    """Small-integer loop, like the candidate enumeration of derive_setting."""
    total = 0
    for k in range(100_000):
        total += k * k % 7
    return total


def records():
    """JSON lines of small dicts, like Transcript.to_jsonl."""
    return "\n".join(json.dumps(r) for r in _RECORDS)


def interpreter():
    """A fresh interpreter that imports numpy, like the start of a setup probe."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


# Kernel of each workload, and of setup (process start, imports, input generation).
KERNELS = {"certify_mix": dense, "cut_sweep": python, "qss_transcript": records, "setup": interpreter}

# Median time of each kernel on the 2-CPU Xeon VM the benchmark was tuned on.
NOMINAL_S = {dense: 2.7e-3, python: 12e-3, records: 13e-3, interpreter: 0.2}


def timed(kernel):
    """Seconds one call of ``kernel`` takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel, samples):
    """Factor that turns times measured next to ``samples`` into nominal-speed times."""
    return NOMINAL_S[kernel] / statistics.median(samples)
