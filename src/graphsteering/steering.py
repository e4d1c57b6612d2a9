"""Steering certification, white-noise thresholds and key-rate bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Bipartition, Graph
from .infotheory import mutual_information
from .registers import DensityOperator, PureState
from .schmidt import derive_setting, mix_white_noise, stabilizer_table

# Strict steering inequality: require the margin to clear floating-point noise.
STEERING_MARGIN = 1e-10
# Bracket widths at which the bisections for p_noise and D_c stop.
NOISE_THRESHOLD_TOL = 1e-8
CRITICAL_DISTURBANCE_TOL = 1e-9
# Table entries a key_rate_scan chunk mixes at once: 4096 p values at d=2.
SCAN_CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SteeringReport:
    i_per_setting: tuple
    i_total: float
    threshold: float
    steerable: bool
    margin: float


def white_noise(psi: PureState, p: float) -> DensityOperator:
    """Mix a pure state with the maximally mixed operator at intensity p.

    A dense d^2N oracle for tests; certification mixes noise into the joint
    table instead (``schmidt.mix_white_noise``).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise intensity must be in [0, 1], got {p}")
    dim = psi.register.total_dim
    mat = (p / dim) * np.eye(dim) + (1.0 - p) * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityOperator(psi.register, mat)


def derive_both_settings(g: Graph, d: int, part: Bipartition):
    """The two complementary settings of a cut, from the graph's one two-coloring."""
    coloring = g.coloring
    return tuple(derive_setting(g, d, coloring, part, m) for m in (1, 2))


def steering_statistic(
    g: Graph, d: int, settings, part: Bipartition, p: float = 0.0
) -> SteeringReport:
    """Per-setting mutual information of the p-noisy graph state versus the log2(d) floor."""
    i_per = tuple(mutual_information(stabilizer_table(g, d, [(s, s) for s in settings], part, p)).tolist())
    i_total = float(sum(i_per))
    threshold = float(np.log2(d))
    margin = i_total - threshold
    return SteeringReport(
        i_per_setting=i_per,
        i_total=i_total,
        threshold=threshold,
        steerable=margin > STEERING_MARGIN,
        margin=margin,
    )


def _noiseless_tables(g: Graph, d: int, part: Bipartition):
    """The (2, d, d) stack of noiseless joint tables, one per setting."""
    return stabilizer_table(g, d, [(s, s) for s in derive_both_settings(g, d, part)], part)


def _noisy_i_total(tables, p):
    """Total information of the setting tables mixed at noise p: one float p, or each of a 1-D array."""
    if np.ndim(p):
        p = p[:, None, None, None]
    return mutual_information(mix_white_noise(tables, p)).sum(axis=-1)


def noise_threshold(g: Graph, d: int, part: Bipartition) -> float:
    """Noise intensity where the certified total information hits log2(d).

    Bisection on p; below the returned value the noisy state is certified
    steerable.
    """
    tables = _noiseless_tables(g, d, part)
    threshold = np.log2(d)

    def excess(p: float) -> float:
        return float(_noisy_i_total(tables, p)) - threshold

    lo, hi = 0.0, 1.0
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo <= 0 or f_hi >= 0:
        raise RuntimeError(
            "noise threshold not bracketed; correlation forms look defective "
            f"(excess at 0: {f_lo}, at 1: {f_hi})"
        )
    while hi - lo > NOISE_THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def disturbance_entropy(D, d: int):
    """H(D) = -(1-D) log2(1-D) - D log2(D / (d-1)), elementwise over an array D.

    A scalar D gives a float.
    """
    D = np.asarray(D, dtype=float)
    if not np.all((0.0 <= D) & (D <= 1.0)):
        raise ValueError(f"disturbance must be in [0, 1], got {D}")
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0 log 0 terms, replaced by 0
        shift = np.where(0.0 < D, D * np.log2(D / (d - 1)), 0.0)
        stay = np.where(D < 1.0, (1.0 - D) * np.log2(1.0 - D), 0.0)
    out = (0.0 - shift) - stay
    return float(out) if out.ndim == 0 else out


def critical_disturbance(d: int) -> float:
    """Disturbance at which the key-rate bound vanishes: root of H(D) = log2(d)/2.

    Bisection on (0, (d-1)/d); H has infinite slope at D -> 0, so bisection is
    used for robustness.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    target = 0.5 * np.log2(d)
    lo, hi = 0.0, (d - 1) / d
    while hi - lo > CRITICAL_DISTURBANCE_TOL:
        mid = 0.5 * (lo + hi)
        if disturbance_entropy(mid, d) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def key_rate_scan(g: Graph, d: int, part: Bipartition, p_grid) -> np.ndarray:
    """Rows (p, i_total, r_lower) over a noise grid, sharing one derived setting.

    r_lower is the Devetak-Winter style bound max(0, i_total - log2 d).  The
    rows form an (n, 3) array.  Each chunk of p values mixes the two
    noiseless tables into one (chunk, 2, d, d) stack of at most about
    ``SCAN_CHUNK_ENTRIES`` entries, whose information is one stacked
    ``mutual_information`` call.
    """
    p_grid = np.asarray(p_grid, dtype=float).reshape(-1)
    if not np.all((0.0 <= p_grid) & (p_grid <= 1.0)):
        raise ValueError("noise grid must lie in [0, 1]")
    tables = _noiseless_tables(g, d, part)
    threshold = float(np.log2(d))
    rows = np.empty((len(p_grid), 3))
    chunk = max(1, SCAN_CHUNK_ENTRIES // tables.size)
    for start in range(0, len(p_grid), chunk):
        p = p_grid[start:start + chunk]
        i_total = _noisy_i_total(tables, p)
        excess = i_total - threshold
        rows[start:start + chunk] = np.stack([p, i_total, np.where(excess > 0.0, excess, 0.0)], axis=-1)
    return rows
