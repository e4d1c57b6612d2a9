"""Steering certification, white-noise thresholds and key-rate bounds.

Each reads a setting's information in closed form (``_matched_information``);
the noisy tables of ``cloner.pair_tables`` are its oracle.  A float p or D
takes one ``np.log2`` call in float arithmetic, bitwise as an array's entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Bipartition, Graph
from .registers import DensityOperator, PureState
from .schmidt import derive_setting

# Strict steering inequality: require the margin to clear floating-point noise.
STEERING_MARGIN = 1e-10
# Bracket width at which the bisection for D_c stops.
CRITICAL_DISTURBANCE_TOL = 1e-9


@dataclass(frozen=True)
class SteeringReport:
    i_per_setting: tuple
    i_total: float
    threshold: float
    steerable: bool
    margin: float


def white_noise(psi: PureState, p: float) -> DensityOperator:
    """Mix a pure state with the maximally mixed operator at intensity p.

    A dense d^2N oracle for tests; certification reads the noisy information
    in closed form instead.
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


def _entropy(D, log_q, log_stay):
    """H(D) from log2(D / (d-1)) and log2(1-D), for floats or elementwise over arrays."""
    return (0.0 - D * log_q) - (1.0 - D) * log_stay


def _float_terms(d: int, D: float):
    """(log2 d, H(D)) for a float D, in float arithmetic around one np.log2 call.

    A 0 log 0 term, or one whose D / (d-1) underflows to 0, is read as 0 log 1.
    """
    q = D / (d - 1)
    log_d, log_q, log_stay = np.log2([d, q if q > 0.0 else 1.0, 1.0 - D if D < 1.0 else 1.0]).tolist()
    return log_d, _entropy(D, log_q, log_stay)


def _matched_information(d: int, p):
    """(log2 d, I) with I = log2 d - H(p(d-1)/d), the information of (1-p) eye/d + p/d^2.

    Its marginals are uniform.  A float p gives floats; an array p gives I elementwise.
    """
    if isinstance(p, float) and 0.0 <= p <= 1.0:
        log_d, h = _float_terms(d, p * (d - 1) / d)
        return log_d, log_d - h
    if not np.all((0.0 <= p) & (p <= 1.0)):  # a NaN fails too
        raise ValueError(f"noise intensity must be in [0, 1], got {p}")
    log_d = np.log2(d)
    return float(log_d), log_d - disturbance_entropy(p * (d - 1) / d, d)


def steering_statistic(
    g: Graph, d: int, settings, part: Bipartition, p: float = 0.0
) -> SteeringReport:
    """Per-setting mutual information of the p-noisy graph state versus the log2(d) floor.

    ``settings`` must be the cut's pair from ``derive_both_settings``, which
    refuses the cuts that have none; every pair it accepts gives both
    settings the matched closed form, so they are not read again here.
    """
    threshold, i_m = _matched_information(d, p)
    i_m = float(i_m)
    i_total = i_m + i_m
    margin = i_total - threshold
    return SteeringReport(
        i_per_setting=(i_m, i_m),
        i_total=i_total,
        threshold=threshold,
        steerable=margin > STEERING_MARGIN,
        margin=margin,
    )


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    """Midpoint of a bracket [lo, hi] with f > 0 at lo and f <= 0 at hi, halved until narrower than tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_noise(d: int) -> float:
    """Noise intensity where the certified total information of a cut hits log2(d).

    White noise p reaches each matched setting as the disturbance
    D = p(d-1)/d, so the total 2(log2 d - H(D)) hits log2 d where H(D) =
    log2(d)/2: at ``critical_disturbance(d)``.  Below the returned value the
    noisy state is certified steerable.
    """
    return critical_disturbance(d) * d / (d - 1)


def noise_threshold(g: Graph, d: int, part: Bipartition) -> float:
    """``critical_noise(d)`` for a cut that ``derive_both_settings`` accepts."""
    derive_both_settings(g, d, part)  # refuses an odd cycle and a cut that no edge crosses
    return critical_noise(d)


def disturbance_entropy(D, d: int):
    """H(D) = -(1-D) log2(1-D) - D log2(D / (d-1)), elementwise over an array D.

    A float D is evaluated in float arithmetic with one np.log2 call and gives
    a float, as does any other scalar.
    """
    if isinstance(D, float) and 0.0 <= D <= 1.0:
        return _float_terms(d, D)[1]
    D = np.asarray(D, dtype=float)
    if not np.all((0.0 <= D) & (D <= 1.0)):
        raise ValueError(f"disturbance must be in [0, 1], got {D}")
    q = D / (d - 1)  # a 0 log 0 term, or one whose D / (d-1) underflows to 0, is read as 0 log 1
    out = _entropy(D, np.log2(np.where(0.0 < q, q, 1.0)), np.log2(np.where(D < 1.0, 1.0 - D, 1.0)))
    return float(out) if out.ndim == 0 else out


def critical_disturbance(d: int) -> float:
    """Disturbance at which the key-rate bound vanishes: root of H(D) = log2(d)/2.

    Bisection on (0, (d-1)/d); H has infinite slope at D -> 0, so bisection is
    used for robustness.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    target = 0.5 * np.log2(d)
    return _bisect(lambda D: target - disturbance_entropy(D, d), 0.0, (d - 1) / d, CRITICAL_DISTURBANCE_TOL)


def key_rate_curve(d: int, p_grid) -> np.ndarray:
    """Rows (p, i_total, r_lower) of a cut over a noise grid, each p checked once to lie in [0, 1].

    r_lower is the Devetak-Winter style bound max(0, i_total - log2 d).  The
    rows form an (n, 3) array, evaluated in one pass, so a caller bounds its
    temporaries by the grid it passes; each row is bitwise
    ``steering_statistic`` at its p.
    """
    p = np.asarray(p_grid, dtype=float).reshape(-1)
    threshold, i_m = _matched_information(d, p)
    i_total = i_m + i_m
    excess = i_total - threshold
    return np.stack([p, i_total, np.where(excess > 0.0, excess, 0.0)], axis=-1)


def key_rate_scan(g: Graph, d: int, part: Bipartition, p_grid) -> np.ndarray:
    """``key_rate_curve(d, p_grid)`` for a cut that ``derive_both_settings`` accepts."""
    derive_both_settings(g, d, part)  # refuses an odd cycle and a cut that no edge crosses
    return key_rate_curve(d, p_grid)
