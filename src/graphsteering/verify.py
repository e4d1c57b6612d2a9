"""Self-contained invariant suite behind the `verify` CLI command.

Each check returns silently or raises AssertionError; the runner collects
results as (name, passed, detail) triples.  This is a curated desk-scale
sweep, smaller than the full test suite but covering every module.
"""

from __future__ import annotations

import numpy as np

from . import (
    Bipartition,
    critical_disturbance,
    derive_both_settings,
    dirichlet_gamma,
    disturbance_entropy,
    fourier_op,
    make_chain,
    make_grid,
    make_star,
    mutual_information,
    no_sharing_sum,
    noise_threshold,
    partial_trace,
    random_state,
    schmidt_decompose,
    stabilizer_generators,
    stabilizer_table,
    x_op,
    z_op,
)
from .graphstate import edge_phase_mask
from .registers import PureState, QuditRegister, states_equal_up_to_phase


def check_operator_unitarity():
    for d in (2, 3, 5):
        for op in (fourier_op(d), z_op(d), x_op(d)):
            err = np.max(np.abs(op.conj().T @ op - np.eye(d)))
            assert err < 1e-10, f"d={d}: |U^dag U - I| = {err}"


def check_partial_trace():
    rng = np.random.default_rng(101)
    reg = QuditRegister(4, 2)
    rho = random_state(reg, rng).density()
    step = partial_trace(partial_trace(rho, {1, 2, 3}), {1, 2})
    direct = partial_trace(rho, {1, 2})
    assert np.max(np.abs(step.matrix - direct.matrix)) < 1e-12
    assert abs(np.trace(direct.matrix).real - 1.0) < 1e-12


def _closed_form_state(g, d: int) -> PureState:
    """psi(x) = d^(-N/2) omega^q(x) with q(x) = sum_{ij in E} x_i x_j, the tables' premise."""
    reg = QuditRegister(g.n_vertices, d)
    q = np.zeros(reg.total_dim, dtype=np.int64)
    for i, j in g.edges:
        q += reg.digit_table(i) * reg.digit_table(j)
    return PureState(reg, np.exp(2j * np.pi * (q % d) / d) / np.sqrt(reg.total_dim))


def check_build_order_independence():
    """Edge phase masks in any order give the closed-form amplitudes."""
    rng = np.random.default_rng(7)
    g = make_chain(4)
    ref = _closed_form_state(g, 3)
    reg = ref.register
    edges = list(g.edges)
    for _ in range(5):
        rng.shuffle(edges)
        amps = np.full(reg.total_dim, reg.total_dim ** -0.5, dtype=complex)
        for i, j in edges:
            amps = amps * edge_phase_mask(i, j, reg)
        assert np.max(np.abs(amps - ref.amplitudes)) < 1e-12


def check_stabilizers():
    rng = np.random.default_rng(13)
    for g, d in ((make_star(4), 2), (make_chain(4), 3)):
        psi = _closed_form_state(g, d)
        words = stabilizer_generators(g, d)
        for _ in range(10):
            state = psi
            for w in words:
                for _ in range(int(rng.integers(0, d))):
                    state = w.apply(state)
            assert np.max(np.abs(state.amplitudes - psi.amplitudes)) < 1e-10


def check_ideal_correlations():
    """Diagonal closed-form tables with i_total = 2 log2 d, also where no state vector fits."""
    cases = [(g, d, {1}) for d in (2, 3) for g in (make_star(3), make_chain(4))]
    large = [
        (make_star(1000), 3, {1}),
        (make_grid(12, 12), 2, {1, 12}),
        (make_grid(30, 30), 2, {1, 30}),
        (make_chain(1000), 3, {500}),
    ]
    for g, d, side_a in cases + large:
        part = Bipartition.from_side_a(g, side_a)
        tables = [stabilizer_table(g, d, s, s, part) for s in derive_both_settings(g, d, part)]
        assert all(np.max(np.abs(t - np.eye(d) / d)) < 1e-10 for t in tables)
        i_total = sum(mutual_information(t) for t in tables)
        assert abs(i_total - 2 * np.log2(d)) < 1e-9, f"N={g.n_vertices}, d={d}: i_total {i_total}"


def check_schmidt_reconstruction():
    rng = np.random.default_rng(23)
    for _ in range(10):
        reg = QuditRegister(3, 3)
        psi = random_state(reg, rng)
        part = Bipartition(frozenset({1}), frozenset({2, 3}))
        form = schmidt_decompose(psi, part)
        assert states_equal_up_to_phase(psi.amplitudes, form.reconstruct(), 1e-9)
        assert abs(np.sum(form.coefficients ** 2) - 1.0) < 1e-10


def check_mutual_information_bounds():
    rng = np.random.default_rng(31)
    for _ in range(20):
        table = rng.dirichlet(np.ones(12)).reshape(3, 4)
        mi = mutual_information(table)
        assert -1e-12 <= mi <= np.log2(3) + 1e-12


def check_no_sharing():
    rng = np.random.default_rng(41)
    for d in (2, 3, 5):
        for _ in range(100):
            _, _, total = no_sharing_sum(dirichlet_gamma(d, rng))
            assert total <= 2 * np.log2(d) + 1e-9


def check_critical_disturbance():
    for d, expected in ((2, 0.1100), (3, 0.1595)):
        dc = critical_disturbance(d)
        assert abs(dc - expected) < 5e-4, f"D_c({d}) = {dc}"
        assert abs(disturbance_entropy(dc, d) - 0.5 * np.log2(d)) < 1e-8


def check_noise_threshold():
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    for d in (2, 3):
        p = noise_threshold(g, d, part)
        dc = critical_disturbance(d)
        assert abs(p * (d - 1) / d - dc) < 1e-6, f"d={d}: p={p}, D_c={dc}"


ALL_CHECKS = [
    ("operator-unitarity", check_operator_unitarity),
    ("partial-trace-composition", check_partial_trace),
    ("graph-state-order-independence", check_build_order_independence),
    ("stabilizer-products-fix-state", check_stabilizers),
    ("ideal-correlations", check_ideal_correlations),
    ("schmidt-reconstruction", check_schmidt_reconstruction),
    ("mutual-information-bounds", check_mutual_information_bounds),
    ("no-sharing-inequality", check_no_sharing),
    ("critical-disturbance", check_critical_disturbance),
    ("noise-threshold-consistency", check_noise_threshold),
]


def run_all():
    """Run every check; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in ALL_CHECKS:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # report, never abort the sweep
            results.append((name, False, str(exc)))
    return results
