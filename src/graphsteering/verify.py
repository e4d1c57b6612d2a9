"""Self-contained invariant suite behind the `verify` CLI command.

Each check returns silently or raises AssertionError; the runner collects
results as (name, passed, detail) triples.  Every check runs the production
closed-form path against the paper's values, at sizes no state vector fits;
none builds a state vector or density matrix (the dense checks live in the
tests).
"""

from __future__ import annotations

import numpy as np

from . import (
    Bipartition,
    Graph,
    critical_disturbance,
    derive_both_settings,
    dirichlet_gamma,
    disturbance_entropy,
    key_rate_scan,
    make_chain,
    make_grid,
    make_star,
    mutual_information,
    no_sharing_sum,
    noise_threshold,
    stabilizer_table,
)


def check_ideal_correlations():
    """Diagonal closed-form tables with i_total = 2 log2 d."""
    tree = Graph(7, frozenset({(1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (5, 6)}))
    cases = [
        (make_star(1000), 3, {1}),
        (make_grid(30, 30), 2, {1, 30}),
        (make_grid(30, 30), 6, {1, 30}),
        (make_chain(1000), 3, {500}),
        (tree, 2, {4, 5, 6, 7}),  # a product element here has surjective forms and I = 0
    ]
    for g, d, side_a in cases:
        part = Bipartition.from_side_a(g, side_a)
        tables = stabilizer_table(g, d, [(s, s) for s in derive_both_settings(g, d, part)], part)
        assert np.max(np.abs(tables - np.eye(d) / d)) < 1e-10
        i_total = mutual_information(tables).sum()
        assert abs(i_total - 2 * np.log2(d)) < 1e-9, f"N={g.n_vertices}, d={d}: i_total {i_total}"


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
    p_noise = {d: noise_threshold(g, d, part) for d in (2, 3)}
    assert abs(p_noise[2] - 0.22) < 1e-3, f"p_noise(2) = {p_noise[2]}"
    for d, p in p_noise.items():
        dc = critical_disturbance(d)
        assert abs(p * (d - 1) / d - dc) < 1e-6, f"d={d}: p={p}, D_c={dc}"


def check_key_rate_row():
    """One fig4 row, i_total = 2(log2 d - H(p(d-1)/d)), on star(10^4), whose state vector has 2^10000 entries."""
    d, p, n = 2, 0.1, 10 ** 4
    g = make_star(n)
    [(_, i_total, _)] = key_rate_scan(g, d, Bipartition.from_side_a(g, {1}), [p])
    closed = 2 * (np.log2(d) - disturbance_entropy(p * (d - 1) / d, d))
    assert abs(i_total - closed) < 1e-9, f"star({n}), d={d}, p={p}: i_total {i_total}"


ALL_CHECKS = [
    ("ideal-correlations", check_ideal_correlations),
    ("mutual-information-bounds", check_mutual_information_bounds),
    ("no-sharing-inequality", check_no_sharing),
    ("critical-disturbance", check_critical_disturbance),
    ("noise-threshold-consistency", check_noise_threshold),
    ("key-rate-row", check_key_rate_row),
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
