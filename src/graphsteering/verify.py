"""Self-contained invariant suite behind the `verify` CLI command.

Each check returns silently or raises AssertionError; the runner collects
results as (name, passed, detail) triples.  Every check runs the production
closed-form path against the paper's values, at sizes no state vector fits;
none builds a state vector or density matrix (the dense checks live in the
tests).  The ideal-correlations check is the proof at scale that the
Bell-diagonal tables (``cloner.pair_tables``) are the graph state's: it
derives each cut's four tables by the DFT of ``schmidt.stabilizer_table``
and compares them with the protocol's; key-rate-row compares their
information with the closed form of ``certify``, ``fig4`` and ``fig5``.
"""

from __future__ import annotations

import numpy as np

from .cloner import no_sharing_scan, pair_tables, phase_covariant_gamma, shared_information
from .graphs import Bipartition, Graph, make_chain, make_grid, make_star
from .infotheory import mutual_information
from .protocol import ProtocolConfig, setting_pair_tables
from .schmidt import mix_white_noise, stabilizer_table
from .steering import (
    critical_disturbance,
    critical_noise,
    derive_both_settings,
    disturbance_entropy,
    key_rate_curve,
)


def check_ideal_correlations():
    """Diagonal closed-form tables with i_total = 2 log2 d, which the protocol's four setting-pair tables match."""
    tree = Graph(7, frozenset({(1, 2), (1, 4), (1, 5), (1, 7), (2, 3), (5, 6)}))
    k4_100 = Graph(104, frozenset((i, j) for i in range(1, 5) for j in range(5, 105)))
    cube = Graph(1000, frozenset(  # 10x10x10 lattice, vertex 1 + x + 10 y + 100 z
        (v, v + step) for v in range(1, 1001) for step, block in ((1, 10), (10, 100), (100, 1000))
        if (v - 1) % block + step < block
    ))
    cases = [
        (make_star(1000), 3, {1}),
        (make_grid(30, 30), 2, {1, 30}),
        (make_grid(30, 30), 6, {1, 30}),
        (make_chain(1000), 3, {500}),
        (tree, 2, {4, 5, 6, 7}),  # a product element here has surjective forms and I = 0
        (k4_100, 3, {1}),  # dense cuts, whose least-support element is hard to find
        (cube, 2, set(range(1, 501))),
    ]
    for g, d, side_a in cases:
        part = Bipartition.from_side_a(g, side_a)
        settings = derive_both_settings(g, d, part)
        stack = stabilizer_table(g, d, [(sa, sb) for sa in settings for sb in settings], part)
        protocol_tables = setting_pair_tables(ProtocolConfig(g, d, part))
        assert np.max(np.abs(stack - protocol_tables)) < 1e-10, f"N={g.n_vertices}, d={d}: protocol tables"
        tables = stack[[0, 3]]  # the matched pairs (1, 1) and (2, 2)
        assert np.max(np.abs(tables - np.eye(d) / d)) < 1e-10
        i_total = sum(mutual_information(table) for table in tables)
        assert abs(i_total - 2 * np.log2(d)) < 1e-9, f"N={g.n_vertices}, d={d}: i_total {i_total}"


def check_mutual_information_bounds():
    rng = np.random.default_rng(31)
    for _ in range(20):
        table = rng.dirichlet(np.ones(12)).reshape(3, 4)
        mi = mutual_information(table)
        assert -1e-12 <= mi <= np.log2(3) + 1e-12


def check_no_sharing():
    """B and the clone C never both steer: I_AB and I_AC are not both strictly above log2 d.

    Over random attacks, by ``nosharing``'s scan, and at the phase-covariant attack's
    D* = (1 - 1/sqrt d)/2, where the two are equal and below log2 d, so that neither copy steers.
    """
    rng = np.random.default_rng(41)
    for d in (2, 3, 5):
        _, violations = no_sharing_scan(d, 100, rng)
        assert violations == 0, f"d={d}: {violations} of 100 attacks leave both copies above log2 d"
        i_ab, i_ac = shared_information(phase_covariant_gamma((1 - 1 / np.sqrt(d)) / 2, d))
        assert abs(i_ab - i_ac) < 1e-12 and i_ab < np.log2(d), f"d={d}: I_AB {i_ab}, I_AC {i_ac} at D*"


def check_critical_disturbance():
    """dc's D_c is the paper's, and log2 d - 2 H(D) changes sign across it at float resolution."""
    for d, expected in ((2, 0.1100), (3, 0.1595)):
        dc = critical_disturbance(d)
        assert abs(dc - expected) < 5e-4, f"D_c({d}) = {dc}"
        below, above = (np.log2(d) - 2 * disturbance_entropy(dc * s, d) for s in (1 - 1e-14, 1 + 1e-14))
        assert below > 0.0 > above, f"d={d}: log2 d - 2 H(D) is {below} below D_c={dc}, {above} above"


def check_noise_threshold():
    """fig5's p_noise is where certify's closed form stops giving a key rate: r_lower > 0 below it, 0 above."""
    p_noise = {d: critical_noise(d) for d in (2, 3, 1448)}
    assert abs(p_noise[2] - 0.22) < 1e-3, f"p_noise(2) = {p_noise[2]}"
    for d, p in p_noise.items():
        (_, _, below), (_, _, above) = key_rate_curve(d, [p * (1 - 1e-14), p * (1 + 1e-14)])
        assert below > 0.0 and above == 0.0, f"d={d}: r_lower {below} below p_noise={p}, {above} above"


def check_key_rate_row():
    """fig4 rows, a function of d and p alone, against the noisy eye/d tables' information."""
    for d, p in ((2, 0.1), (1448, 0.3)):
        [(_, i_total, _)] = key_rate_curve(d, [p])
        tables = mix_white_noise(pair_tables(phase_covariant_gamma(0.0, d))[[0, 3]], p)
        i_tables = sum(mutual_information(table) for table in tables)
        assert abs(i_total - i_tables) < 1e-9, f"d={d}, p={p}: i_total {i_total}, tables {i_tables}"


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
