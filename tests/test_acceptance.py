"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they are produced; under plain ``pytest`` the test outcomes carry
the same information.
"""

import itertools
import time

import numpy as np

from graphsteering import (
    Bipartition,
    ProtocolConfig,
    build_graph_state,
    build_povm,
    critical_disturbance,
    derive_both_settings,
    derive_setting,
    dirichlet_gamma,
    disturbance_entropy,
    estimate_rates,
    holevo,
    conditional_ensemble,
    cloner_output,
    key_rate_scan,
    make_chain,
    make_star,
    measured_joint,
    mutual_info_ab,
    mutual_information,
    no_sharing_sum,
    noise_threshold,
    run_protocol,
    schmidt_decompose,
    steering_statistic,
    two_color,
    uncertainty_floor,
)
def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def _mod_rank(matrix, d):
    """Rank of a 0/1 integer matrix over the field of d elements (d prime)."""
    m = [row[:] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col] % d), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, d)
        m[row] = [(x * inv) % d for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] % d:
                factor = m[r][col]
                m[r] = [(a - factor * b) % d for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def single_link_bipartitions(g, d):
    """Bipartitions whose crossing edges carry one unit of entanglement.

    The Schmidt rank across a cut is d to the mod-d rank of the crossing-edge
    matrix, so the rank-d claim applies exactly when that matrix has rank 1.
    """
    out = []
    for size in range(1, g.n_vertices):
        for side_a in itertools.combinations(range(1, g.n_vertices + 1), size):
            part = Bipartition.from_side_a(g, side_a)
            rows = sorted(part.side_a)
            cols = sorted(part.side_b)
            matrix = [
                [1 if (min(i, j), max(i, j)) in g.edges else 0 for j in cols]
                for i in rows
            ]
            if _mod_rank(matrix, d) == 1:
                out.append(part)
    return out


def sweep_cases():
    graphs = [make_star(n) for n in (2, 3, 4, 5)] + [make_chain(n) for n in (3, 4, 5)]
    for d in (2, 3):
        for g in graphs:
            for part in single_link_bipartitions(g, d):
                yield g, d, part


def test_criterion_1_critical_disturbance():
    start = time.monotonic()
    dc2 = critical_disturbance(2)
    dc3 = critical_disturbance(3)
    elapsed = time.monotonic() - start
    ok = abs(dc2 - 0.1100) < 5e-4 and abs(dc3 - 0.1595) < 5e-4 and elapsed < 1.0
    report(1, ok, f"D_c(2)={dc2:.6f}, D_c(3)={dc3:.6f}, {elapsed:.3f}s")


def test_criterion_2_ideal_steering_value():
    start = time.monotonic()
    worst = 0.0
    cases = 0
    for g, d, part in sweep_cases():
        settings = derive_both_settings(g, d, part)
        stat = steering_statistic(g, d, settings, part)
        worst = max(worst, abs(stat.i_total - 2 * np.log2(d)))
        cases += 1
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 120.0
    report(2, ok, f"{cases} cases, max |i_total - 2log2(d)| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_schmidt_rank():
    worst_coeff = 0.0
    worst_tail = 0.0
    cases = 0
    for g, d, part in sweep_cases():
        form = schmidt_decompose(build_graph_state(g, d), part)
        worst_coeff = max(
            worst_coeff, float(np.max(np.abs(form.coefficients[:d] - d ** -0.5)))
        )
        if len(form.coefficients) > d:
            worst_tail = max(worst_tail, float(np.max(form.coefficients[d:])))
        cases += 1
    ok = worst_coeff < 1e-9 and worst_tail < 1e-10
    report(
        3,
        ok,
        f"{cases} cases, coefficient error {worst_coeff:.2e}, tail {worst_tail:.2e}",
    )


def test_criterion_4_no_sharing():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    violations = 0
    worst_oracle = 0.0
    for d in (2, 3, 5):
        bound = 2 * np.log2(d)
        for _ in range(1000):
            g = dirichlet_gamma(d, rng)
            _, _, total = no_sharing_sum(g)
            if total > bound + 1e-9:
                violations += 1
            out = cloner_output(g)
            for m in (1, 2):
                gap = abs(mutual_info_ab(g, m) - mutual_information(measured_joint(out, m, m)))
                worst_oracle = max(worst_oracle, gap)
    elapsed = time.monotonic() - start
    ok = violations == 0 and worst_oracle < 1e-9 and elapsed < 60.0
    report(
        4,
        ok,
        f"3000 samples, {violations} violations, oracle gap {worst_oracle:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_noise_keyrate_closed_form():
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 21)
    for d in (2, 3):
        curves = []
        for n in (2, 3, 4):
            g = make_star(n)
            part = Bipartition.from_side_a(g, {1})
            rows = key_rate_scan(g, d, part, grid)
            curve = [r_lower for _, _, r_lower in rows]
            curves.append(curve)
            for p, row in zip(grid, curve):
                closed = max(
                    0.0, np.log2(d) - 2 * disturbance_entropy(p * (d - 1) / d, d)
                )
                worst = max(worst, abs(row - closed))
        for other in curves[1:]:
            worst = max(worst, max(abs(a - b) for a, b in zip(curves[0], other)))
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    p2 = noise_threshold(g, 2, part)
    consistency = max(
        abs(noise_threshold(g, d, part) * (d - 1) / d - critical_disturbance(d))
        for d in (2, 3)
    )
    ok = worst < 1e-9 and abs(p2 - 0.2200) < 1e-3 and consistency < 1e-6
    report(
        5,
        ok,
        f"closed-form gap {worst:.2e}, p_noise(2)={p2:.5f}, "
        f"D_c consistency {consistency:.2e}",
    )


def test_criterion_6_uncertainty_floor():
    rng = np.random.default_rng(99)
    worst_margin = np.inf
    for d in (2, 3):
        for g in (make_star(3), make_chain(4)):
            part = Bipartition.from_side_a(g, {1})
            settings = derive_both_settings(g, d, part)
            povm1 = build_povm(settings[0], "B", d)
            povm2 = build_povm(settings[1], "B", d)
            floor = uncertainty_floor(povm1, povm2, 2000, rng)
            worst_margin = min(worst_margin, floor - np.log2(d))
    ok = worst_margin >= -1e-7
    report(6, ok, f"min over cases of (floor - log2 d) = {worst_margin:.2e}")


def test_criterion_7_pinned_regression():
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    coloring = two_color(g)
    settings = [
        derive_setting(g, 2, coloring, part, m) for m in (1, 2)
    ]
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    expected = {
        (1, "A"): [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
        (1, "B"): [
            np.kron(np.outer(v, v), np.eye(2)) for v in (plus, minus)
        ],
        (2, "A"): [np.outer(plus, plus), np.outer(minus, minus)],
        (2, "B"): [np.diag([1.0, 0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0, 0.0])],
    }
    worst = 0.0
    for m, setting in zip((1, 2), settings):
        for side in ("A", "B"):
            povm = build_povm(setting, side, 2)
            for effect, ref in zip(povm.effects, expected[(m, side)]):
                worst = max(worst, float(np.max(np.abs(effect - ref))))
    ok = worst < 1e-12
    report(7, ok, f"max entry-wise deviation {worst:.2e}")


def test_criterion_8_phase_covariant_consistency():
    from graphsteering import phase_covariant_gamma

    worst = 0.0
    for d in (2, 3):
        for D in np.arange(0.0, 0.301, 0.05):
            g = phase_covariant_gamma(float(D), d)
            out = cloner_output(g)
            closed = np.log2(d) - 2 * disturbance_entropy(float(D), d)
            for m in (1, 2):
                i_ab = mutual_information(measured_joint(out, m, m))
                chi = holevo(conditional_ensemble(g, m))
                worst = max(worst, abs((i_ab - chi) - closed))
    ok = worst < 1e-9
    report(8, ok, f"max |DW rate - closed form| = {worst:.2e}")


def test_criterion_9_protocol_convergence():
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    start = time.monotonic()
    clean = estimate_rates(
        run_protocol(ProtocolConfig(graph=g, d=2, part=part, rounds=100_000, seed=12)),
        2,
    )
    attacked = estimate_rates(
        run_protocol(
            ProtocolConfig(
                graph=g, d=2, part=part, rounds=100_000, seed=12, cloner_disturbance=0.2
            )
        ),
        2,
    )
    elapsed = time.monotonic() - start
    ok = (
        abs(clean.i_hat_total - 2.0) <= 0.02
        and clean.r_hat_lower >= 0.98
        and attacked.r_hat_lower == 0.0
        and elapsed < 30.0
    )
    report(
        9,
        ok,
        f"i_hat={clean.i_hat_total:.4f}, r_hat={clean.r_hat_lower:.4f}, "
        f"attacked r_hat={attacked.r_hat_lower}, {elapsed:.2f}s",
    )
