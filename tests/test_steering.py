import types

import numpy as np
import pytest

from graphsteering import (
    Bipartition,
    Graph,
    NotTwoColorable,
    build_graph_state,
    critical_disturbance,
    derive_both_settings,
    disturbance_entropy,
    key_rate_scan,
    make_chain,
    make_star,
    noise_threshold,
    steering_statistic,
    two_color,
    white_noise,
)
from graphsteering import graphs, steering
from oracle import key_rate_rows, pair_table, table_key_rate_rows


def binary_search_root(f, lo, hi, tol=1e-12):
    """Independent scalar bisection used as an oracle for the library's solvers."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noisy_excess(p, d):
    """Closed form for the certified excess of a white-noisy ideal pair.

    Each setting's joint table is (1-p) I/d + p/d^2, whose mutual information
    is log2(d) - H of the conditional column.
    """
    joint = (1 - p) * np.eye(d) / d + p / d ** 2
    marg = joint.sum(axis=0)
    ratio = np.where(joint > 0, joint / marg, 1.0)
    h_cond = -np.sum(joint * np.log2(ratio))
    return 2 * (np.log2(d) - h_cond) - np.log2(d)


class TestWhiteNoise:
    def test_endpoints(self):
        psi = build_graph_state(make_star(3), 2)
        pure = white_noise(psi, 0.0)
        np.testing.assert_allclose(
            pure.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12
        )
        mixed = white_noise(psi, 1.0)
        np.testing.assert_allclose(mixed.matrix, np.eye(8) / 8, atol=1e-12)

    def test_trace_one(self):
        psi = build_graph_state(make_chain(4), 3)
        for p in (0.1, 0.5, 0.9):
            assert abs(np.trace(white_noise(psi, p).matrix).real - 1.0) < 1e-10

    def test_out_of_range(self):
        psi = build_graph_state(make_star(3), 2)
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError):
                white_noise(psi, p)


class TestSteeringStatistic:
    def test_ideal_value(self):
        for d in (2, 3):
            g = make_star(3)
            part = Bipartition.from_side_a(g, {1})
            settings = derive_both_settings(g, d, part)
            report = steering_statistic(g, d, settings, part)
            assert abs(report.i_total - 2 * np.log2(d)) < 1e-9
            assert report.steerable
            for i_m in report.i_per_setting:
                assert abs(i_m - np.log2(d)) < 1e-9

    def test_independent_of_n(self):
        d = 2
        values = []
        for n in (3, 4, 5):
            g = make_star(n)
            part = Bipartition.from_side_a(g, {1})
            settings = derive_both_settings(g, d, part)
            values.append(steering_statistic(g, d, settings, part, 0.15).i_total)
        assert max(values) - min(values) < 1e-9

    def test_matches_closed_form_under_noise(self):
        for d in (2, 3):
            g = make_chain(3)
            part = Bipartition.from_side_a(g, {1})
            settings = derive_both_settings(g, d, part)
            for p in (0.05, 0.2, 0.6):
                report = steering_statistic(g, d, settings, part, p)
                expected = noisy_excess(p, d) + np.log2(d)
                assert abs(report.i_total - expected) < 1e-9

    def test_fully_mixed_not_steerable(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        settings = derive_both_settings(g, 2, part)
        report = steering_statistic(g, 2, settings, part, 1.0)
        assert not report.steerable
        assert abs(report.i_total) < 1e-9

    def test_out_of_range_noise(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        settings = derive_both_settings(g, 2, part)
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError):
                steering_statistic(g, 2, settings, part, p)


class TestNoiseThreshold:
    def test_matches_scalar_oracle(self):
        for d in (2, 3):
            g = make_star(3)
            part = Bipartition.from_side_a(g, {1})
            got = noise_threshold(g, d, part)
            expected = binary_search_root(lambda p: noisy_excess(p, d), 1e-9, 1.0)
            assert abs(got - expected) < 1e-6

    def test_d2_value(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        assert abs(noise_threshold(g, 2, part) - 0.2200) < 1e-3

    def test_grows_with_dimension(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        assert noise_threshold(g, 3, part) > noise_threshold(g, 2, part)

    def test_independent_of_n(self):
        vals = []
        for n in (3, 4):
            g = make_chain(n)
            part = Bipartition.from_side_a(g, {1})
            vals.append(noise_threshold(g, 2, part))
        assert abs(vals[0] - vals[1]) < 1e-6


class TestKeyRate:
    def test_ideal_rate(self):
        for d in (2, 3):
            g = make_star(3)
            part = Bipartition.from_side_a(g, {1})
            [(_, i_total, r_lower)] = key_rate_scan(g, d, part, [0.0])
            assert abs(r_lower - np.log2(d)) < 1e-9
            assert i_total >= np.log2(d)

    def test_clamped_at_high_noise(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        [(_, i_total, r_lower)] = key_rate_scan(g, 2, part, [0.5])
        assert r_lower == 0.0
        assert i_total < 1.0

    def test_scan_matches_closed_form(self):
        for d in (2, 3):
            g = make_star(3)
            part = Bipartition.from_side_a(g, {1})
            grid = np.linspace(0.0, 0.5, 11)
            for p, i_total, r_lower in key_rate_scan(g, d, part, grid):
                expected_i = noisy_excess(p, d) + np.log2(d)
                assert abs(i_total - expected_i) < 1e-9
                assert abs(r_lower - max(0.0, expected_i - np.log2(d))) < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 16])
    def test_scan_equals_rows_one_at_a_time(self, d):
        # three chunks, a p=0 row whose tables hold zeros, p=1 and p next to both ends;
        # bitwise against steering_statistic's float path, and to round-off against the
        # eye/d tables one at a time
        g = make_chain(4)
        part = Bipartition.from_side_a(g, {1, 2})
        settings = derive_both_settings(g, d, part)
        grid = np.concatenate([np.linspace(0.0, 1.0, 9001), [0.0, 0.5, 1.0, 5e-324, 1e-300, 1 - 2 ** -53]])
        rows = key_rate_scan(g, d, part, grid)
        assert rows.shape == (len(grid), 3)
        reports = [steering_statistic(g, d, settings, part, p) for p in grid.tolist()]
        assert rows.tolist() == [[p, r.i_total, max(0.0, r.margin)] for p, r in zip(grid.tolist(), reports)]
        np.testing.assert_allclose(rows, key_rate_rows(g, d, part, grid), rtol=0, atol=1e-11)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_scan_matches_stabilizer_table_rows(self, d):
        g = make_chain(4)
        part = Bipartition.from_side_a(g, {1, 2})
        grid = np.concatenate([np.linspace(0.0, 1.0, 101), [0.0, 0.5, 1.0]])
        dft = [pair_table(g, d, s, s, part) for s in derive_both_settings(g, d, part)]
        rows = key_rate_scan(g, d, part, grid)
        np.testing.assert_allclose(rows, table_key_rate_rows(dft, d, grid), rtol=0, atol=1e-12)

    def test_scan_rejects_bad_grid(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        with pytest.raises(ValueError):
            key_rate_scan(g, 2, part, [0.0, 1.2])


class TestDeriveBothSettings:
    def test_odd_cycle_rejected(self):
        g = Graph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        with pytest.raises(NotTwoColorable):
            derive_both_settings(g, 2, Bipartition.from_side_a(g, {1}))

    def test_two_cuts_share_one_coloring(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graphs, "two_color", lambda g: calls.append(g) or two_color(g))
        g = make_chain(10)
        first = derive_both_settings(g, 3, Bipartition.from_side_a(g, {4}))
        derive_both_settings(g, 3, Bipartition.from_side_a(g, set(range(1, 6))))
        assert len(calls) == 1
        fresh = make_chain(10)
        assert first == derive_both_settings(fresh, 3, Bipartition.from_side_a(fresh, {4}))

    def test_odd_cycle_rejected_on_every_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graphs, "two_color", lambda g: calls.append(g) or two_color(g))
        g = Graph(5, frozenset({(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)}))
        for side_a in ({1}, {4}):
            with pytest.raises(NotTwoColorable):
                derive_both_settings(g, 2, Bipartition.from_side_a(g, side_a))
        assert len(calls) == 2


class TestDisturbanceEntropy:
    def test_endpoints(self):
        for d in (2, 3):
            assert disturbance_entropy(0.0, d) == 0.0
        assert abs(disturbance_entropy(0.5, 2) - 1.0) < 1e-12

    def test_uniform_maximum(self):
        # D = (d-1)/d spreads the distribution uniformly over d outcomes
        for d in (2, 3, 5):
            val = disturbance_entropy((d - 1) / d, d)
            assert abs(val - np.log2(d)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            disturbance_entropy(-0.1, 2)

    @pytest.mark.parametrize("d", [2, 3, 5, 1448])
    def test_no_log_of_zero(self, d):
        # the 0 log 0 terms at D = 0 and D = 1, and a D whose D / (d-1) underflows
        grid = np.linspace(0.0, 1.0, 1001)
        with np.errstate(divide="raise", invalid="raise"):
            assert 0.0 <= disturbance_entropy(5e-324, d) < 1e-300
        with np.errstate(all="raise"):
            assert disturbance_entropy(0.0, d) == 0.0
            assert disturbance_entropy(1.0, d) == pytest.approx(np.log2(d - 1), abs=1e-15)
            values = disturbance_entropy(grid, d)
        assert values[0] == 0.0 and np.all(np.isfinite(values)) and np.all(values >= 0.0)
        assert values[-1] == disturbance_entropy(1.0, d)
        if d == 2:
            assert values[-1] == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5, 1448])
    def test_float_path_equals_array_path(self, d):
        grid = np.concatenate([np.linspace(0.0, 1.0, 1001), [5e-324, 1e-300, 1 - 2 ** -53]])
        floats = [repr(disturbance_entropy(D, d)) for D in grid.tolist()]
        assert floats == [repr(v) for v in disturbance_entropy(grid, d).tolist()]


def test_float_path_calls_no_numpy_but_one_log2(monkeypatch):
    # with a numpy namespace that holds only a counting log2, any other numpy call raises
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    settings = derive_both_settings(g, 3, part)
    want = [
        steering_statistic(g, 3, settings, part, p=0.13),
        disturbance_entropy(0.2, 3),
        noise_threshold(g, 3, part),
        critical_disturbance(3),
    ]
    calls = []

    def log2(x):
        calls.append(x)
        return np.log2(x)

    monkeypatch.setattr(steering, "np", types.SimpleNamespace(log2=log2))
    assert steering_statistic(g, 3, settings, part, p=0.13) == want[0]
    assert len(calls) == 1
    assert disturbance_entropy(0.2, 3) == want[1]
    assert len(calls) == 2
    assert [noise_threshold(g, 3, part), critical_disturbance(3)] == want[2:]


class TestCriticalDisturbance:
    def test_reference_values(self):
        assert abs(critical_disturbance(2) - 0.1100) < 5e-4
        assert abs(critical_disturbance(3) - 0.1595) < 5e-4

    def test_residual_is_zero(self):
        for d in (2, 3, 5):
            dc = critical_disturbance(d)
            assert abs(disturbance_entropy(dc, d) - 0.5 * np.log2(d)) < 1e-7

    def test_matches_scalar_oracle(self):
        for d in (2, 3):
            expected = binary_search_root(
                lambda x: disturbance_entropy(x, d) - 0.5 * np.log2(d),
                1e-12,
                (d - 1) / d,
            )
            assert abs(critical_disturbance(d) - expected) < 1e-8

    def test_monotone_in_d(self):
        vals = [critical_disturbance(d) for d in range(2, 7)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            critical_disturbance(1)

    def test_noise_threshold_consistency(self):
        # p_noise relates to the critical disturbance by the depolarizing map
        g = make_star(3)
        for d in (2, 3):
            part = Bipartition.from_side_a(g, {1})
            p_noise = noise_threshold(g, d, part)
            assert abs(p_noise * (d - 1) / d - critical_disturbance(d)) < 1e-6
