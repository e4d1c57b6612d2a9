import dataclasses
import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings as hyp_settings, strategies as st

from graphsteering import (
    Bipartition,
    Graph,
    MeasurementSetting,
    NoCorrelationForm,
    PureState,
    QuditRegister,
    build_graph_state,
    build_povm,
    derive_both_settings,
    derive_setting,
    fourier_op,
    joint_distribution,
    make_chain,
    make_grid,
    make_star,
    mutual_information,
    schmidt_decompose,
    stabilizer_table,
    two_color,
    white_noise,
)
from graphsteering import schmidt
from graphsteering.cli import main
from graphsteering.registers import haar_vector, permute_qudits
from graphsteering.schmidt import COMPUTATIONAL, FOURIER, characteristic_table, side_order
from oracle import edge_characteristic_table, outcome_table, pair_table


def settings_for(g, d, side_a):
    part = Bipartition.from_side_a(g, side_a)
    coloring = two_color(g)
    return part, [derive_setting(g, d, coloring, part, m) for m in (1, 2)]


def conditional_b_vectors(g, d, part, setting):
    """B-side Schmidt-basis-m states via projecting the A side outcome-by-outcome."""
    psi = permute_qudits(build_graph_state(g, d), side_order(part))
    dim_a = d ** len(part.side_a)
    dim_b = d ** len(part.side_b)
    mat = psi.amplitudes.reshape(dim_a, dim_b)
    basis_a = np.ones((1, 1), dtype=complex)
    f = fourier_op(d)
    for v in setting.a_vertices:
        factor = f if setting.local_bases[v] == FOURIER else np.eye(d, dtype=complex)
        basis_a = np.kron(basis_a, factor)
    conditioned = basis_a.conj().T @ mat  # rows: A-side product-basis outcomes
    vectors = []
    digits = (d,) * len(setting.a_vertices)
    for row, vec in enumerate(conditioned):
        norm = np.linalg.norm(vec)
        if norm > 1e-12:
            value = sum(
                c * o for c, o in zip(setting.fa_coeffs, np.unravel_index(row, digits))
            ) % d
            vectors.append((value, vec / norm))
    return vectors


class TestSchmidtDecompose:
    def test_star_rank_d_any_cut(self):
        for d in (2, 3):
            for n in (3, 4):
                g = make_star(n)
                psi = build_graph_state(g, d)
                for size in range(1, n):
                    for side_a in itertools.combinations(range(1, n + 1), size):
                        part = Bipartition.from_side_a(g, side_a)
                        form = schmidt_decompose(psi, part)
                        assert form.rank == d
                        np.testing.assert_allclose(
                            form.coefficients[:d], np.full(d, d ** -0.5), atol=1e-9
                        )
                        assert np.all(form.coefficients[d:] < 1e-10)

    def test_chain_contiguous_cut_rank_d(self):
        for d in (2, 3):
            g = make_chain(4)
            psi = build_graph_state(g, d)
            for k in (1, 2, 3):
                part = Bipartition.from_side_a(g, set(range(1, k + 1)))
                form = schmidt_decompose(psi, part)
                assert form.rank == d
                np.testing.assert_allclose(
                    form.coefficients[:d], np.full(d, d ** -0.5), atol=1e-9
                )

    def test_flat_spectrum_any_cut(self):
        # every bipartition of a graph state has equal Schmidt coefficients
        for d in (2, 3):
            for g in (make_star(3), make_chain(4)):
                psi = build_graph_state(g, d)
                for size in range(1, g.n_vertices):
                    for side_a in itertools.combinations(range(1, g.n_vertices + 1), size):
                        part = Bipartition.from_side_a(g, side_a)
                        form = schmidt_decompose(psi, part)
                        r = form.rank
                        np.testing.assert_allclose(
                            form.coefficients[:r], np.full(r, r ** -0.5), atol=1e-9
                        )

    def test_product_state_rank_one(self):
        rng = np.random.default_rng(8)
        a = haar_vector(2, rng)
        b = haar_vector(4, rng)
        psi = PureState(QuditRegister(3, 2), np.kron(a, b))
        form = schmidt_decompose(psi, Bipartition(frozenset({1}), frozenset({2, 3})))
        assert form.rank == 1
        assert abs(form.coefficients[0] - 1.0) < 1e-10

    def test_star3_b_vectors_span(self):
        psi = build_graph_state(make_star(3), 2)
        part = Bipartition.from_side_a(make_star(3), {1})
        form = schmidt_decompose(psi, part)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        target = np.stack([np.kron(plus, plus), np.kron(minus, minus)])
        got = form.b_vectors[:2]
        # degenerate coefficients: compare spanned subspaces via projectors
        proj_target = target.conj().T @ target
        proj_got = got.conj().T @ got
        np.testing.assert_allclose(proj_got, proj_target, atol=1e-10)

    def test_reconstruction_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            psi = PureState(QuditRegister(n, d), haar_vector(d ** n, rng))
            size = int(rng.integers(1, n))
            side_a = frozenset(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            part = Bipartition(side_a, frozenset(range(1, n + 1)) - side_a)
            form = schmidt_decompose(psi, part)
            reordered = permute_qudits(psi, side_order(part))
            np.testing.assert_allclose(form.reconstruct(), reordered.amplitudes, atol=1e-9)
            assert abs(np.sum(form.coefficients ** 2) - 1.0) < 1e-10
            # orthonormality of the reported vectors
            gram_a = form.a_vectors.conj() @ form.a_vectors.T
            np.testing.assert_allclose(gram_a, np.eye(len(gram_a)), atol=1e-10)


class TestDeriveSetting:
    def test_star3_m1(self):
        _, settings = settings_for(make_star(3), 2, {1})
        s = settings[0]
        assert s.local_bases == {1: COMPUTATIONAL, 2: FOURIER, 3: FOURIER}
        assert s.fa_coeffs == (1,)
        assert s.fb_coeffs == (1, 0)

    def test_star3_m2(self):
        _, settings = settings_for(make_star(3), 2, {1})
        s = settings[1]
        assert s.local_bases == {1: FOURIER, 2: COMPUTATIONAL, 3: COMPUTATIONAL}
        assert s.fa_coeffs == (1,)
        assert s.fb_coeffs == (1, 1)

    def test_chain4_split_ends(self):
        # correlation from the stabilizer of vertex 4: A reads vertex 4, B vertex 3
        _, settings = settings_for(make_chain(4), 2, {1, 4})
        s = settings[0]
        assert s.a_vertices == (1, 4)
        assert s.fa_coeffs == (0, 1)
        assert s.fb_coeffs == (0, 1)

    def test_perfect_correlation_all_supported_cases(self):
        for d in (2, 3):
            for g in (make_star(3), make_star(4), make_chain(4), make_chain(5)):
                psi = build_graph_state(g, d)
                rho = psi.density()
                for size in range(1, g.n_vertices):
                    for side_a in itertools.combinations(
                        range(1, g.n_vertices + 1), size
                    ):
                        part, settings = settings_for(g, d, side_a)
                        for s in settings:
                            pa = build_povm(s, "A", d)
                            pb = build_povm(s, "B", d)
                            table = joint_distribution(rho, pa, pb, part)
                            np.testing.assert_allclose(
                                table, np.eye(d) / d, atol=1e-10
                            )
                            np.testing.assert_allclose(
                                table.sum(axis=0), np.full(d, 1 / d), atol=1e-10
                            )
                            np.testing.assert_allclose(
                                table.sum(axis=1), np.full(d, 1 / d), atol=1e-10
                            )

    def test_bad_setting_index(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        with pytest.raises(ValueError):
            derive_setting(g, 2, two_color(g), part, 3)


class TestBuildPovm:
    def test_effects_sum_to_identity(self):
        for d in (2, 3):
            _, settings = settings_for(make_chain(4), d, {1, 3})
            for s in settings:
                for side in ("A", "B"):
                    povm = build_povm(s, side, d)
                    total = sum(povm.effects)
                    np.testing.assert_allclose(total, np.eye(total.shape[0]), atol=1e-12)

    def test_effects_psd(self):
        _, settings = settings_for(make_star(4), 3, {1})
        for s in settings:
            for effect in build_povm(s, "B", 3).effects:
                assert np.min(np.linalg.eigvalsh(effect)) > -1e-10

    def test_star3_b_side_m2_effects(self):
        _, settings = settings_for(make_star(3), 2, {1})
        povm = build_povm(settings[1], "B", 2)
        even = np.zeros((4, 4))
        even[0, 0] = even[3, 3] = 1
        odd = np.zeros((4, 4))
        odd[1, 1] = odd[2, 2] = 1
        np.testing.assert_allclose(povm.effects[0], even, atol=1e-12)
        np.testing.assert_allclose(povm.effects[1], odd, atol=1e-12)

    def test_effects_commute_with_schmidt_projectors(self):
        for d in (2, 3):
            g = make_star(3)
            part, settings = settings_for(g, d, {1})
            for s in settings:
                povm = build_povm(s, "B", d)
                for value, vec in conditional_b_vectors(g, d, part, s):
                    proj = np.outer(vec, vec.conj())
                    for effect in povm.effects:
                        comm = effect @ proj - proj @ effect
                        assert np.max(np.abs(comm)) < 1e-10


class TestJointDistribution:
    def test_white_noise_closed_form(self):
        for d in (2, 3):
            g = make_star(3)
            part, settings = settings_for(g, d, {1})
            psi = build_graph_state(g, d)
            for p in (0.0, 0.37, 1.0):
                rho = white_noise(psi, p)
                for s in settings:
                    table = joint_distribution(
                        rho, build_povm(s, "A", d), build_povm(s, "B", d), part
                    )
                    expected = (1 - p) * np.eye(d) / d + p / d ** 2
                    np.testing.assert_allclose(table, expected, atol=1e-10)

    def test_maximally_mixed_uniform(self):
        d = 2
        g = make_chain(3)
        part, settings = settings_for(g, d, {2})
        rho = white_noise(build_graph_state(g, d), 1.0)
        s = settings[0]
        table = joint_distribution(rho, build_povm(s, "A", d), build_povm(s, "B", d), part)
        np.testing.assert_allclose(table, np.full((d, d), 1 / d ** 2), atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        other_part, other_settings = settings_for(g, 2, {1, 2})
        rho = build_graph_state(g, 2).density()
        with pytest.raises(ValueError):
            joint_distribution(
                rho,
                build_povm(other_settings[0], "A", 2),
                build_povm(settings[0], "B", 2),
                part,
            )


class TestPinnedExactRegression:
    def test_pinned_reference_operators(self):
        part, settings = settings_for(make_star(3), 2, {1})
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        h = np.stack([plus, minus]).T
        # setting 1: A computational on qubit 1; B coarse-grains qubit 2's Fourier outcome
        pa1 = build_povm(settings[0], "A", 2)
        np.testing.assert_allclose(pa1.effects[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(pa1.effects[1], np.diag([0.0, 1.0]), atol=1e-12)
        pb1 = build_povm(settings[0], "B", 2)
        np.testing.assert_allclose(
            pb1.effects[0], np.kron(np.outer(plus, plus), np.eye(2)), atol=1e-12
        )
        np.testing.assert_allclose(
            pb1.effects[1], np.kron(np.outer(minus, minus), np.eye(2)), atol=1e-12
        )
        # setting 2: A in the |+/-> basis; B coarse-grains computational parity
        pa2 = build_povm(settings[1], "A", 2)
        np.testing.assert_allclose(pa2.effects[0], np.outer(plus, plus), atol=1e-12)
        np.testing.assert_allclose(pa2.effects[1], np.outer(minus, minus), atol=1e-12)
        pb2 = build_povm(settings[1], "B", 2)
        even = np.diag([1.0, 0.0, 0.0, 1.0])
        odd = np.diag([0.0, 1.0, 1.0, 0.0])
        np.testing.assert_allclose(pb2.effects[0], even, atol=1e-12)
        np.testing.assert_allclose(pb2.effects[1], odd, atol=1e-12)

    def test_canonical_search_matches_paper_exact(self):
        # the worked example's forms: B reads qubit 2 alone, then the parity of 2 and 3
        _, canonical = settings_for(make_star(3), 2, {1})
        bases = (
            {1: COMPUTATIONAL, 2: FOURIER, 3: FOURIER},
            {1: FOURIER, 2: COMPUTATIONAL, 3: COMPUTATIONAL},
        )
        pinned = [
            MeasurementSetting(m, bases[m - 1], (1,), (2, 3), (1,), fb)
            for m, fb in ((1, (1, 0)), (2, (1, 1)))
        ]
        for a, b in zip(canonical, pinned):
            assert a == b


def oracle_gap(g, d, part, noise_levels):
    """Largest |outcome_table - dense oracle| over every setting pair and noise level."""
    settings = derive_both_settings(g, d, part)
    psi = build_graph_state(g, d)
    worst = 0.0
    for p in noise_levels:
        rho = white_noise(psi, p)
        for sa in settings:
            for sb in settings:
                dense = joint_distribution(
                    rho, build_povm(sa, "A", d), build_povm(sb, "B", d), part
                )
                fast = outcome_table(psi, sa, sb, part, p)
                worst = max(worst, float(np.max(np.abs(fast - dense))))
    return worst


# The dense oracle holds d^2N entries, so d=5 stops at N=4 (N=6 would need 3.9 GB).
ORACLE_CASES = [
    (make_star(6), 2, {1}), (make_star(6), 2, {2, 3}), (make_chain(6), 2, {1, 2, 3}),
    (make_chain(6), 2, {2, 5}), (make_grid(2, 3), 2, {1, 2}), (make_grid(2, 3), 2, {5}),
    (make_star(5), 3, {1}), (make_star(5), 3, {4}), (make_chain(5), 3, {1, 2}),
    (make_grid(2, 2), 3, {1, 4}), (make_star(3), 5, {1}), (make_chain(4), 5, {1, 2}),
]


class TestOutcomeTable:
    @pytest.mark.parametrize("g, d, side_a", ORACLE_CASES)
    def test_matches_dense_oracle(self, g, d, side_a):
        part = Bipartition.from_side_a(g, side_a)
        assert oracle_gap(g, d, part, (0.0, 0.13, 1.0)) < 1e-12

    @hyp_settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_trees_match_dense_oracle(self, data):
        d = data.draw(st.sampled_from([2, 3]), label="d")
        n = data.draw(st.integers(2, 6 if d == 2 else 5), label="n")
        parents = [data.draw(st.integers(1, k - 1), label=f"parent of {k}") for k in range(2, n + 1)]
        g = Graph(n, frozenset(zip(parents, range(2, n + 1))))
        side_a = data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=n - 1), label="side_a"
        )
        p = data.draw(st.floats(0.0, 1.0), label="p")
        assert oracle_gap(g, d, Bipartition.from_side_a(g, side_a), (p,)) < 1e-12

    def test_ideal_tables_are_diagonal(self):
        for d in (2, 3, 7):
            g = make_chain(5)
            part = Bipartition.from_side_a(g, {1, 2})
            psi = build_graph_state(g, d)
            for s in derive_both_settings(g, d, part):
                np.testing.assert_allclose(
                    outcome_table(psi, s, s, part), np.eye(d) / d, atol=1e-12
                )

    def test_bipartition_mismatch_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        other = Bipartition.from_side_a(g, {1, 2})
        with pytest.raises(ValueError):
            outcome_table(build_graph_state(g, 2), settings[0], settings[0], other)

    def test_non_surjective_form_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        broken = dataclasses.replace(settings[0], fa_coeffs=(0,))
        with pytest.raises(ValueError):
            outcome_table(build_graph_state(g, 2), broken, settings[0], part)

    def test_noise_out_of_range_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError):
                outcome_table(build_graph_state(g, 2), settings[0], settings[0], part, p)


def draw_bipartite_graph(data, max_n):
    """A random two-colorable graph on 2..max_n vertices; it may be disconnected."""
    n = data.draw(st.integers(2, max_n), label="n")
    colors = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="colors")
    pairs = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
        if colors[i - 1] != colors[j - 1]
    ]
    edges = data.draw(st.sets(st.sampled_from(pairs)), label="edges") if pairs else set()
    return Graph(n, frozenset(edges))


def draw_cut(data, g):
    side_a = data.draw(
        st.sets(st.integers(1, g.n_vertices), min_size=1, max_size=g.n_vertices - 1),
        label="side_a",
    )
    return Bipartition.from_side_a(g, side_a)


def draw_setting(data, d, part):
    """Any local bases and surjective forms: the closed form needs no stabilizer origin."""
    sides = (tuple(sorted(part.side_a)), tuple(sorted(part.side_b)))
    bases = {
        v: data.draw(st.sampled_from([COMPUTATIONAL, FOURIER]), label=f"basis {v}")
        for v in sides[0] + sides[1]
    }
    forms = []
    for side in sides:
        coeffs = data.draw(
            st.lists(st.integers(0, d - 1), min_size=len(side), max_size=len(side)), label="form"
        )
        if math.gcd(*coeffs, d) != 1:
            coeffs[0] = 1
        forms.append(tuple(coeffs))
    return MeasurementSetting(0, bases, *sides, *forms)


# Largest N per d that keeps the oracle's d^N state below 10^4 amplitudes.
ORACLE_MAX_N = {2: 9, 3: 7, 4: 6, 5: 5, 6: 5}


class TestStabilizerTable:
    @hyp_settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_state_vector_oracle(self, data):
        d = data.draw(st.sampled_from(sorted(ORACLE_MAX_N)), label="d")
        g = draw_bipartite_graph(data, ORACLE_MAX_N[d])
        part = draw_cut(data, g)
        p = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0)), label="p")
        try:
            settings = list(derive_both_settings(g, d, part))
        except NoCorrelationForm:
            settings = []
        settings.append(draw_setting(data, d, part))
        psi = build_graph_state(g, d)
        for sa in settings:
            for sb in settings:
                [fast] = stabilizer_table(g, d, [(sa, sb)], part, p)
                assert np.max(np.abs(fast - outcome_table(psi, sa, sb, part, p))) < 1e-12

    def test_ideal_tables_beyond_state_vector_sizes(self):
        for g, d, side_a in ((make_star(1000), 3, {1}), (make_chain(60), 2, {30})):
            part = Bipartition.from_side_a(g, side_a)
            pairs = [(s, s) for s in derive_both_settings(g, d, part)]
            for table in stabilizer_table(g, d, pairs, part):
                np.testing.assert_allclose(table, np.eye(d) / d, atol=1e-12)

    def test_round_off_clipped_at_zero(self):
        # the raw DFT leaves entries near -9e-18 here, which the protocol's sampler refuses
        g = make_star(4)
        part, settings = settings_for(g, 5, {3, 4})
        raw = np.fft.fft2(characteristic_table(g, 5, settings[0], settings[0], part)).real / 25
        assert raw.min() < 0
        [table] = stabilizer_table(g, 5, [(settings[0], settings[0])], part)
        assert table.min() >= 0
        np.testing.assert_allclose(table, np.eye(5) / 5, atol=1e-12)

    def test_negative_entry_rejected(self, monkeypatch):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        bad = np.array([[0.6, -0.1], [0.25, 0.25]])
        monkeypatch.setattr(schmidt, "characteristic_table", lambda *args: np.fft.ifft2(bad) * 4)
        with pytest.raises(ValueError, match="below -1e-12"):
            stabilizer_table(g, 2, [(settings[0], settings[0])], part)

    def test_bipartition_mismatch_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        other = Bipartition.from_side_a(g, {1, 2})
        with pytest.raises(ValueError, match="bipartition"):
            stabilizer_table(g, 2, [(settings[0], settings[0])], other)

    def test_non_surjective_form_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        broken = dataclasses.replace(settings[0], fa_coeffs=(0,))
        with pytest.raises(ValueError, match="surjective"):
            stabilizer_table(g, 2, [(broken, settings[0])], part)

    def test_noise_out_of_range_rejected(self):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        for p in (-0.01, 1.01):
            with pytest.raises(ValueError, match="noise"):
                stabilizer_table(g, 2, [(settings[0], settings[0])], part, p)


class TestStackedTables:
    """Integer-coefficient characteristic functions and stacked tables equal the per-edge, per-pair ones."""

    @hyp_settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_edge_and_per_pair_oracles(self, data):
        d = data.draw(st.integers(2, 7), label="d")
        g = draw_bipartite_graph(data, 12)
        part = draw_cut(data, g)
        p = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), label="p")
        try:
            settings = list(derive_both_settings(g, d, part))
        except NoCorrelationForm:
            settings = []
        settings.append(draw_setting(data, d, part))
        # every ordered pair, so (1, 2) and (2, 1), whose Fourier reads an edge may join
        pairs = list(itertools.product(settings, repeat=2))
        for sa, sb in pairs:
            np.testing.assert_array_equal(
                characteristic_table(g, d, sa, sb, part), edge_characteristic_table(g, d, sa, sb, part)
            )
        stack = stabilizer_table(g, d, pairs, part, p)
        assert stack.shape == (len(pairs), d, d)
        for table, (sa, sb) in zip(stack, pairs):
            np.testing.assert_array_equal(table, pair_table(g, d, sa, sb, part, p))

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_fourier_reads_joined_across_the_cut(self, d):
        # star(4) cut at the centre: setting 1 reads the leaves in the Fourier basis and
        # setting 2 the centre, so the (2, 1) pair reads both ends of every edge that way
        g = make_star(4)
        part, settings = settings_for(g, d, {1})
        for sa, sb in itertools.product(settings, repeat=2):
            np.testing.assert_array_equal(
                characteristic_table(g, d, sa, sb, part), edge_characteristic_table(g, d, sa, sb, part)
            )
        s1, s2 = settings
        reads_a = {v for v, c in zip(s2.a_vertices, s2.fa_coeffs) if c and s2.local_bases[v] == FOURIER}
        reads_b = {v for v, c in zip(s1.b_vertices, s1.fb_coeffs) if c and s1.local_bases[v] == FOURIER}
        assert any(i in reads_a and j in reads_b for i, j in g.edges)

    def test_one_bad_table_refuses_the_stack(self, monkeypatch):
        g = make_star(3)
        part, settings = settings_for(g, 2, {1})
        good = np.fft.ifft2(np.eye(2) / 2) * 4
        bad = np.fft.ifft2(np.array([[0.6, 0.1], [0.25, 0.25]])) * 4
        tables = iter([good, bad])
        monkeypatch.setattr(schmidt, "characteristic_table", lambda *args: next(tables))
        with pytest.raises(ValueError, match="sums to 1.2"):
            stabilizer_table(g, 2, [(settings[0], settings[0])] * 2, part)


def exhaustive_forms(g, d, coloring, part, m):
    """Reference search: every one of the d^k exponent vectors, canonical minimum kept.

    An element qualifies when its cross-cut vector c has gcd(c, d) = 1: c_b
    sums, at each vertex b, the exponents of b's Fourier neighbours on the
    other side of the cut.  Returns (fa_coeffs, fb_coeffs) or raises
    NoCorrelationForm.
    """
    generators = sorted(coloring.color_class(1 if m == 1 else 0))
    a_vertices, b_vertices = sorted(part.side_a), sorted(part.side_b)
    neighbor_sets = {a: g.neighbors(a) for a in generators}
    best = None
    for n_vec in itertools.product(range(d), repeat=len(generators)):
        if not any(n_vec):
            continue
        coeff = {v: 0 for v in range(1, g.n_vertices + 1)}
        cross = {v: 0 for v in range(1, g.n_vertices + 1)}
        for a, n_a in zip(generators, n_vec):
            coeff[a] = (coeff[a] - n_a) % d
            for b in neighbor_sets[a]:
                coeff[b] = (coeff[b] + n_a) % d
                if (a in part.side_a) != (b in part.side_a):
                    cross[b] += n_a
        if math.gcd(d, *cross.values()) != 1:
            continue
        support = tuple(sorted(v for v in coeff if coeff[v] != 0))
        key = (len(support), support, n_vec)
        if best is None or key < best[0]:
            fa = tuple(coeff[v] for v in a_vertices)
            fb = tuple((-coeff[v]) % d for v in b_vertices)
            best = (key, fa, fb)
    if best is None:
        raise NoCorrelationForm(f"no informative element, m={m}")
    return best[1], best[2]


# Largest N per d that keeps the reference under 10^4 candidates per setting.
EXHAUSTIVE_MAX_N = {2: 9, 3: 8, 4: 6, 5: 5, 6: 5, 10: 4}


def assert_matches_exhaustive(g, d, part):
    coloring = two_color(g)
    for m in (1, 2):
        try:
            expected = exhaustive_forms(g, d, coloring, part, m)
        except NoCorrelationForm:
            with pytest.raises(NoCorrelationForm):
                derive_setting(g, d, coloring, part, m)
            continue
        s = derive_setting(g, d, coloring, part, m)
        assert (s.fa_coeffs, s.fb_coeffs) == expected


class TestSearchMatchesExhaustive:
    @hyp_settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_bipartite_graphs(self, data):
        d = data.draw(st.sampled_from(sorted(EXHAUSTIVE_MAX_N)), label="d")
        g = draw_bipartite_graph(data, EXHAUSTIVE_MAX_N[d])
        assert_matches_exhaustive(g, d, draw_cut(data, g))

    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_isolated_vertices_on_both_sides(self, data):
        # the last two vertices have no edge; n - 1 is on side A and n on side B
        d = data.draw(st.sampled_from(sorted(EXHAUSTIVE_MAX_N)), label="d")
        core = draw_bipartite_graph(data, EXHAUSTIVE_MAX_N[d] - 2)
        n = core.n_vertices + 2
        side_a = data.draw(st.sets(st.integers(1, n - 2)), label="side_a") | {n - 1}
        g = Graph(n, core.edges)
        assert_matches_exhaustive(g, d, Bipartition.from_side_a(g, side_a))


class TestInformativeForms:
    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_setting_carries_log2_d(self, data):
        # refused iff no edge crosses the cut; otherwise each ideal table has
        # I = log2 d, and the state-vector oracle gives the same table up to
        # 10^5 amplitudes (at 6^8 the dense state fails its own 1e-12 norm check)
        d = data.draw(st.integers(2, 6), label="d")
        g = draw_bipartite_graph(data, 8)
        part = draw_cut(data, g)
        crossed = any((i in part.side_a) != (j in part.side_a) for i, j in g.edges)
        try:
            settings = derive_both_settings(g, d, part)
        except NoCorrelationForm:
            assert not crossed
            return
        assert crossed
        psi = build_graph_state(g, d) if d ** g.n_vertices <= 10 ** 5 else None
        for s in settings:
            [table] = stabilizer_table(g, d, [(s, s)], part)
            assert abs(mutual_information(table) - np.log2(d)) < 1e-9
            if psi is not None:
                assert np.max(np.abs(table - outcome_table(psi, s, s, part))) < 1e-12


class TestTwoComponentForms:
    """Link components have disjoint supports, and a one-sided part carries nothing."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_pair_is_the_only_answer(self, d):
        # each edge lies inside one side, so the only elements acting on both sides
        # pair an A-only part with a B-only one: the state is a product across the cut
        g = Graph(4, frozenset({(1, 2), (3, 4)}))
        part = Bipartition.from_side_a(g, {1, 2})
        coloring = two_color(g)
        for m in (1, 2):
            with pytest.raises(NoCorrelationForm, match="no edge crosses"):
                derive_setting(g, d, coloring, part, m)
            with pytest.raises(NoCorrelationForm):
                exhaustive_forms(g, d, coloring, part, m)

    def test_connected_set_precedes_tied_pair(self):
        # isolated Fourier vertices 3 (side A) and 8 (side B) act on {3, 8} but form a
        # product element; the linked positions 1 and 5 cancel on their shared
        # neighbours 2 and 7, act on {1, 5}, and are informative (c_2 = c_7 = 1)
        g = Graph(9, frozenset({(1, 2), (1, 7), (2, 4), (2, 5), (2, 9), (5, 7)}))
        part = Bipartition.from_side_a(g, {3, 5, 6, 7})
        coloring = two_color(g)
        s = derive_setting(g, 2, coloring, part, 2)
        expected = exhaustive_forms(g, 2, coloring, part, 2)
        assert (s.fa_coeffs, s.fb_coeffs) == expected == ((0, 1, 0, 0), (1, 0, 0, 0, 0))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_one_sided_cut_refused_in_linear_time(self, d):
        # A is an isolated vertex next to chain(1000): no edge crosses the cut, so no
        # search is needed (the full enumeration would visit d^500 vectors)
        g = Graph(1001, make_chain(1000).edges)
        part = Bipartition.from_side_a(g, {1001})
        start = time.perf_counter()
        with pytest.raises(NoCorrelationForm):
            derive_both_settings(g, d, part)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t", [4, 5])
    def test_union_of_unlinked_sets(self, t):
        # d=6: positions 1-4, with t middles reading each three of them, cancel their
        # middles only with equal exponents 2 or 4, so c is even; the triangle 5-7,
        # with t middles per pair, only with exponents 3, so c is a multiple of 3.
        # Their union is informative on 7 vertices, where the best connected set
        # acts on 7 (t=4, with a later support) or 8 (t=5).  Forms of the
        # exhaustive search (46 s at t=4 and 49 s at t=5 on a 2-CPU VM).
        groups = [[j for j in range(1, 5) if j != i] for i in range(1, 5)] + [[5, 6], [6, 7], [5, 7]]
        edges = set()
        for k, group in enumerate(groups):  # middles from 9 on; vertex 8 is isolated
            for b in range(9 + k * t, 9 + (k + 1) * t):
                edges |= {(a, b) for a in group}
        g = Graph(8 + 7 * t, frozenset(edges))
        part = Bipartition.from_side_a(g, set(range(1, g.n_vertices + 1)) - {1, 5})
        coloring = two_color(g)
        m = 1 if coloring.colors[1] == 1 else 2
        assert coloring.color_class(1 if m == 1 else 0) == frozenset(range(1, 9))  # middles computational
        s = derive_setting(g, 6, coloring, part, m)
        got = (nonzero(s.a_vertices, s.fa_coeffs), nonzero(s.b_vertices, s.fb_coeffs))
        assert got == ({2: 4, 3: 4, 4: 4, 6: 3, 7: 3}, {1: 2, 5: 3})


# Cuts far beyond the state vector and any search over all exponent vectors (a
# weight-ordered one ran for over 100 s on chain(1000) at d=3, and for 1 s on the
# halves of chain(40) at d=6).
LARGE_CUTS = [
    pytest.param(make_chain(1000), 3, {500}, id="chain1000-vertex"),
    pytest.param(make_chain(1000), 3, set(range(1, 501)), id="chain1000-halves"),
    pytest.param(make_grid(30, 30), 2, {1, 30}, id="grid30x30-corners"),
    pytest.param(make_grid(30, 30), 2, {1}, id="grid30x30-corner"),
    pytest.param(make_star(1000), 3, {1}, id="star1000-center"),
    pytest.param(make_star(1000), 3, {2}, id="star1000-leaf"),
    *(
        pytest.param(g, d, side_a, id=f"{name}-d{d}")
        for d in (4, 6)
        for g, side_a, name in (
            (make_chain(1000), set(range(1, 501)), "chain1000-halves"),
            (make_grid(30, 30), {1, 30}, "grid30x30-corners"),
            (make_star(1000), {1}, "star1000-center"),
        )
    ),
]


class TestLargeCuts:
    @pytest.mark.parametrize("g, d, side_a", LARGE_CUTS)
    def test_ideal_tables(self, g, d, side_a):
        part = Bipartition.from_side_a(g, side_a)
        start = time.perf_counter()
        settings = derive_both_settings(g, d, part)
        assert time.perf_counter() - start < 5.0  # a few ms on a 2-CPU VM
        tables = stabilizer_table(g, d, [(s, s) for s in settings], part)
        for table in tables:
            np.testing.assert_allclose(table, np.eye(d) / d, atol=1e-12)
        i_total = sum(mutual_information(t) for t in tables)
        assert abs(i_total - 2 * np.log2(d)) < 1e-9


def nonzero(vertices, coeffs):
    return {v: c for v, c in zip(vertices, coeffs) if c}


class TestSearchWork:
    def test_grid_cuts_score_few_sets(self, monkeypatch):
        # a set is scored only if its positions and the neighbours read once fit the best
        # support; grid(4x6) at d=2 grows thousands of sets over its 24 single-vertex cuts
        # (3,867 were scored before that filter) and can beat the bound with 54
        scored = []
        least_key = schmidt._least_key
        monkeypatch.setattr(schmidt, "_least_key", lambda *args: scored.append(args[0]) or least_key(*args))
        g = make_grid(4, 6)
        for v in range(1, g.n_vertices + 1):
            derive_both_settings(g, 2, Bipartition.from_side_a(g, {v}))
        assert len(scored) <= 60

    def test_exponents_fixed_by_cancellation(self):
        # positions 1-4 at d=30: the m=2 minimum cancels 6, 10 and 11 with n_3 = -n_1;
        # trying all 29^w exponent vectors of each set took 3.3-3.8 s (2-CPU VM).  Forms
        # of that enumeration.
        edges = [(1, 6), (1, 7), (1, 10), (1, 11), (2, 5), (2, 9), (2, 10), (3, 6), (3, 9), (3, 10),
                 (3, 11), (4, 5), (4, 7), (4, 9), (4, 11)]
        g = Graph(12, frozenset(edges))
        part = Bipartition.from_side_a(g, {2, 3, 5, 6, 7, 8, 10, 11, 12})
        start = time.perf_counter()
        settings = derive_both_settings(g, 30, part)
        assert time.perf_counter() - start < 0.5  # about 10 ms
        got = [(nonzero(s.a_vertices, s.fa_coeffs), nonzero(s.b_vertices, s.fb_coeffs)) for s in settings]
        assert got == [({3: 1, 6: 29}, {1: 29}), ({3: 1, 7: 1}, {1: 1, 9: 1})]


# Forms of the exhaustive search, which needs 0.1-0.6 s per cut on these sizes:
# (graph, d, A side, ((A form, B form) for m=1, for m=2)) with zero entries left out.
PINNED_LARGE = [
    (make_chain(28), 2, {11}, (({11: 1}, {9: 1, 10: 1}), ({11: 1}, {10: 1, 12: 1}))),
    (make_chain(28), 2, set(range(1, 14)), (({13: 1}, {14: 1, 15: 1}), ({12: 1, 13: 1}, {14: 1}))),
    (make_chain(18), 3, {8}, (({8: 2}, {7: 2, 9: 2}), ({8: 1}, {6: 2, 7: 1}))),
    (make_chain(18), 3, set(range(1, 10)), (({9: 1}, {10: 1, 11: 2}), ({8: 1, 9: 2}, {10: 2}))),
    (make_grid(4, 6), 2, {9}, (({9: 1}, {1: 1, 2: 1, 10: 1, 15: 1}), ({9: 1}, {1: 1, 8: 1, 14: 1}))),
    (make_grid(4, 6), 2, set(range(1, 7)), (({5: 1, 6: 1}, {12: 1}), ({1: 1, 2: 1}, {7: 1}))),
]


class TestPinnedLargeCases:
    @pytest.mark.parametrize("g, d, side_a, expected", PINNED_LARGE)
    def test_forms(self, g, d, side_a, expected):
        part = Bipartition.from_side_a(g, side_a)
        settings = derive_both_settings(g, d, part)
        got = tuple(
            (nonzero(s.a_vertices, s.fa_coeffs), nonzero(s.b_vertices, s.fb_coeffs))
            for s in settings
        )
        assert got == expected



def relabelled(g, seed):
    perm = list(range(1, g.n_vertices + 1))
    random.Random(seed).shuffle(perm)
    return Graph(g.n_vertices, frozenset((perm[i - 1], perm[j - 1]) for i, j in g.edges))


def pinned_cuts():
    """Relabelled star, chain and grid at d=2..6: every single-vertex cut, every prefix cut, three random cuts."""
    rng = random.Random(13)
    for seed, base in enumerate((make_star(7), make_chain(9), make_grid(3, 3))):
        g = relabelled(base, seed)
        n = g.n_vertices
        cuts = [{v} for v in range(1, n + 1)] + [set(range(1, k + 1)) for k in range(2, n)]
        cuts += [set(rng.sample(range(1, n + 1), rng.randint(2, n - 2))) for _ in range(3)]
        for d in range(2, 7):
            for side_a in cuts:
                yield g, d, side_a


def form_data(settings):
    return tuple((s.m, s.a_vertices, s.b_vertices, s.fa_coeffs, s.fb_coeffs) for s in settings)


# sha256 over the forms of all 265 pinned cuts, in order.
PINNED_FORMS_DIGEST = "43dd1b093c3e6f729139b1d5496aa088ec5116378023e1f465b2cc07317a96a4"


class TestPinnedForms:
    def test_digest(self):
        h = hashlib.sha256()
        for g, d, side_a in pinned_cuts():
            for form in form_data(derive_both_settings(g, d, Bipartition.from_side_a(g, side_a))):
                h.update(repr(form).encode())
        assert h.hexdigest() == PINNED_FORMS_DIGEST

    @hyp_settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_shared_adjacency_matches_fresh_graphs(self, data):
        # two cuts derived on one Graph, its adjacency built first, give the forms of fresh copies
        d = data.draw(st.sampled_from(sorted(EXHAUSTIVE_MAX_N)), label="d")
        g = draw_bipartite_graph(data, EXHAUSTIVE_MAX_N[d])
        g.adjacency
        for part in (draw_cut(data, g), draw_cut(data, g)):
            got, expected = [], []
            for graph, out in ((g, got), (Graph(g.n_vertices, g.edges), expected)):
                try:
                    out.append(form_data(derive_both_settings(graph, d, part)))
                except NoCorrelationForm as exc:
                    out.append(str(exc))
            assert got == expected


def dense_case(seed):
    """Positions 1..7 each read vertex 8..n with probability 0.6; A is a random half."""
    rng = random.Random(seed)
    n = rng.randint(20, 24)
    edges = set()
    for b in range(8, n + 1):
        readers = [a for a in range(1, 8) if rng.random() < 0.6] or [rng.randint(1, 7)]
        edges |= {(a, b) for a in readers}
    return Graph(n, frozenset(edges)), set(rng.sample(range(1, n + 1), n // 2))


def complete_bipartite(a, b):
    """K_{a,b}: vertices 1..a joined to a+1..a+b."""
    return Graph(a + b, frozenset((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)))


# Cuts whose exact search runs for minutes (2-CPU VM): dense_case(5) and (10) over
# 30 s at d=30, dense_case(0) 12.9 s, K_{4,50} 20.6 s, K_{4,100} 273 s for m=1
# alone, K_{24,24} over 100 s.  The budget stops each in 0.05-0.5 s.
BUDGET_CASES = [
    pytest.param(*dense_case(5), 30, id="dense5-d30"),
    pytest.param(*dense_case(10), 30, id="dense10-d30"),
    pytest.param(*dense_case(0), 30, id="dense0-d30"),
    pytest.param(complete_bipartite(4, 50), {1}, 3, id="K4,50-d3"),
    pytest.param(complete_bipartite(4, 100), {1}, 3, id="K4,100-d3"),
    pytest.param(complete_bipartite(24, 24), {1}, 2, id="K24,24-d2"),
]


@pytest.fixture
def budget_stops(monkeypatch):
    """Records each search the budget stops."""
    stops = []

    class Recorded(schmidt._OutOfBudget):
        def __init__(self, *args):
            stops.append(self)
            super().__init__(*args)

    monkeypatch.setattr(schmidt, "_OutOfBudget", Recorded)
    return stops


class TestSearchBudget:
    @pytest.mark.parametrize("g, side_a, d", BUDGET_CASES)
    def test_informative_forms_in_bounded_time(self, budget_stops, g, side_a, d):
        part = Bipartition.from_side_a(g, side_a)
        start = time.perf_counter()
        settings = derive_both_settings(g, d, part)
        assert time.perf_counter() - start < 5.0
        assert budget_stops
        tables = stabilizer_table(g, d, [(s, s) for s in settings], part)
        np.testing.assert_allclose(tables, np.broadcast_to(np.eye(d) / d, tables.shape), atol=1e-12)
        assert abs(mutual_information(tables).sum() - 2 * np.log2(d)) < 1e-9
        assert form_data(derive_both_settings(g, d, part)) == form_data(settings)  # a count, not a timer

    def test_certify_dense_graph(self, tmp_path):
        # the 16 * 30^n-byte register limit refused this file before
        g, side_a = dense_case(5)
        path = tmp_path / "dense5.json"
        path.write_text(json.dumps({"n": g.n_vertices, "d": 30, "edges": [list(e) for e in sorted(g.edges)]}))
        res = CliRunner().invoke(main, ["certify", str(path), "--partition", ",".join(map(str, sorted(side_a)))])
        assert res.exit_code == 0, res.output
        assert abs(json.loads(res.output)["i_total"] - 2 * np.log2(30)) < 1e-9


# sha256 over form_data of both settings, computed before the search had a budget:
# cuts whose search is linear in the cut, which the budget must not stop (0.3-0.9 s
# each).  The graphs are built in the test, so the session does not hold them.
LINEAR_CUT_DIGESTS = [
    pytest.param(make_star, (10 ** 5,), {1}, 3,
                 "7893108325b53bd0b341c022c39ec6017d471286b1840680d35e232a3cc968c5", id="star1e5-center-d3"),
    pytest.param(make_chain, (10 ** 5,), set(range(1, 50001)), 3,
                 "9b3a988ad3e66ef8219d5511dea0d3f2a5ffd335bf9fe0fcfd8a2df1ee7cf1e8", id="chain1e5-halves-d3"),
    pytest.param(make_grid, (300, 300), set(range(1, 45001)), 2,
                 "1b383551fd820ec949c7cf2e8e51ebd824226e87795007d868ed012ec6705e96", id="grid300-halves-d2"),
    pytest.param(make_grid, (300, 300), set(range(1, 45001)), 6,
                 "72f1456ff747a035ae1e3f9d95531e8924cfc90527a87b05844b53ee68d5ce7e", id="grid300-halves-d6"),
]


@pytest.mark.parametrize("make, size, side_a, d, digest", LINEAR_CUT_DIGESTS)
def test_budget_keeps_linear_forms(budget_stops, make, size, side_a, d, digest):
    g = make(*size)
    h = hashlib.sha256()
    for form in form_data(derive_both_settings(g, d, Bipartition.from_side_a(g, side_a))):
        h.update(repr(form).encode())
    assert h.hexdigest() == digest
    assert not budget_stops
