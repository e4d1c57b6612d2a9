import itertools

import numpy as np
import pytest

from graphsteering import (
    Graph,
    NotTwoColorable,
    QuditRegister,
    RegisterTooLarge,
    build_graph_state,
    fourier_op,
    make_chain,
    make_star,
    stabilizer_generators,
    x_op,
    z_op,
)
from graphsteering import graphstate, registers
from graphsteering.graphstate import PauliWord, edge_phase_mask
from graphsteering.registers import states_equal_up_to_phase


class TestElementaryOperators:
    def test_fourier_on_zero(self):
        out = fourier_op(2)[:, 0]
        np.testing.assert_allclose(out, np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    def test_clock_d2(self):
        np.testing.assert_allclose(z_op(2), np.diag([1.0, -1.0]), atol=1e-12)

    def test_shift_cycles(self):
        for d in (2, 3, 5):
            x = x_op(d)
            np.testing.assert_allclose(
                np.linalg.matrix_power(x, d), np.eye(d), atol=1e-12
            )

    def test_fourier_duality_convention(self):
        # F Z F^dag equals the inverse shift: fixes the sign convention used
        # when translating Fourier-basis outcomes into correlation forms.
        for d in (2, 3, 5):
            f = fourier_op(d)
            conj = f @ z_op(d) @ f.conj().T
            np.testing.assert_allclose(conj, x_op(d).conj().T, atol=1e-10)

    def test_small_dimension_rejected(self):
        for factory in (fourier_op, z_op, x_op):
            with pytest.raises(ValueError):
                factory(1)


class TestEdgeUnitary:
    """The controlled-phase edge unitary is diag(edge_phase_mask)."""

    def test_d2_controlled_phase(self):
        reg = QuditRegister(2, 2)
        np.testing.assert_allclose(
            np.diag(edge_phase_mask(1, 2, reg)), np.diag([1, 1, 1, -1]), atol=1e-12
        )

    def test_edges_commute(self):
        reg = QuditRegister(3, 3)
        u12 = np.diag(edge_phase_mask(1, 2, reg))
        u13 = np.diag(edge_phase_mask(1, 3, reg))
        np.testing.assert_allclose(u12 @ u13, u13 @ u12, atol=1e-12)

    def test_d2_involution(self):
        reg = QuditRegister(2, 2)
        u = np.diag(edge_phase_mask(1, 2, reg))
        np.testing.assert_allclose(u @ u, np.eye(4), atol=1e-12)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            edge_phase_mask(2, 2, QuditRegister(3, 2))


class TestBuildGraphState:
    def test_single_edge_d2(self):
        psi = build_graph_state(make_chain(2), 2)
        np.testing.assert_allclose(
            psi.amplitudes, np.array([1, 1, 1, -1]) / 2, atol=1e-12
        )

    def test_star3_schmidt_form(self):
        # |G> = (|0,+,+> + |1,-,->)/sqrt(2)
        psi = build_graph_state(make_star(3), 2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        zero = np.array([1, 0])
        one = np.array([0, 1])
        expected = (
            np.kron(zero, np.kron(plus, plus)) + np.kron(one, np.kron(minus, minus))
        ) / np.sqrt(2)
        assert states_equal_up_to_phase(psi.amplitudes, expected, 1e-12)

    def test_normalized_various(self):
        for g, d in ((make_star(4), 3), (make_chain(5), 2), (make_star(2), 5)):
            psi = build_graph_state(g, d)
            assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12

    def test_odd_cycle_built(self):
        # a graph state exists on any graph; only the settings need two colors
        g = Graph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        psi = build_graph_state(g, 2)
        v = np.array(list(itertools.product((0, 1), repeat=3)))
        signs = (-1.0) ** (v[:, 0] * v[:, 1] + v[:, 1] * v[:, 2] + v[:, 2] * v[:, 0])
        np.testing.assert_allclose(psi.amplitudes, signs / np.sqrt(8), atol=1e-12)
        with pytest.raises(NotTwoColorable):
            stabilizer_generators(g, 2)

    def test_oversized_register_refused(self):
        with pytest.raises(RegisterTooLarge, match="64 qudits"):
            build_graph_state(make_star(64), 2)

    def test_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(registers, "MAX_STATE_BYTES", 16 * 2 ** 3)
        assert build_graph_state(make_star(3), 2).register.total_dim == 8
        with pytest.raises(RegisterTooLarge):
            build_graph_state(make_star(4), 2)

    def test_edge_order_irrelevant(self):
        rng = np.random.default_rng(2024)
        for g, d in ((make_chain(4), 3), (make_star(4), 2)):
            ref = build_graph_state(g, d)
            reg = ref.register
            edges = list(g.edges)
            for _ in range(20):
                rng.shuffle(edges)
                amps = np.full(reg.total_dim, reg.total_dim ** -0.5, dtype=complex)
                for i, j in edges:
                    amps = amps * edge_phase_mask(i, j, reg)
                assert np.max(np.abs(amps - ref.amplitudes)) < 1e-12


class TestStabilizers:
    def test_star3_vertex2_word(self):
        words = stabilizer_generators(make_star(3), 2)
        word2 = words[1]
        assert word2.x_exponents == (0, 1, 0)
        assert word2.z_exponents == (1, 0, 0)
        psi = build_graph_state(make_star(3), 2)
        fixed = word2.apply(psi)
        assert np.max(np.abs(fixed.amplitudes - psi.amplitudes)) < 1e-10

    def test_words_need_no_state(self, monkeypatch):
        # X_a Z_{N(a)} for every d: built from the edges alone, even past the register limit
        monkeypatch.setattr(graphstate, "build_graph_state", None)
        words = stabilizer_generators(make_star(64), 5)
        assert words[0].x_exponents == (1,) + (0,) * 63
        assert words[0].z_exponents == (0,) + (1,) * 63
        assert words[5].z_exponents == (1,) + (0,) * 63

    def test_one_generator_per_vertex(self):
        for g in (make_star(5), make_chain(4)):
            assert len(stabilizer_generators(g, 3)) == g.n_vertices

    def test_chain4_d3_all_fix_state(self):
        g = make_chain(4)
        psi = build_graph_state(g, 3)
        for word in stabilizer_generators(g, 3):
            fixed = word.apply(psi)
            assert np.max(np.abs(fixed.amplitudes - psi.amplitudes)) < 1e-10

    def test_random_products_fix_state(self):
        rng = np.random.default_rng(77)
        for g, d in ((make_star(4), 2), (make_chain(4), 3)):
            psi = build_graph_state(g, d)
            words = stabilizer_generators(g, d)
            for _ in range(50):
                state = psi
                exponents = rng.integers(0, d, size=len(words))
                for word, e in zip(words, exponents):
                    for _ in range(int(e)):
                        state = word.apply(state)
                assert np.max(np.abs(state.amplitudes - psi.amplitudes)) < 1e-10

    def test_word_matrix_agrees_with_apply(self):
        rng = np.random.default_rng(5)
        word = PauliWord((1, 0, 2), (0, 2, 1))
        from graphsteering import random_state

        psi = random_state(QuditRegister(3, 3), rng)
        via_apply = word.apply(psi).amplitudes
        matrix = np.ones((1, 1), dtype=complex)
        for x, z in zip(word.x_exponents, word.z_exponents):
            factor = np.linalg.matrix_power(x_op(3), x) @ np.linalg.matrix_power(z_op(3), z)
            matrix = np.kron(matrix, factor)
        via_matrix = matrix @ psi.amplitudes
        np.testing.assert_allclose(via_apply, via_matrix, atol=1e-12)
