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
    two_color,
)
from graphsteering import registers
from graphsteering.graphstate import edge_phase_mask


def apply_generator(amps, g, d, a):
    """X_a Z_{N(a)} on an amplitude vector: shift qudit a, clock phase on each neighbour."""
    tensor = amps.reshape([d] * g.n_vertices)
    digits = np.indices(tensor.shape)
    neighbours = [j if i == a else i for i, j in g.edges if a in (i, j)]
    phase = sum(digits[b - 1] for b in neighbours) % d
    return np.roll(np.exp(2j * np.pi * phase / d) * tensor, 1, axis=a - 1).reshape(-1)


class TestElementaryOperators:
    def test_fourier_on_zero(self):
        out = fourier_op(2)[:, 0]
        np.testing.assert_allclose(out, np.array([1, 1]) / np.sqrt(2), atol=1e-12)

    def test_fourier_duality_convention(self):
        # F Z F^dag equals the inverse shift: fixes the sign convention used
        # when translating Fourier-basis outcomes into correlation forms.
        for d in (2, 3, 5):
            f = fourier_op(d)
            clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            shift = np.roll(np.eye(d), 1, axis=0)
            np.testing.assert_allclose(f @ clock @ f.conj().T, shift.T, atol=1e-10)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            fourier_op(1)


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
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)

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
            two_color(g)

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
    """The built state is fixed by X_a Z_{N(a)} for every vertex a and every d."""

    def test_star3_vertex2_word(self):
        g = make_star(3)
        psi = build_graph_state(g, 2)
        fixed = apply_generator(psi.amplitudes, g, 2, 2)
        assert np.max(np.abs(fixed - psi.amplitudes)) < 1e-10

    def test_chain4_d3_all_fix_state(self):
        g = make_chain(4)
        psi = build_graph_state(g, 3)
        for a in range(1, g.n_vertices + 1):
            fixed = apply_generator(psi.amplitudes, g, 3, a)
            assert np.max(np.abs(fixed - psi.amplitudes)) < 1e-10

    def test_random_products_fix_state(self):
        rng = np.random.default_rng(77)
        for g, d in ((make_star(4), 2), (make_chain(4), 3)):
            psi = build_graph_state(g, d)
            for _ in range(50):
                amps = psi.amplitudes
                exponents = rng.integers(0, d, size=g.n_vertices)
                for a, e in enumerate(exponents, start=1):
                    for _ in range(int(e)):
                        amps = apply_generator(amps, g, d, a)
                assert np.max(np.abs(amps - psi.amplitudes)) < 1e-10
