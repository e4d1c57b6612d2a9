import itertools

import numpy as np
import pytest

from graphsteering import (
    DensityOperator,
    Graph,
    PureState,
    QuditRegister,
    RegisterTooLarge,
    build_graph_state,
    fourier_op,
)
from graphsteering.registers import haar_vector, permute_qudits
from oracle import partial_trace


def basis_state(reg, index):
    amps = np.zeros(reg.total_dim, dtype=complex)
    amps[index] = 1.0
    return PureState(reg, amps)


class TestIndexConvention:
    def test_round_trip_exhaustive(self):
        for d in (2, 3):
            for n in (1, 2, 3, 4):
                reg = QuditRegister(n, d)
                tables = [reg.digit_table(k) for k in range(1, n + 1)]
                for digits in itertools.product(range(d), repeat=n):
                    index = sum(v * d ** (n - k) for k, v in enumerate(digits, start=1))
                    assert tuple(int(t[index]) for t in tables) == digits

    def test_qudit_one_most_significant(self):
        reg = QuditRegister(3, 2)
        assert [int(reg.digit_table(k)[4]) for k in (1, 2, 3)] == [1, 0, 0]
        assert [int(reg.digit_table(k)[1]) for k in (1, 2, 3)] == [0, 0, 1]

    def test_digit_table(self):
        reg = QuditRegister(2, 3)
        np.testing.assert_array_equal(reg.digit_table(1), np.repeat(np.arange(3), 3))
        np.testing.assert_array_equal(reg.digit_table(2), np.tile(np.arange(3), 3))


class TestTensorProduct:
    def test_fourier_zero_with_one(self):
        # hand expansion: (|0>+|1>)/sqrt2 (x) |1> has weight on indices 1 and 3
        reg = QuditRegister(1, 2)
        plus = fourier_op(2) @ basis_state(reg, 0).amplitudes
        out = np.kron(plus, basis_state(reg, 1).amplitudes)
        expected = np.array([0, 1, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestPartialTrace:
    def test_maximally_entangled_pair(self):
        reg = QuditRegister(2, 2)
        bell = PureState(reg, np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = partial_trace(bell.density(), {1})
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        a = PureState(QuditRegister(1, 3), haar_vector(3, rng))
        b = PureState(QuditRegister(2, 3), haar_vector(9, rng))
        joint = PureState(QuditRegister(3, 3), np.kron(a.amplitudes, b.amplitudes)).density()
        reduced = partial_trace(joint, {1})
        np.testing.assert_allclose(reduced.matrix, a.density().matrix, atol=1e-12)

    def test_composition_matches_single_step(self):
        rng = np.random.default_rng(9)
        rho = PureState(QuditRegister(4, 2), haar_vector(16, rng)).density()
        step = partial_trace(partial_trace(rho, {1, 3, 4}), {1, 2})
        direct = partial_trace(rho, {1, 3})
        assert np.max(np.abs(step.matrix - direct.matrix)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        rho = PureState(QuditRegister(3, 3), haar_vector(27, rng)).density()
        reduced = partial_trace(rho, {2})
        assert abs(np.trace(reduced.matrix).real - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        rho = basis_state(QuditRegister(2, 2), 0).density()
        with pytest.raises(ValueError):
            partial_trace(rho, set())
        with pytest.raises(ValueError):
            partial_trace(rho, {0, 1})


class TestApply:
    """Single-qudit operators act on amplitude vectors as matrix-vector products."""

    def test_fourier_on_zero_is_uniform(self):
        for d in (2, 3, 5):
            reg = QuditRegister(1, d)
            out = fourier_op(d) @ basis_state(reg, 0).amplitudes
            np.testing.assert_allclose(out, np.full(d, d ** -0.5), atol=1e-12)


class TestRandomState:
    def test_normalized(self):
        v = haar_vector(8, np.random.default_rng(1))
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12

    def test_deterministic_given_seed(self):
        a = haar_vector(9, np.random.default_rng(42))
        b = haar_vector(9, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_distinct_states(self):
        a = haar_vector(9, np.random.default_rng(1))
        b = haar_vector(9, np.random.default_rng(2))
        assert abs(np.vdot(a, b)) ** 2 < 1.0 - 1e-6

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            haar_vector(0, np.random.default_rng(0))


class TestValidation:
    def test_density_operator_requires_hermitian(self):
        reg = QuditRegister(1, 2)
        with pytest.raises(ValueError):
            DensityOperator(reg, np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            PureState(QuditRegister(1, 2), np.array([1.0, 1.0]))

    def test_norm_round_off_of_a_large_register_accepted(self):
        # |psi|^2 sums 6^8 squares and lands 1.1e-12 from 1, past a fixed 1e-12
        psi = build_graph_state(Graph(8, frozenset({(1, 8)})), 6)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) > 1e-12
        with pytest.raises(ValueError, match="not normalized"):
            PureState(psi.register, psi.amplitudes * (1 + 1e-9))


class TestSizeGuard:
    def test_long_register_refused_without_forming_d_power_n(self):
        # 3**(10**9) alone would take minutes to compute
        with pytest.raises(RegisterTooLarge, match="1000000000 qudits"):
            QuditRegister(10 ** 9, 3)

    def test_wide_register_refused(self):
        # 16 * 64**4 == 2**28 is the largest accepted vector at N=4
        assert QuditRegister(4, 64).total_dim == 64 ** 4
        with pytest.raises(RegisterTooLarge):
            QuditRegister(4, 65)


class TestPermuteQudits:
    def test_swap_round_trip(self):
        rng = np.random.default_rng(17)
        psi = PureState(QuditRegister(3, 2), haar_vector(8, rng))
        swapped = permute_qudits(psi, (2, 1, 3))
        back = permute_qudits(swapped, (2, 1, 3))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes)

    def test_density_consistent_with_state(self):
        rng = np.random.default_rng(19)
        psi = PureState(QuditRegister(3, 2), haar_vector(8, rng))
        via_state = permute_qudits(psi, (3, 1, 2)).density()
        via_density = permute_qudits(psi.density(), (3, 1, 2))
        np.testing.assert_allclose(via_state.matrix, via_density.matrix, atol=1e-12)
