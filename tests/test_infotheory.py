import numpy as np
import pytest

from graphsteering import (
    CqEnsemble,
    DensityOperator,
    PureState,
    QuditRegister,
    holevo,
    mutual_information,
    shannon_entropy,
    uncertainty_floor,
    von_neumann_entropy,
)
from graphsteering.cloner import phase_covariant_gamma
from graphsteering.registers import haar_vector
from graphsteering.schmidt import Povm
from graphsteering.steering import disturbance_entropy
from oracle import table_mutual_information


def projective_povm(basis):
    dim = basis.shape[0]
    effects = [np.outer(basis[:, t], basis[:, t].conj()) for t in range(dim)]
    return Povm(tuple(effects))


class TestShannonEntropy:
    def test_uniform(self):
        for d in (2, 3, 8):
            assert abs(shannon_entropy(np.full(d, 1 / d)) - np.log2(d)) < 1e-12

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_binary_value(self):
        # H(0.89, 0.11) is just below half a bit
        assert abs(shannon_entropy([0.89, 0.11]) - 0.49998) < 1e-4

    def test_matrix_input_flattened(self):
        table = np.full((2, 2), 0.25)
        assert abs(shannon_entropy(table) - 2.0) < 1e-12

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.2, -0.2])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [np.nan], [0.5, 0.5, np.nan]])
    def test_nan_rejected(self, p):
        with pytest.raises(ValueError, match="NaN"):
            shannon_entropy(p)


class TestMutualInformation:
    def test_perfectly_correlated(self):
        for d in (2, 3):
            joint = np.eye(d) / d
            assert abs(mutual_information(joint) - np.log2(d)) < 1e-12

    def test_independent(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        assert abs(mutual_information(joint)) < 1e-12

    def test_noisy_correlated_value(self):
        # identity correlations diluted with 22% uniform noise, d=2
        p = 0.22
        joint = (1 - p) * np.eye(2) / 2 + p / 4
        assert abs(mutual_information(joint) - 0.5) < 5e-4

    def test_nonnegative_random_tables(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            raw = rng.random((3, 4))
            joint = raw / raw.sum()
            assert mutual_information(joint) > -1e-12

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            mutual_information(np.full(4, 0.25))

    def test_invalid_table_rejected(self):
        # the table is checked once, before its marginals are taken
        for joint in ([[0.6, -0.1], [0.25, 0.25]], [[0.5, 0.1], [0.1, 0.5]]):
            with pytest.raises(ValueError):
                mutual_information(np.array(joint))

    def test_round_off_negatives_clipped(self):
        joint = np.array([[0.5, -1e-17], [1e-17, 0.5]])
        assert abs(mutual_information(joint) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_stack_equals_tables_one_at_a_time(self, d):
        # tables with zeros in varied places (identity, noisy, sparse) next to positive ones
        rng = np.random.default_rng(d)
        tables = [np.eye(d) / d, (0.7 * np.eye(d) / d + 0.3 / d ** 2)]
        for _ in range(40):
            raw = rng.random((d, d)) * (rng.random((d, d)) < rng.uniform(0.2, 1.0))
            raw[0, 0] += 0.1
            tables.append(raw / raw.sum())
        for table in tables:
            assert mutual_information(table) == table_mutual_information(table)

    def test_stack_refused(self):
        with pytest.raises(ValueError, match="2-D"):
            mutual_information(np.stack([np.eye(2) / 2] * 2))

    @pytest.mark.parametrize("joint", [
        [[np.nan, 0.5], [0.25, 0.25]],
        [[0.5, 0.0], [0.0, np.nan]],
        [[np.nan, np.nan], [np.nan, np.nan]],
        [[np.inf, 0.5], [0.25, 0.25]],
    ])
    def test_nan_or_infinite_table_refused(self, joint):
        with pytest.raises(ValueError):
            mutual_information(joint)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rng = np.random.default_rng(31)
        rho = PureState(QuditRegister(2, 3), haar_vector(9, rng)).density()
        assert abs(von_neumann_entropy(rho)) < 1e-9

    def test_maximally_mixed(self):
        for d in (2, 3):
            reg = QuditRegister(1, d)
            rho = DensityOperator(reg, np.eye(d) / d)
            assert abs(von_neumann_entropy(rho) - np.log2(d)) < 1e-12

    def test_diagonal_matches_shannon(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            raw = rng.random(4)
            p = raw / raw.sum()
            reg = QuditRegister(2, 2)
            rho = DensityOperator(reg, np.diag(p))
            assert abs(von_neumann_entropy(rho) - shannon_entropy(p)) < 1e-10

    def test_product_gamma_entropy_splits(self):
        # H(gamma) = H(q1) + H(q2) when gamma is a product of its marginals
        from graphsteering.cloner import q_marginals

        for d in (2, 3):
            gamma = phase_covariant_gamma(0.1, d)
            q1 = q_marginals(gamma, 1)
            q2 = q_marginals(gamma, 2)
            h_joint = shannon_entropy(gamma.gamma)
            assert abs(h_joint - shannon_entropy(q1) - shannon_entropy(q2)) < 1e-12

    def test_basis_invariance(self):
        rng = np.random.default_rng(41)
        reg = QuditRegister(1, 3)
        raw = rng.random(3)
        p = raw / raw.sum()
        from graphsteering import fourier_op

        f = fourier_op(3)
        rho_a = DensityOperator(reg, np.diag(p))
        rho_b = DensityOperator(reg, f @ np.diag(p) @ f.conj().T)
        assert abs(von_neumann_entropy(rho_a) - von_neumann_entropy(rho_b)) < 1e-10


class TestHolevo:
    def states(self, d):
        reg = QuditRegister(1, d)
        basis = np.eye(d, dtype=complex)
        return [
            DensityOperator(reg, np.outer(basis[:, v], basis[:, v].conj()))
            for v in range(d)
        ]

    def test_orthogonal_pure_states(self):
        for d in (2, 3):
            ens = CqEnsemble(np.full(d, 1 / d), tuple(self.states(d)))
            assert abs(holevo(ens) - np.log2(d)) < 1e-10

    def test_identical_states_zero(self):
        rng = np.random.default_rng(7)
        rho = PureState(QuditRegister(1, 3), haar_vector(3, rng)).density()
        ens = CqEnsemble(np.array([0.4, 0.6]), (rho, rho))
        assert abs(holevo(ens)) < 1e-10

    def test_bounded_by_prior_entropy(self):
        rng = np.random.default_rng(23)
        reg = QuditRegister(1, 2)
        for _ in range(30):
            raw = rng.random(3)
            priors = raw / raw.sum()
            conds = tuple(PureState(reg, haar_vector(2, rng)).density() for _ in range(3))
            chi = holevo(CqEnsemble(priors, conds))
            assert -1e-10 < chi < shannon_entropy(priors) + 1e-10

    def test_phase_covariant_attack_leaks_exactly_hd(self):
        # the eavesdropper's accessible information bound collapses to H(D)
        from graphsteering.cloner import conditional_ensemble

        for d in (2, 3):
            for disturbance in (0.05, 0.1):
                gamma = phase_covariant_gamma(disturbance, d)
                for m in (1, 2):
                    chi = holevo(conditional_ensemble(gamma, m))
                    assert abs(chi - disturbance_entropy(disturbance, d)) < 1e-9

    def test_mismatched_lengths(self):
        rho = self.states(2)[0]
        with pytest.raises(ValueError):
            CqEnsemble(np.array([1.0]), (rho, rho))


class TestUncertaintyFloor:
    def test_mutually_unbiased_pair(self):
        from graphsteering import fourier_op

        rng = np.random.default_rng(55)
        for d in (2, 3):
            comp = projective_povm(np.eye(d, dtype=complex))
            four = projective_povm(fourier_op(d))
            floor = uncertainty_floor(comp, four, 200, rng)
            assert abs(floor - np.log2(d)) < 1e-9

    def test_identical_povms_floor_zero(self):
        rng = np.random.default_rng(56)
        comp = projective_povm(np.eye(3, dtype=complex))
        assert abs(uncertainty_floor(comp, comp, 100, rng)) < 1e-9

    def test_dimension_mismatch(self):
        comp2 = projective_povm(np.eye(2, dtype=complex))
        comp3 = projective_povm(np.eye(3, dtype=complex))
        with pytest.raises(ValueError):
            uncertainty_floor(comp2, comp3, 10, np.random.default_rng(0))

    def test_monotone_in_samples(self):
        from graphsteering import fourier_op

        comp = projective_povm(np.eye(2, dtype=complex))
        four = projective_povm(fourier_op(2))
        lo = uncertainty_floor(comp, four, 10, np.random.default_rng(3))
        hi = uncertainty_floor(comp, four, 500, np.random.default_rng(3))
        assert hi <= lo + 1e-12
