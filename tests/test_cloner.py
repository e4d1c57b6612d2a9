import numpy as np
import pytest

from graphsteering import (
    GammaDistribution,
    bell_state,
    clone_gamma,
    cloner_output,
    conditional_ensemble,
    dirichlet_gamma,
    disturbance_entropy,
    holevo,
    measured_joint,
    mutual_info_ab,
    mutual_information,
    no_sharing_sum,
    phase_covariant_gamma,
    q_marginals,
    shannon_entropy,
    shared_information,
)
from graphsteering.cloner import pair_tables
from graphsteering.steering import _bisect
from oracle import clone_joint, partial_trace


def identity_gamma(d):
    """No-attack table: all weight on the (0,0) Bell state."""
    table = np.zeros((d, d))
    table[0, 0] = 1.0
    return GammaDistribution(table)


class TestBellStates:
    def test_orthonormal_complete(self):
        for d in (2, 3, 5):
            vecs = np.stack(
                [bell_state(j, k, d).amplitudes for j in range(d) for k in range(d)]
            )
            gram = vecs.conj() @ vecs.T
            np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)

    def test_d2_bell_00(self):
        np.testing.assert_allclose(
            bell_state(0, 0, 2).amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2)
        )

    def test_maximally_entangled(self):
        for d in (2, 3):
            rho = bell_state(1, 1, d).density()
            reduced = partial_trace(rho, {1})
            np.testing.assert_allclose(reduced.matrix, np.eye(d) / d, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            bell_state(2, 0, 2)


class TestClonerOutput:
    def test_normalized(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            out = cloner_output(dirichlet_gamma(d, rng))
            amps = out.amplitudes
            assert abs(np.vdot(amps, amps).real - 1.0) < 1e-10

    def test_no_attack_is_product_of_bells(self):
        for d in (2, 3):
            out = cloner_output(identity_gamma(d))
            expected = np.einsum(
                "ab,cd->abcd",
                bell_state(0, 0, d).amplitudes.reshape(d, d),
                bell_state(0, 0, d).amplitudes.reshape(d, d),
            ).reshape(-1)
            np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_ab_reduction_is_bell_mixture(self):
        # tracing out the clone pair leaves sum_jk gamma_jk |Bell_jk><Bell_jk|
        rng = np.random.default_rng(11)
        for d in (2, 3):
            g = dirichlet_gamma(d, rng)
            rho_ab = partial_trace(cloner_output(g).density(), {1, 2})
            expected = sum(
                g.gamma[j, k]
                * np.outer(
                    bell_state(j, k, d).amplitudes,
                    bell_state(j, k, d).amplitudes.conj(),
                )
                for j in range(d)
                for k in range(d)
            )
            np.testing.assert_allclose(rho_ab.matrix, expected, atol=1e-10)


class TestMarginals:
    def test_identity_gamma_deterministic(self):
        for d in (2, 3):
            g = identity_gamma(d)
            for m in (1, 2):
                q = q_marginals(g, m)
                assert q[0] == 1.0
                assert abs(mutual_info_ab(g, m) - np.log2(d)) < 1e-12

    def test_row_and_column_sums(self):
        gamma = GammaDistribution(np.array([[0.1, 0.2], [0.3, 0.4]]))
        np.testing.assert_allclose(q_marginals(gamma, 1), [0.3, 0.7])
        # setting 2 reads the reversed column index: t=0 -> k=0, t=1 -> k=1 for d=2
        np.testing.assert_allclose(q_marginals(gamma, 2), [0.4, 0.6])

    def test_bad_setting(self):
        with pytest.raises(ValueError):
            q_marginals(identity_gamma(2), 3)


class TestFormulaVsMeasurementOracle:
    def test_agreement_on_random_tables(self):
        rng = np.random.default_rng(101)
        for d in (2, 3, 5):
            for _ in range(100):
                g = dirichlet_gamma(d, rng)
                out = cloner_output(g)
                for m in (1, 2):
                    table = measured_joint(out, m, m)
                    formula = mutual_info_ab(g, m)
                    measured = mutual_information(table)
                    assert abs(formula - measured) < 1e-9
                    # outcome difference distribution matches the q marginal
                    q = q_marginals(g, m)
                    diff = np.zeros(d)
                    for a in range(d):
                        for b in range(d):
                            diff[(b - a) % d] += table[a, b]
                    np.testing.assert_allclose(diff, q, atol=1e-9)

    def test_closed_form_all_basis_pairs(self):
        # matched bases m: P(a, b) = q_m[(b - a) mod d] / d; crossed bases: uniform
        rng = np.random.default_rng(202)
        for d in (2, 3, 5):
            a, b = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            for _ in range(20):
                g = dirichlet_gamma(d, rng)
                out = cloner_output(g)
                for ma in (1, 2):
                    for mb in (1, 2):
                        if ma == mb:
                            expected = q_marginals(g, ma)[(b - a) % d] / d
                        else:
                            expected = np.full((d, d), 1 / d ** 2)
                        table = measured_joint(out, ma, mb)
                        np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)

    def test_uniform_a_marginal(self):
        rng = np.random.default_rng(7)
        g = dirichlet_gamma(3, rng)
        out = cloner_output(g)
        for m in (1, 2):
            table = measured_joint(out, m, m)
            np.testing.assert_allclose(table.sum(axis=1), np.full(3, 1 / 3), atol=1e-10)


class TestConditionalEnsemble:
    def test_priors_uniform(self):
        rng = np.random.default_rng(19)
        for d in (2, 3):
            ens = conditional_ensemble(dirichlet_gamma(d, rng), 1)
            np.testing.assert_allclose(ens.priors, np.full(d, 1 / d), atol=1e-10)

    def test_conditionals_valid_states(self):
        rng = np.random.default_rng(23)
        ens = conditional_ensemble(dirichlet_gamma(3, rng), 2)
        for c in ens.conditionals:
            assert abs(np.trace(c.matrix).real - 1.0) < 1e-10

    def test_no_attack_leaks_nothing(self):
        for d in (2, 3):
            for m in (1, 2):
                assert abs(holevo(conditional_ensemble(identity_gamma(d), m))) < 1e-9


class TestNoSharing:
    def test_never_violated_random(self):
        rng = np.random.default_rng(42)
        for d in (2, 3, 5):
            for _ in range(200):
                g = dirichlet_gamma(d, rng)
                sum_ab, sum_ac, total = no_sharing_sum(g)
                assert total <= 2 * np.log2(d) + 1e-9
                assert abs(total - sum_ab - sum_ac) < 1e-12

    def test_saturated_by_product_tables(self):
        for d in (2, 3):
            for D in (0.0, 0.05, 0.2):
                _, _, total = no_sharing_sum(phase_covariant_gamma(D, d))
                assert abs(total - 2 * np.log2(d)) < 1e-12

    def test_extremes(self):
        d = 2
        sum_ab, sum_ac, _ = no_sharing_sum(identity_gamma(d))
        assert abs(sum_ab - 2.0) < 1e-12 and abs(sum_ac) < 1e-12
        uniform = GammaDistribution(np.full((d, d), 1 / d ** 2))
        sum_ab, sum_ac, _ = no_sharing_sum(uniform)
        assert abs(sum_ab) < 1e-12 and abs(sum_ac - 2.0) < 1e-12


class TestCloneInformation:
    """The clone's own information I_AC, against register C of the dense state, where it can fail."""

    def test_matches_dense_register_c(self):
        # per setting: a C read in the other setting's weights moves each I_AC,m, not their sum
        rng = np.random.default_rng(303)
        for d in (2, 3, 5):
            for _ in range(50):
                g = dirichlet_gamma(d, rng)
                out = cloner_output(g)
                clone = clone_gamma(g)
                tables = pair_tables(clone)
                for m, matched in ((1, 0), (2, 3)):
                    table = clone_joint(out, m)
                    np.testing.assert_allclose(table, tables[matched], rtol=0, atol=1e-12)
                    assert abs(mutual_information(table) - mutual_info_ab(clone, m)) < 1e-12

    def test_no_attack_leaves_the_clone_nothing(self):
        for d in (2, 3, 5):
            i_ab, i_ac = shared_information(identity_gamma(d))
            assert abs(i_ab - 2 * np.log2(d)) < 1e-12 and abs(i_ac) < 1e-12

    def test_strictly_below_the_holevo_chain_bound(self):
        # the Holevo-chain bound would make every total exactly 2 log2 d
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            for _ in range(200):
                g = dirichlet_gamma(d, rng)
                i_ab, i_ac = shared_information(g)
                _, sum_ac_bound, _ = no_sharing_sum(g)
                assert i_ac <= sum_ac_bound + 1e-12
                assert i_ab + i_ac < 2 * np.log2(d) - 0.01
                assert min(i_ab, i_ac) < np.log2(d)

    @pytest.mark.parametrize("d, d_c_prime", [(2, 0.1871), (3, 0.2683), (5, 0.3483), (7, 0.3900)])
    def test_pinned_critical_disturbances(self, d, d_c_prime):
        # the clone steers (I_AC > log2 d) above D'_c; B and C carry equal information at D*
        def information(D):
            return shared_information(phase_covariant_gamma(D, d))

        top = (d - 1) / d
        assert abs(_bisect(lambda D: np.log2(d) - information(D)[1], 0.0, top, 1e-12) - d_c_prime) < 5e-5
        d_star = _bisect(lambda D: information(D)[0] - information(D)[1], 0.0, top, 1e-12)
        assert abs(d_star - (1 - 1 / np.sqrt(d)) / 2) < 1e-9
        i_ab, i_ac = information(d_star)
        assert abs(i_ab - i_ac) < 1e-9 and i_ab < np.log2(d)
        if d == 2:
            assert abs(i_ab - 0.798) < 5e-4


class TestPhaseCovariantGamma:
    def test_product_structure(self):
        for d in (2, 3):
            g = phase_covariant_gamma(0.12, d)
            q1 = q_marginals(g, 1)
            q2 = q_marginals(g, 2)
            np.testing.assert_allclose(g.gamma, np.outer(q1, q1), atol=1e-12)
            np.testing.assert_allclose(q1, q2, atol=1e-12)

    def test_marginal_entropy_is_disturbance_entropy(self):
        for d in (2, 3, 5):
            for D in (0.03, 0.1, 0.3):
                g = phase_covariant_gamma(D, d)
                for m in (1, 2):
                    h = shannon_entropy(q_marginals(g, m))
                    assert abs(h - disturbance_entropy(D, d)) < 1e-12

    def test_information_tradeoff_monotone(self):
        # A-B information falls and the leak bound rises as D grows
        grid = np.linspace(0.0, 0.5, 11)
        for d in (2, 3):
            ab = [no_sharing_sum(phase_covariant_gamma(D, d))[0] for D in grid]
            ac = [no_sharing_sum(phase_covariant_gamma(D, d))[1] for D in grid]
            assert all(x >= y - 1e-12 for x, y in zip(ab, ab[1:]))
            assert all(x <= y + 1e-12 for x, y in zip(ac, ac[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase_covariant_gamma(1.2, 2)


class TestGammaValidation:
    def test_negative_entry(self):
        with pytest.raises(ValueError):
            GammaDistribution(np.array([[1.1, -0.1], [0.0, 0.0]]))

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            GammaDistribution(np.full((2, 2), 0.3))

    def test_non_square(self):
        with pytest.raises(ValueError):
            GammaDistribution(np.full((2, 3), 1 / 6))

    @pytest.mark.parametrize("table", [
        [[np.nan, 0.5], [0.25, 0.25]],
        [[np.nan, np.nan], [np.nan, np.nan]],
    ])
    def test_nan_entry(self, table):
        with pytest.raises(ValueError, match="NaN"):
            GammaDistribution(np.array(table))

    def test_dirichlet_deterministic(self):
        a = dirichlet_gamma(3, np.random.default_rng(5)).gamma
        b = dirichlet_gamma(3, np.random.default_rng(5)).gamma
        np.testing.assert_array_equal(a, b)
