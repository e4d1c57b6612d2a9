"""Cloning-attack model in the effective d-level Schmidt space.

The attack is described on four abstract d-level registers (A, B and the
clone pair C, C') via a d x d probability table over generalized Bell states.
``qss`` reads only the formula-level quantities: the marginals q_m of the
table and the Bell-diagonal joint tables of ``pair_tables``, which at
disturbance 0 are the graph state's own tables and the oracle of the
information ``steering`` reads in closed form.  The A-C pair is
Bell-diagonal too, with the weights of ``clone_gamma``, so ``nosharing``
and ``verify`` read the clone's information by the same closed form as
B's.  The explicit d**4 state is their oracle, which the tests and
acceptance criteria measure directly.

Index convention: the clone-pair Bell index is taken as (d-k) mod d, which
makes the formula-level marginals agree with direct measurement of the
explicit state; see the tests for that cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphstate import fourier_op
from .infotheory import CqEnsemble, shannon_entropy
from .registers import DensityOperator, PureState, QuditRegister


@dataclass(frozen=True, eq=False)
class GammaDistribution:
    """d x d probability table over the Bell-state indices (j, k)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("gamma must be a square table")
        if not (g >= 0).all():  # written so that a NaN fails
            raise ValueError("gamma has a negative or NaN entry")
        if not abs(g.sum() - 1.0) <= 1e-12:
            raise ValueError(f"gamma sums to {g.sum()}, expected 1")
        g.setflags(write=False)
        object.__setattr__(self, "gamma", g)

    @property
    def d(self) -> int:
        return self.gamma.shape[0]


def bell_state(j: int, k: int, d: int) -> PureState:
    """Generalized Bell state (1/sqrt d) sum_v omega^{vk} |v>|v+j mod d>."""
    if not (0 <= j < d and 0 <= k < d):
        raise ValueError(f"Bell indices ({j},{k}) out of range for d={d}")
    omega = np.exp(2j * np.pi / d)
    amps = np.zeros(d * d, dtype=complex)
    for v in range(d):
        amps[v * d + (v + j) % d] = omega ** (v * k) / np.sqrt(d)
    return PureState(QuditRegister(2, d), amps)


def _bell_tensor(j: int, k: int, d: int) -> np.ndarray:
    return bell_state(j, k, d).amplitudes.reshape(d, d)


def cloner_output(g: GammaDistribution) -> PureState:
    """Output state sum_{jk} sqrt(gamma_jk) |Bell_jk>_AB |Bell_{j,(d-k) mod d}>_CC'.

    The four d-level registers are ordered (A, B, C, C').
    """
    d = g.d
    register = QuditRegister(4, d)
    tensor = np.zeros((d, d, d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            w = np.sqrt(g.gamma[j, k])
            if w == 0:
                continue
            ab = _bell_tensor(j, k, d)
            cc = _bell_tensor(j, (d - k) % d, d)
            tensor += w * np.einsum("ab,cd->abcd", ab, cc)
    return PureState(register, tensor.reshape(-1))


def q_marginals(g: GammaDistribution, m: int) -> np.ndarray:
    """Distribution of the outcome difference t in Schmidt basis m."""
    if m == 1:
        return g.gamma.sum(axis=1)
    if m == 2:
        col_sums = g.gamma.sum(axis=0)
        t = np.arange(g.d)
        return col_sums[(-t) % g.d]
    raise ValueError("m must be 1 or 2")


def pair_tables(g: GammaDistribution) -> np.ndarray:
    """Noiseless A-B joint tables of the setting pairs (1, 1), (1, 2), (2, 1), (2, 2), as a (4, d, d) stack.

    The cloner leaves the A-B state Bell-diagonal with weights gamma (Cerf,
    J. Mod. Opt. 47, 187 (2000)): matched settings m give
    P(a, b) = q_m[(b - a) mod d] / d, q_m the marginal of gamma, and
    mismatched ones 1/d^2, in O(d^2).

    No attack is D = 0, where these are exactly the graph state's tables on
    every cut that ``steering.derive_both_settings`` accepts.  Each setting's
    forms come from one stabilizer generator X_a Z_N(a), whose cross-cut
    vector is 1 at each of a's neighbours across the cut, so an A-side power
    of it is a stabilizer only at exponent 0 mod d (Hein, Eisert & Briegel,
    PRA 69, 062311 (2004)): the A-side value is uniform and the two sides'
    values coincide, so a matched table is eye/d.  Setting 1's generator has
    its X on one colour class and setting 2's on the other, and each reaches
    across the cut, so their A-part and B-part combine into a stabilizer
    only when both exponents are 0 mod d: a mismatched table is 1/d^2.
    ``schmidt.stabilizer_table`` derives the same tables from the graph by
    a DFT of the characteristic function; ``verify`` and the tests compare
    the two.  ``qss`` samples from these tables, which are the oracle of the
    closed-form information the other commands read.
    """
    d = g.d
    outcomes = np.arange(d)
    shift = (outcomes - outcomes[:, None]) % d  # b - a at [a, b]
    stack = np.full((4, d, d), 1.0 / (d * d))
    stack[0] = q_marginals(g, 1)[shift] / d
    stack[3] = q_marginals(g, 2)[shift] / d
    return stack


def mutual_info_ab(g: GammaDistribution, m: int) -> float:
    """Closed form log2(d) + sum_t q_m^t log2 q_m^t for the A-B reduced state."""
    q = q_marginals(g, m)
    return float(np.log2(g.d) - shannon_entropy(q))


def clone_gamma(g: GammaDistribution) -> GammaDistribution:
    """Bell weights |b|^2 of the A-C pair, b[x, y] = (1/d) sum_jk omega^(xk - yj) sqrt(gamma_jk).

    The cloner's state is Bell-diagonal on A-C too (Cerf, J. Mod. Opt. 47,
    187 (2000)), with b a two-dimensional DFT of sqrt(gamma), in O(d^2 log d).
    Setting m of A and C then reads ``mutual_info_ab(clone_gamma(g), m)``.
    """
    b = np.fft.fft(np.fft.ifft(np.sqrt(g.gamma), axis=1), axis=0).T
    return GammaDistribution(b.real ** 2 + b.imag ** 2)


def shared_information(g: GammaDistribution):
    """(I_AB, I_AC): the two-setting information A shares with B, and with the clone C.

    The paper's no-sharing claim is that they never both exceed log2(d).
    """
    return tuple(mutual_info_ab(x, 1) + mutual_info_ab(x, 2) for x in (g, clone_gamma(g)))


def _in_bases(output: PureState, ma: int, mb: int) -> np.ndarray:
    """Amplitude tensor (A, B, C, C') with A in Schmidt basis ma and B in basis mb.

    Basis 1 is the computational basis on both sides; basis 2 is the Fourier
    basis on A and its conjugate on B, so that matched outcomes coincide on
    the no-attack state for any d.
    """
    if ma not in (1, 2) or mb not in (1, 2):
        raise ValueError("m must be 1 or 2")
    d = output.register.local_dim
    tensor = output.amplitudes.reshape(d, d, d, d)
    f = fourier_op(d)
    if ma == 2:
        tensor = np.einsum("va,vbcd->abcd", f.conj(), tensor)
    if mb == 2:
        tensor = np.einsum("vb,avcd->abcd", f, tensor)
    return tensor


def measured_joint(output: PureState, ma: int, mb: int) -> np.ndarray:
    """Joint outcome table of register A measured in Schmidt basis ma and B in mb."""
    tensor = _in_bases(output, ma, mb)
    return np.einsum("abcd,abcd->ab", tensor, tensor.conj()).real


def conditional_ensemble(g: GammaDistribution, m: int) -> CqEnsemble:
    """Clone-pair states conditioned on A's Schmidt-basis-m outcome, with priors."""
    d = g.d
    tensor = _in_bases(cloner_output(g), m, 1)
    priors = np.einsum("abcd,abcd->a", tensor, tensor.conj()).real
    reg = QuditRegister(2, d)
    conditionals = []
    for a in range(d):
        sub = tensor[a]  # axes (B, C, C')
        mat = np.einsum("bce,bfg->cefg", sub, sub.conj()).reshape(d * d, d * d)
        conditionals.append(DensityOperator(reg, mat / priors[a]))
    return CqEnsemble(priors=priors, conditionals=tuple(conditionals))


def no_sharing_sum(g: GammaDistribution):
    """Totals entering the no-sharing inequality.

    Returns (sum_ab, sum_ac_bound, total): the two-setting A-B information,
    the Holevo-chain bound on the A-C information, and their sum, which can
    never exceed 2 log2(d).
    """
    sum_ab = mutual_info_ab(g, 1) + mutual_info_ab(g, 2)
    sum_ac_bound = shannon_entropy(q_marginals(g, 1)) + shannon_entropy(q_marginals(g, 2))
    return float(sum_ab), float(sum_ac_bound), float(sum_ab + sum_ac_bound)


def phase_covariant_gamma(D: float, d: int) -> GammaDistribution:
    """Product-form attack copying both complementary bases equally well.

    The single-index distribution puts 1-D on the undisturbed outcome and
    spreads D uniformly over the d-1 others; its entropy is the disturbance
    entropy for both marginals.
    """
    if not 0.0 <= D <= 1.0:
        raise ValueError(f"disturbance must be in [0, 1], got {D}")
    r = np.full(d, D / (d - 1))
    r[0] = 1.0 - D
    return GammaDistribution(np.outer(r, r))


def dirichlet_gamma(d: int, rng: np.random.Generator) -> GammaDistribution:
    """Symmetric Dirichlet sample (concentration 1) over the d*d simplex."""
    return GammaDistribution(rng.dirichlet(np.ones(d * d)).reshape(d, d))


def no_sharing_scan(d: int, samples: int, rng: np.random.Generator):
    """(largest I_AB + I_AC, count of attacks with min(I_AB, I_AC) > log2 d) over ``samples`` Dirichlet attacks."""
    log_d = float(np.log2(d))
    max_total, violations = 0.0, 0
    for _ in range(samples):
        i_ab, i_ac = shared_information(dirichlet_gamma(d, rng))
        max_total = max(max_total, i_ab + i_ac)
        violations += min(i_ab, i_ac) > log_d
    return max_total, violations
