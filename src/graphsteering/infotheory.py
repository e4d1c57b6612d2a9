"""Classical and quantum entropy calculus, all in bits (base-2 logarithms)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .registers import DensityOperator, haar_vector

if TYPE_CHECKING:  # schmidt imports this module
    from .schmidt import Povm

EIG_CUTOFF = 1e-12  # below accumulated eigensolver noise


def _check_prob_table(p) -> np.ndarray:
    """p as floats with round-off negatives clipped at 0; refuses a NaN, a negative entry or a sum off 1."""
    p = np.asarray(p, dtype=float)
    if not (p >= -1e-12).all():  # written so that a NaN fails
        raise ValueError(f"probability table has an entry {p[~(p >= -1e-12)][0]} that is NaN or below -1e-12")
    total = p.sum()
    if not abs(total - 1.0) <= 1e-10:
        raise ValueError(f"probability table sums to {total}")
    return np.clip(p, 0.0, None)


def _entropy(p: np.ndarray) -> float:
    """-sum p log2 p over the positive entries of a checked, non-negative array, with 0*log0 = 0."""
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def shannon_entropy(p) -> float:
    """-sum p log2 p with the 0*log0 = 0 convention."""
    return _entropy(_check_prob_table(p))


def mutual_information(joint) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) of a 2-D joint table, checked once before its marginals are taken."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("mutual_information expects a 2-D joint table")
    joint = _check_prob_table(joint)
    return _entropy(joint.sum(axis=1)) + _entropy(joint.sum(axis=0)) - _entropy(joint)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum eig log2 eig over eigenvalues above the noise cutoff."""
    eigs = np.linalg.eigvalsh(rho.matrix)
    eigs = eigs[eigs > EIG_CUTOFF]
    return float(-np.sum(eigs * np.log2(eigs)))


@dataclass(frozen=True, eq=False)
class CqEnsemble:
    """Classical-quantum ensemble: priors over an index, one conditional state each."""

    priors: np.ndarray
    conditionals: tuple

    def __post_init__(self):
        priors = _check_prob_table(self.priors).reshape(-1)
        if len(priors) != len(self.conditionals):
            raise ValueError("priors and conditionals have different lengths")
        dims = {c.register.total_dim for c in self.conditionals}
        if len(dims) != 1:
            raise ValueError("conditionals live on different spaces")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "conditionals", tuple(self.conditionals))

    def average_state(self) -> DensityOperator:
        mat = sum(p * c.matrix for p, c in zip(self.priors, self.conditionals))
        return DensityOperator(self.conditionals[0].register, mat)


def holevo(ens: CqEnsemble) -> float:
    """Holevo quantity: S(average) - sum_v P(v) S(conditional_v)."""
    avg = von_neumann_entropy(ens.average_state())
    cond = sum(p * von_neumann_entropy(c) for p, c in zip(ens.priors, ens.conditionals))
    return float(avg - cond)


def uncertainty_floor(
    povm1: Povm, povm2: Povm, n_samples: int, rng: np.random.Generator
) -> float:
    """Minimal observed H1 + H2 over Haar-random pure states.

    A sampling check of the entropic complementarity of the two POVMs, not a
    certified minimization.
    """
    dim = povm1.effects[0].shape[0]
    if povm2.effects[0].shape[0] != dim:
        raise ValueError("POVMs act on different spaces")
    # seed with the computational basis so eigenstate minima are always hit,
    # then add Haar-random samples on top
    samples = np.concatenate(
        [
            np.eye(dim, dtype=complex),
            np.stack([haar_vector(dim, rng) for _ in range(n_samples)]),
        ]
    )
    best = np.inf
    probs = []
    for povm in (povm1, povm2):
        e_arr = np.stack(povm.effects)
        p = np.einsum("si,eij,sj->se", samples.conj(), e_arr, samples).real
        probs.append(np.clip(p, 0.0, None))
    for p1, p2 in zip(*probs):
        total = shannon_entropy(p1 / p1.sum()) + shannon_entropy(p2 / p2.sum())
        if total < best:
            best = total
    return float(best)
