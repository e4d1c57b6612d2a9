"""Dense complex linear algebra for registers of N qudits of local dimension d.

Index convention is big-endian: qudit 1 is the most significant digit, so the
amplitude index of the product basis state |v_1, ..., v_N> is
sum_k v_k * d**(N-k).  Every other module adopts this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ATOL_ALGEBRA = 1e-12
ATOL_EIG = 1e-10

# Largest amplitude vector a register may describe: 16 bytes per amplitude.
MAX_STATE_BYTES = 2 ** 28


class RegisterTooLarge(ValueError):
    """The 16 d^N-byte amplitude vector of the requested register exceeds MAX_STATE_BYTES."""


@dataclass(frozen=True)
class QuditRegister:
    """A register of ``n_qudits`` systems, each of local dimension ``local_dim``."""

    n_qudits: int
    local_dim: int

    def __post_init__(self):
        if self.n_qudits < 1:
            raise ValueError(f"n_qudits must be positive, got {self.n_qudits}")
        if self.local_dim < 2:
            raise ValueError(f"local_dim must be >= 2, got {self.local_dim}")
        # 16 d^N >= 2^(N+4) for d >= 2, so a long register is refused before d**N is formed.
        n, d = self.n_qudits, self.local_dim
        if n >= MAX_STATE_BYTES.bit_length() or 16 * d ** n > MAX_STATE_BYTES:
            raise RegisterTooLarge(
                f"state of {n} qudits with d={d} needs 16*{d}^{n} bytes, "
                f"over the {MAX_STATE_BYTES}-byte limit"
            )

    @property
    def total_dim(self) -> int:
        return self.local_dim ** self.n_qudits

    def digit_table(self, qudit: int) -> np.ndarray:
        """Vector of length total_dim holding digit v_qudit of every basis index."""
        if not 1 <= qudit <= self.n_qudits:
            raise ValueError(f"qudit index {qudit} out of range")
        d, n = self.local_dim, self.n_qudits
        idx = np.arange(self.total_dim)
        return (idx // d ** (n - qudit)) % d


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over an N-qudit register."""

    register: QuditRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.register.total_dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.register.total_dim},)"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        # a sum of dim squares may be off by up to about dim * eps in round-off
        if abs(norm_sq - 1.0) > max(ATOL_ALGEBRA, amps.size * np.finfo(float).eps):
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> DensityOperator:
        return DensityOperator(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix over a qudit register."""

    register: QuditRegister
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.register.total_dim
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_ALGEBRA:
            raise ValueError("matrix is not Hermitian within 1e-12")
        tr = float(np.trace(mat).real)
        if abs(tr - 1.0) > ATOL_ALGEBRA:
            raise ValueError(f"trace is {tr}, expected 1")
        if np.min(np.linalg.eigvalsh(mat)) < -ATOL_EIG:
            raise ValueError("matrix has an eigenvalue below -1e-10")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector: normalized complex Gaussian components."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def permute_qudits(obj, order: Sequence[int]):
    """Reorder the tensor factors of a state or density operator.

    ``order`` lists the original 1-indexed qudits in their new positions, e.g.
    order=(2, 1, 3) makes the old qudit 2 the new qudit 1.
    """
    reg = obj.register
    n, d = reg.n_qudits, reg.local_dim
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{n}")
    axes = [q - 1 for q in order]
    if isinstance(obj, PureState):
        amps = obj.amplitudes.reshape([d] * n).transpose(axes).reshape(-1)
        return PureState(reg, amps)
    if isinstance(obj, DensityOperator):
        full = axes + [n + a for a in axes]
        mat = obj.matrix.reshape([d] * (2 * n)).transpose(full).reshape(d ** n, d ** n)
        return DensityOperator(reg, mat)
    raise TypeError("permute_qudits expects a PureState or DensityOperator")
