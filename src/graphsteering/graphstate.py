"""Construction of qudit graph states and the stabilizers of two-colorable ones.

The state is built from the Fourier-basis initial product state by applying
one controlled-phase unitary per edge.  Edge unitaries are diagonal, so they
are applied as phase masks on the amplitude array rather than materialized
matrices; this keeps 16-qubit registers feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, two_color
from .registers import PureState, QuditRegister

def fourier_op(d: int) -> np.ndarray:
    """Quantum Fourier transform: F|v'> = sum_v omega^{v'v} |v> / sqrt(d)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    omega = np.exp(2j * np.pi / d)
    v = np.arange(d)
    return omega ** np.outer(v, v) / np.sqrt(d)


def z_op(d: int) -> np.ndarray:
    """Clock operator Z = diag(omega^v)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def x_op(d: int) -> np.ndarray:
    """Shift operator X|v> = |v+1 mod d>, the dual of Z under the Fourier transform."""
    if d < 2:
        raise ValueError("d must be >= 2")
    mat = np.zeros((d, d), dtype=complex)
    mat[(np.arange(d) + 1) % d, np.arange(d)] = 1
    return mat


def edge_phase_mask(i: int, j: int, register: QuditRegister) -> np.ndarray:
    """Diagonal of the controlled-phase edge unitary on the full register."""
    if i == j:
        raise ValueError("edge endpoints must differ")
    omega = np.exp(2j * np.pi / register.local_dim)
    vi = register.digit_table(i)
    vj = register.digit_table(j)
    return omega ** (vi * vj)


def build_graph_state(g: Graph, d: int) -> PureState:
    """Graph state: edge unitaries applied to the Fourier product state."""
    register = QuditRegister(g.n_vertices, d)
    amps = np.full(register.total_dim, register.total_dim ** -0.5, dtype=complex)
    for i, j in sorted(g.edges):
        amps = amps * edge_phase_mask(i, j, register)
    return PureState(register, amps)


@dataclass(frozen=True)
class PauliWord:
    """Product of generalized Paulis prod_k X_k^{x_k} Z_k^{z_k}, up to global phase."""

    x_exponents: tuple
    z_exponents: tuple

    def __post_init__(self):
        if len(self.x_exponents) != len(self.z_exponents):
            raise ValueError("exponent vectors must have equal length")
        object.__setattr__(self, "x_exponents", tuple(int(x) for x in self.x_exponents))
        object.__setattr__(self, "z_exponents", tuple(int(z) for z in self.z_exponents))

    def apply(self, psi: PureState) -> PureState:
        """Act on a state: |v> -> omega^{z.v} |v + x mod d>, vectorized over amplitudes."""
        reg = psi.register
        d = reg.local_dim
        if len(self.x_exponents) != reg.n_qudits:
            raise ValueError("word length does not match register size")
        omega = np.exp(2j * np.pi / d)
        phase_exp = np.zeros(reg.total_dim)
        target = np.zeros(reg.total_dim, dtype=np.int64)
        for k in range(1, reg.n_qudits + 1):
            v = reg.digit_table(k)
            phase_exp = phase_exp + self.z_exponents[k - 1] * v
            shifted = (v + self.x_exponents[k - 1]) % d
            target = target + shifted * d ** (reg.n_qudits - k)
        out = np.zeros(reg.total_dim, dtype=complex)
        out[target] = omega ** (phase_exp % d) * psi.amplitudes
        return PureState(reg, out)


def stabilizer_generators(g: Graph, d: int) -> list[PauliWord]:
    """One generator X_a Z_{N(a)} per vertex a: a shift on a, clocks on its neighbors.

    It fixes the built state for every d >= 2: with q(x) = sum_{ij in E} x_i x_j,
    <psi|X^u Z^z|psi> = [z = Gamma u mod d] omega^(-q(u)), and u = e_a,
    z = Gamma e_a give q(u) = 0.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    two_color(g)
    n = g.n_vertices
    z = [[0] * n for _ in range(n)]
    for i, j in g.edges:
        z[i - 1][j - 1] = z[j - 1][i - 1] = 1
    return [PauliWord(tuple(int(b == a) for b in range(n)), tuple(z[a])) for a in range(n)]
