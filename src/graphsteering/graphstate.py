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

    def matrix(self, d: int) -> np.ndarray:
        """Dense matrix realization (kron of per-qudit X^x Z^z factors)."""
        xm, zm = x_op(d), z_op(d)
        out = np.ones((1, 1), dtype=complex)
        for x, z in zip(self.x_exponents, self.z_exponents):
            factor = np.linalg.matrix_power(xm, x) @ np.linalg.matrix_power(zm, z)
            out = np.kron(out, factor)
        return out


def stabilizer_generators(g: Graph, d: int) -> list[PauliWord]:
    """One generator per vertex: a shift on the vertex, clocks on its neighbors.

    Phase conventions for the shift direction differ across the literature, so
    the X vs X-dagger placement is fixed by numeric trial against the built
    state; the stabilizing variant is canonical.
    """
    two_color(g)
    n = g.n_vertices
    psi = build_graph_state(g, d)

    def words(x_power: int) -> list[PauliWord]:
        out = []
        for a in range(1, n + 1):
            x = [0] * n
            z = [0] * n
            x[a - 1] = x_power
            for b in g.neighbors(a):
                z[b - 1] = 1
            out.append(PauliWord(tuple(x), tuple(z)))
        return out

    for x_power in (1, d - 1):
        candidate = words(x_power)
        fixed = candidate[0].apply(psi)
        if np.max(np.abs(fixed.amplitudes - psi.amplitudes)) < 1e-10:
            return candidate
    raise AssertionError("neither shift direction stabilizes the built state")
