"""Construction of qudit graph states as dense amplitude vectors.

The state is built from the Fourier-basis initial product state by applying
one controlled-phase unitary per edge.  Edge unitaries are diagonal, so they
are applied as phase masks on the amplitude array rather than materialized
matrices; this keeps 16-qubit registers feasible.  No command builds it:
the commands read closed forms (``cloner.pair_tables`` and the information
of its matched tables), and the state is the dense reference of the tests.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .registers import PureState, QuditRegister


def fourier_op(d: int) -> np.ndarray:
    """Quantum Fourier transform: F|v'> = sum_v omega^{v'v} |v> / sqrt(d)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    omega = np.exp(2j * np.pi / d)
    v = np.arange(d)
    return omega ** np.outer(v, v) / np.sqrt(d)


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
