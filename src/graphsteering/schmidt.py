"""Schmidt decomposition, measurement settings, POVMs and closed-form outcome tables.

A setting assigns each vertex a local basis (computational or Fourier,
depending on its color and on which of the two complementary settings is
chosen) and coarse-grains the tuple of local outcomes on each side of the
bipartition into a single Z_d value through a linear form.  The forms come
from a stabilizer element whose shift part lies on the Fourier-measured
vertices and whose clock part lies on the computational ones: its eigenvalue
constraint makes the two side-local values coincide on the ideal state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Bipartition, Graph, TwoColoring
from .graphstate import fourier_op
from .registers import DensityOperator, PureState, QuditRegister, permute_qudits

COMPUTATIONAL = "computational"
FOURIER = "fourier"


class NoCorrelationForm(RuntimeError):
    """No stabilizer element yields surjective side-local forms for this split."""


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Schmidt data of a pure state across a bipartition (A-side qudits first)."""

    coefficients: np.ndarray
    a_vectors: np.ndarray  # rows are the A-side Schmidt vectors
    b_vectors: np.ndarray  # rows are the B-side Schmidt vectors
    rank: int

    def reconstruct(self) -> np.ndarray:
        """Amplitudes of sum_v lambda_v |a_v> (x) |b_v> in A-first ordering."""
        mat = (self.a_vectors.T * self.coefficients) @ self.b_vectors
        return mat.reshape(-1)


@dataclass(frozen=True)
class MeasurementSetting:
    """Local bases plus side-local coarse-graining forms for one setting m."""

    m: int
    local_bases: dict
    a_vertices: tuple
    b_vertices: tuple
    fa_coeffs: tuple
    fb_coeffs: tuple


@dataclass(frozen=True, eq=False)
class Povm:
    """d Hermitian PSD effects summing to the identity; effect t is outcome t."""

    effects: tuple

    def __post_init__(self):
        total = sum(self.effects)
        dim = total.shape[0]
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise ValueError("POVM effects do not sum to the identity")


def side_order(part: Bipartition) -> tuple:
    """Qudit ordering used for all bipartite reshapes: A ascending, then B ascending."""
    return tuple(sorted(part.side_a)) + tuple(sorted(part.side_b))


def schmidt_decompose(psi: PureState, part: Bipartition) -> SchmidtForm:
    """SVD of the amplitude array reshaped across the bipartition."""
    d = psi.register.local_dim
    reordered = permute_qudits(psi, side_order(part))
    dim_a = d ** len(part.side_a)
    dim_b = d ** len(part.side_b)
    mat = reordered.amplitudes.reshape(dim_a, dim_b)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-8))
    return SchmidtForm(coefficients=s, a_vectors=u.T, b_vectors=vh, rank=rank)


def _surjective(coeffs, d: int) -> bool:
    """A linear form c.x over Z_d is surjective iff gcd(c_1, ..., c_n, d) = 1."""
    return math.gcd(*coeffs, d) == 1 if coeffs else False


def derive_setting(
    g: Graph,
    d: int,
    coloring: TwoColoring,
    part: Bipartition,
    m: int,
) -> MeasurementSetting:
    """Derive one of the two complementary settings for a bipartition.

    For m=1 the color-0 vertices are measured in the computational basis and
    color-1 in the Fourier basis; m=2 swaps the roles.  The coarse-graining
    forms come from the subgroup generated by the stabilizers of the
    Fourier-measured color class; the canonical element is the one acting on
    the fewest vertices (ties broken by vertex support, then exponents).
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    fourier_class = coloring.color_class(1 if m == 1 else 0)
    comp_class = coloring.color_class(0 if m == 1 else 1)
    local_bases = {v: FOURIER for v in fourier_class}
    local_bases.update({v: COMPUTATIONAL for v in comp_class})
    a_vertices = tuple(sorted(part.side_a))
    b_vertices = tuple(sorted(part.side_b))

    generators = sorted(fourier_class)
    if not generators:
        raise NoCorrelationForm(f"no Fourier-measured vertices for setting m={m}")
    neighbors = {a: [] for a in generators}
    for i, j in g.edges:
        for a, b in ((i, j), (j, i)):
            if a in neighbors:
                neighbors[a].append(b)

    # No edge joins two Fourier vertices, so exponent n_a != 0 puts -n_a on
    # vertex a itself: a vector of Hamming weight w acts on at least w vertices.
    # Visiting weights in increasing order, the search may stop once w exceeds
    # the best support size, and still returns the minimum over all d^k - 1.
    # At w equal to that size a rival acts on its w Fourier vertices alone, and
    # those come in increasing order, so the search also stops once they pass
    # the best support.
    k = len(generators)
    best_key, best_coeff = (math.inf,), None
    for w in range(1, k + 1):
        if w > best_key[0]:
            break
        for positions in itertools.combinations(range(k), w):
            if w == best_key[0] and tuple(generators[pos] for pos in positions) > best_key[1]:
                break
            for values in itertools.product(range(1, d), repeat=w):
                coeff = {}
                for pos, n_a in zip(positions, values):
                    a = generators[pos]
                    coeff[a] = coeff.get(a, 0) - n_a  # Fourier outcome w carries X-eigenvalue -w
                    for b in neighbors[a]:
                        coeff[b] = coeff.get(b, 0) + n_a
                gcd_a = gcd_b = d  # c.x is onto Z_d iff gcd(c, d) = 1, and gcd(-c, d) = gcd(c, d)
                for v, c in coeff.items():
                    if v in part.side_a:
                        gcd_a = math.gcd(gcd_a, c)
                    else:
                        gcd_b = math.gcd(gcd_b, c)
                if gcd_a != 1 or gcd_b != 1:
                    continue
                support = tuple(sorted(v for v, c in coeff.items() if c % d))
                n_vec = [0] * k
                for pos, n_a in zip(positions, values):
                    n_vec[pos] = n_a
                key = (len(support), support, tuple(n_vec))
                if key < best_key:
                    best_key, best_coeff = key, coeff
    if best_coeff is None:
        raise NoCorrelationForm(
            f"no surjective side-local correlation form for A={sorted(part.side_a)}, m={m}"
        )
    fa = tuple(best_coeff.get(v, 0) % d for v in a_vertices)
    fb = tuple(-best_coeff.get(v, 0) % d for v in b_vertices)
    return MeasurementSetting(m, local_bases, a_vertices, b_vertices, fa, fb)


def _product_basis(setting: MeasurementSetting, vertices, d: int) -> np.ndarray:
    """Unitary whose columns are the local product-basis states, big-endian order."""
    f_mat = fourier_op(d)
    out = np.ones((1, 1), dtype=complex)
    for v in vertices:
        factor = f_mat if setting.local_bases[v] == FOURIER else np.eye(d, dtype=complex)
        out = np.kron(out, factor)
    return out


def build_povm(setting: MeasurementSetting, side: str, d: int) -> Povm:
    """Coarse-grained POVM on one side's sub-register (vertices in ascending order)."""
    if side == "A":
        vertices, coeffs = setting.a_vertices, setting.fa_coeffs
    elif side == "B":
        vertices, coeffs = setting.b_vertices, setting.fb_coeffs
    else:
        raise ValueError("side must be 'A' or 'B'")
    basis = _product_basis(setting, vertices, d)
    reg = QuditRegister(len(vertices), d)
    values = np.zeros(reg.total_dim, dtype=np.int64)
    for k in range(1, reg.n_qudits + 1):
        values += coeffs[k - 1] * reg.digit_table(k)
    values %= d
    effects = []
    for t in range(d):
        cols = basis[:, values == t]
        effects.append(cols @ cols.conj().T)
    return Povm(effects=tuple(effects))


def joint_distribution(
    rho: DensityOperator, povm_a: Povm, povm_b: Povm, part: Bipartition
) -> np.ndarray:
    """P(a, b) = tr(rho . E_a (x) F_b) under the A-first qudit ordering."""
    d = rho.register.local_dim
    dim_a = d ** len(part.side_a)
    dim_b = d ** len(part.side_b)
    if povm_a.effects[0].shape[0] != dim_a or povm_b.effects[0].shape[0] != dim_b:
        raise ValueError("POVM dimensions do not match the bipartition")
    reordered = permute_qudits(rho, side_order(part))
    rho4 = reordered.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    e_arr = np.stack(povm_a.effects)
    f_arr = np.stack(povm_b.effects)
    table = np.einsum("ijkl,aki,blj->ab", rho4, e_arr, f_arr).real
    if np.min(table) < -1e-12:
        raise ValueError(f"joint distribution has entry {np.min(table)} below -1e-12")
    table = np.clip(table, 0.0, None)
    if abs(table.sum() - 1.0) > 1e-10:
        raise ValueError(f"joint distribution sums to {table.sum()}")
    return table


def mix_white_noise(table: np.ndarray, p: float) -> np.ndarray:
    """Joint table of the state mixed with white noise at intensity p.

    Each side's effects are d projectors of equal trace (the forms are
    surjective), so the maximally mixed state contributes exactly 1/d^2 to
    every entry: P_p = (1-p) P + p / d^2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise intensity must be in [0, 1], got {p}")
    return (1.0 - p) * table + p / table.size


def characteristic_table(
    g: Graph,
    d: int,
    setting_a: MeasurementSetting,
    setting_b: MeasurementSetting,
    part: Bipartition,
) -> np.ndarray:
    """chi(s, t) = E omega^(s a + t b) over the graph state's outcomes, in closed form.

    psi(x) = d^(-N/2) omega^q(x) with q(x) = sum_{ij in E} x_i x_j gives
    <psi|X^u Z^z|psi> = [z = Gamma u mod d] omega^(-q(u)), Gamma the adjacency
    matrix.  Outcome o weighs omega^(c o) as Z^c does on a computational
    vertex and as X^(-c) does on a Fourier one (outcome o is F|o>), so
    z_v = e_v and u_v = -e_v with e_v = c s on side A and c t on side B.
    """
    a_vertices, b_vertices = tuple(sorted(part.side_a)), tuple(sorted(part.side_b))
    if setting_a.a_vertices != a_vertices or setting_b.b_vertices != b_vertices:
        raise ValueError("setting vertices do not match the bipartition")
    if not (_surjective(setting_a.fa_coeffs, d) and _surjective(setting_b.fb_coeffs, d)):
        raise ValueError("correlation forms must be surjective onto Z_d")
    s, t = np.indices((d, d))
    fourier, residual = {}, {}  # e_v of Fourier reads; (z - Gamma u)_w at every w
    for setting, vertices, coeffs, var in (
        (setting_a, a_vertices, setting_a.fa_coeffs, s),
        (setting_b, b_vertices, setting_b.fb_coeffs, t),
    ):
        for v, c in zip(vertices, coeffs):
            if c % d:
                (fourier if setting.local_bases[v] == FOURIER else residual)[v] = c * var
    q = 0  # q(u) = sum over edges of u_i u_j = e_i e_j
    for i, j in g.edges:
        e_i, e_j = fourier.get(i), fourier.get(j)
        if e_i is not None:
            residual[j] = residual.get(j, 0) + e_i
        if e_j is not None:
            residual[i] = residual.get(i, 0) + e_j
            if e_i is not None:
                q = q + e_i * e_j
    allowed = np.ones((d, d), dtype=bool)
    for r in residual.values():
        allowed &= r % d == 0
    return np.where(allowed, np.exp(-2j * np.pi * (q % d) / d), 0.0)


def stabilizer_table(
    g: Graph,
    d: int,
    setting_a: MeasurementSetting,
    setting_b: MeasurementSetting,
    part: Bipartition,
    p: float = 0.0,
) -> np.ndarray:
    """P(a, b) for A measuring ``setting_a`` and B ``setting_b`` on the graph state of g.

    The 2-D DFT of ``characteristic_table`` over d^2: O(d^2 (N + |E|)) work and
    no state vector.  Round-off entries near -1e-17 are clipped at 0 before
    white noise is mixed in.
    """
    table = np.fft.fft2(characteristic_table(g, d, setting_a, setting_b, part)).real / d ** 2
    if abs(table.sum() - 1.0) > 1e-10:
        raise ValueError(f"joint distribution sums to {table.sum()}")
    if np.min(table) < -1e-12:
        raise ValueError(f"joint distribution has entry {np.min(table)} below -1e-12")
    return mix_white_noise(np.clip(table, 0.0, None), p)
