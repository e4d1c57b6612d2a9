"""Schmidt decomposition, measurement settings, POVMs and closed-form outcome tables.

A setting assigns each vertex a local basis (computational or Fourier,
depending on its color and on which of the two complementary settings is
chosen) and coarse-grains the tuple of local outcomes on each side of the
bipartition into a single Z_d value through a linear form.  The forms come
from one graph-state stabilizer generator X_a Z_N(a), its shift on a
Fourier-measured vertex a with a neighbour across the cut and its clock on
a's computational neighbours: its eigenvalue constraint makes the two
side-local values coincide on the ideal state.  Every informative element
gives the same closed-form tables, so one generator serves for every cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Bipartition, Graph, TwoColoring
from .graphstate import fourier_op
from .infotheory import _check_prob_table
from .registers import DensityOperator, PureState, QuditRegister, permute_qudits

COMPUTATIONAL = "computational"
FOURIER = "fourier"


class NoCorrelationForm(RuntimeError):
    """No stabilizer element correlates the two sides: no edge crosses the cut."""


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
    return part.a_vertices + part.b_vertices


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
    forms come from one stabilizer generator g_a = X_a Z_N(a) of a
    Fourier-measured vertex a with a neighbour across the cut (a boundary
    vertex), read from ``g.adjacency`` at the smaller side: the least by
    (|N[a]|, sorted N[a]).  Exponent 1 on g_a puts -1 on a (its outcome w
    carries X-eigenvalue -w) and +1 on each neighbour, so its eigenvalue
    constraint makes the two side-local values coincide on the ideal state.

    g_a is informative: its cross-cut vector c is 1 at every neighbour of a
    across the cut, so gcd(c, d) = 1.  With S = S_A (x) S_B, a power S_A^s is
    a stabilizer, up to a phase, iff s c = 0 mod d (Hein, Eisert & Briegel,
    PRA 69, 062311), so the A-side value is uniform, the ideal table is the
    identity over d with I = log2 d, and the forms are onto Z_d.  Every
    informative element gives that table, and white noise mixes into each
    alike, so no number depends on which one is taken.  Without a boundary
    vertex no edge crosses the cut, c = 0 for every element, and the cut is
    refused.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    fourier_color = 1 if m == 1 else 0
    local_bases = {
        v: FOURIER if c == fourier_color else COMPUTATIONAL for v, c in coloring.colors.items()
    }

    # Every edge joins the two color classes, so each crossing edge has one Fourier end.
    adjacency = g.adjacency
    inner = min(part.side_a, part.side_b, key=len)
    boundary = {
        v if coloring.colors[v] == fourier_color else w for v in inner for w in adjacency[v] if w not in inner
    }
    if not boundary:
        raise NoCorrelationForm(
            f"no Fourier-measured vertex has a neighbour across the cut A={list(part.a_vertices)} "
            f"for setting m={m}: no edge crosses the cut, so the state is a product across it"
        )
    a = min(boundary, key=lambda v: (len(adjacency[v]), sorted((v, *adjacency[v]))))
    coeff = dict.fromkeys(adjacency[a], 1)
    coeff[a] = -1
    fa = tuple([coeff.get(v, 0) % d for v in part.a_vertices])
    fb = tuple([-coeff.get(v, 0) % d for v in part.b_vertices])
    return MeasurementSetting(m, local_bases, part.a_vertices, part.b_vertices, fa, fb)


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
    return _check_prob_table(np.einsum("ijkl,aki,blj->ab", rho4, e_arr, f_arr).real)


def mix_white_noise(table: np.ndarray, p) -> np.ndarray:
    """Joint table of the state mixed with white noise at intensity p.

    Each side's effects are d projectors of equal trace (the forms are
    surjective), so the maximally mixed state contributes exactly 1/d^2 to
    every entry: P_p = (1-p) P + p / d^2, with d^2 the size of the last two
    axes, so ``table`` may be a stack of tables and ``p`` an array that
    broadcasts against it.
    """
    if not np.all((0.0 <= p) & (p <= 1.0)):  # a NaN fails too
        raise ValueError(f"noise intensity must be in [0, 1], got {p}")
    return (1.0 - p) * table + p / (table.shape[-2] * table.shape[-1])


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

    The phase never matters: u lives on the Fourier reads, where z = 0, so
    on an allowed cell (Gamma u)_i = 0 mod d at every Fourier read i.  Every
    edge joins the two color classes, so q(u) = sum over the reads i of one
    class of u_i (Gamma u)_i = 0 mod d there, and chi is the indicator of the
    allowed cells (complex, as the DFT takes it).  Every e_v is an integer
    multiple of s or t, so each residual (z - Gamma u)_w is alpha s + beta t;
    the Fourier reads' neighbours add up those integers, and the d x d array
    is built once, from the distinct (alpha, beta) mod d.
    """
    if setting_a.a_vertices != part.a_vertices or setting_b.b_vertices != part.b_vertices:
        raise ValueError("setting vertices do not match the bipartition")
    if not (_surjective(setting_a.fa_coeffs, d) and _surjective(setting_b.fb_coeffs, d)):
        raise ValueError("correlation forms must be surjective onto Z_d")
    fourier, residual = {}, {}  # (alpha, beta) of e_v at Fourier reads; of (z - Gamma u)_w at every w
    for setting, vertices, coeffs, unit in (
        (setting_a, part.a_vertices, setting_a.fa_coeffs, (1, 0)),
        (setting_b, part.b_vertices, setting_b.fb_coeffs, (0, 1)),
    ):
        for v, c in zip(vertices, coeffs):
            if c % d:
                (fourier if setting.local_bases[v] == FOURIER else residual)[v] = (c * unit[0], c * unit[1])
    adjacency = g.adjacency
    for v, (alpha_v, beta_v) in fourier.items():
        for w in adjacency[v]:
            alpha, beta = residual.get(w, (0, 0))
            residual[w] = (alpha + alpha_v, beta + beta_v)
    s, t = np.arange(d)[:, None], np.arange(d)  # broadcast to the d x d grid
    allowed = np.ones((d, d), dtype=bool)
    for alpha, beta in {(alpha % d, beta % d) for alpha, beta in residual.values()} - {(0, 0)}:
        allowed &= (alpha * s + beta * t) % d == 0
    return allowed.astype(complex)


def stabilizer_table(
    g: Graph,
    d: int,
    pairs,
    part: Bipartition,
) -> np.ndarray:
    """Noiseless P(a, b) for A measuring ``setting_a`` and B ``setting_b``, for each pair, on the graph state of g.

    ``pairs`` lists (setting_a, setting_b); the result is their (k, d, d)
    stack, in that order.  Each table is the 2-D DFT of its
    ``characteristic_table`` over d^2, with no state vector.  One DFT and
    one ``infotheory._check_prob_table`` serve the whole stack, which clips
    round-off entries near -1e-17 at 0; callers mix in white noise with
    ``mix_white_noise``.  No command calls it: the commands read closed
    forms (``cloner.pair_tables`` and the information of its matched
    tables), and this is ``verify``'s proof of them at scale and the tests'
    oracle.
    """
    chi = np.stack([characteristic_table(g, d, sa, sb, part) for sa, sb in pairs])
    return _check_prob_table(np.fft.fft2(chi).real / d ** 2, axes=(-2, -1))
