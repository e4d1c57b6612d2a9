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

import bisect
import itertools
import math
import operator
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
    Prime d searches link-connected position sets (``_connected_search``);
    composite d keeps the weight-ordered search, since there a gcd can
    combine coefficients across link components.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    fourier_color = 1 if m == 1 else 0
    local_bases = {
        v: FOURIER if c == fourier_color else COMPUTATIONAL for v, c in coloring.colors.items()
    }
    a_vertices = tuple(sorted(part.side_a))
    b_vertices = tuple(sorted(part.side_b))

    # No edge joins two Fourier vertices, so every edge has one end in each class.
    neighbors = {a: [] for a in sorted(v for v, c in coloring.colors.items() if c == fourier_color)}
    if not neighbors:
        raise NoCorrelationForm(f"no Fourier-measured vertices for setting m={m}")
    readers = {}  # computational vertex -> its Fourier neighbours
    for i, j in g.edges:
        a, b = (i, j) if i in neighbors else (j, i)
        neighbors[a].append(b)
        readers.setdefault(b, []).append(a)
    if all(d % q for q in range(2, math.isqrt(d) + 1)):  # d is prime
        best = _connected_search(d, neighbors, readers, part.side_a)
    else:
        best = _weight_ordered_search(d, neighbors, part.side_a)
    if best is None:
        raise NoCorrelationForm(
            f"no surjective side-local correlation form for A={sorted(part.side_a)}, m={m}"
        )
    coeff = _coefficients(*best, neighbors)
    fa = tuple([coeff.get(v, 0) % d for v in a_vertices])
    fb = tuple([-coeff.get(v, 0) % d for v in b_vertices])
    return MeasurementSetting(m, local_bases, a_vertices, b_vertices, fa, fb)


def _coefficients(positions, values, neighbors) -> dict:
    """Form coefficient of every vertex under the stabilizer element with these exponents.

    Exponent n_a on Fourier vertex a puts -n_a on a (its outcome w carries
    X-eigenvalue -w) and +n_a on each of its neighbours.
    """
    coeff = {}
    for a, n_a in zip(positions, values):
        coeff[a] = coeff.get(a, 0) - n_a
        for b in neighbors[a]:
            coeff[b] = coeff.get(b, 0) + n_a
    return coeff


def _weight_ordered_search(d: int, neighbors: dict, side_a):
    """Canonical (positions, exponents) over all d^k - 1 exponent vectors, or None.

    No edge joins two Fourier vertices, so exponent n_a != 0 puts -n_a on
    vertex a itself: a vector of Hamming weight w acts on at least w vertices.
    Visiting weights in increasing order, the search may stop once w exceeds
    the best support size, and still returns the minimum over all d^k - 1.
    At w equal to that size a rival acts on its w Fourier vertices alone, and
    those come in increasing order, so the search also stops once they pass
    the best support.
    """
    generators = list(neighbors)
    k = len(generators)
    best_key, best = (math.inf,), None
    for w in range(1, k + 1):
        if w > best_key[0]:
            break
        for positions in itertools.combinations(generators, w):
            if w == best_key[0] and positions > best_key[1]:
                break
            for values in itertools.product(range(1, d), repeat=w):
                coeff = _coefficients(positions, values, neighbors)
                gcd_a = gcd_b = d  # c.x is onto Z_d iff gcd(c, d) = 1, and gcd(-c, d) = gcd(c, d)
                for v, c in coeff.items():
                    if v in side_a:
                        gcd_a = math.gcd(gcd_a, c)
                    else:
                        gcd_b = math.gcd(gcd_b, c)
                if gcd_a != 1 or gcd_b != 1:
                    continue
                support = tuple(sorted(v for v, c in coeff.items() if c % d))
                n_vec = dict(zip(positions, values))
                key = (len(support), support, tuple(n_vec.get(a, 0) for a in generators))
                if key < best_key:
                    best_key, best = key, (positions, values)
    return best


def _connected_search(d: int, neighbors: dict, readers: dict, side_a):
    """Canonical (positions, exponents) for prime d, or None, from link-connected sets.

    Two Fourier positions are linked when they share a neighbour.  For prime d
    a coefficient is onto Z_d iff it is nonzero, so an element is valid iff
    its support meets both sides.  Sets in different link components have
    disjoint closed neighbourhoods, hence disjoint supports, so the minimum
    key is either one connected set whose support meets both sides (it holds
    a boundary position, one whose closed neighbourhood N[a] meets both
    sides) or the least A-only connected set joined with the least B-only one.
    Their supports lie on different sides, so the key of the pair merges the
    two keys, and the least pair joins the two least sets.  Without a
    boundary position, a side with positions has one whose N[a] lies inside
    it, a valid set alone; so when some side has none, every N[a] lies
    inside the other side and no element is valid (no group is the union of
    two proper subgroups), which is found before any set is grown.
    """
    sides = ([], [])  # positions on side A, on side B
    lone = [False, False]  # a side holds an isolated position, whose support is itself
    boundary = []
    best = None  # ((support size, support, exponents), positions), first the least boundary singleton
    for a, nbrs in neighbors.items():
        in_b = a not in side_a
        sides[in_b].append(a)
        meets_a = not in_b or not side_a.isdisjoint(nbrs)
        meets_b = in_b or not side_a.issuperset(nbrs)
        if not nbrs:
            lone[in_b] = True
        elif meets_a and meets_b:  # for any exponent, {a} acts on N[a]
            boundary.append(a)
            support = tuple(sorted((a, *nbrs)))
            if best is None or (len(support), support) < best[0][:2]:
                best = ((len(support), support, (1,)), (a,))
    on_boundary = frozenset(boundary)

    def valid_roots(w, first):
        """Roots, and the rule for the other members, reaching each set with a boundary position."""
        if first is None:  # each set under its least boundary position
            return boundary, lambda root, u: u > root or u not in on_boundary
        roots = list(itertools.takewhile(first.__ge__, neighbors))
        ball = _link_ball(boundary, w - 1, neighbors, readers) if roots else ()
        return [root for root in roots if root in ball], operator.lt

    limit = math.inf
    if best is not None and any(len(nbrs) > 1 for nbrs in readers.values()):  # some link exists
        best = _least_connected(
            d, neighbors, readers, valid_roots, on_boundary,
            lambda support: not side_a.isdisjoint(support) and not side_a.issuperset(support),
            limit, best,
        )
    if best is not None:
        limit = best[0][0]
    # A one-sided support has one vertex only if it is an isolated position, else at least two.
    one_sided = []
    if all(sides) and (2 - lone[0]) + (2 - lone[1]) <= limit:
        accepts = (side_a.issuperset, side_a.isdisjoint)
        for side in sorted((0, 1), key=lambda side: len(sides[side])):
            room = limit - one_sided[0][0][0] if one_sided else limit - 1
            members = frozenset(sides[side])
            found = _least_connected(
                d, neighbors, readers, _side_roots(sides[side], members), members,
                accepts[side], room,
            )
            if found is None:
                break
            one_sided.append(found)
    if len(one_sided) == 2:
        (key_1, pos_1), (key_2, pos_2) = one_sided
        exponents = dict(zip(pos_1, key_1[2]))
        exponents.update(zip(pos_2, key_2[2]))
        positions = tuple(sorted(exponents))
        values = tuple(exponents[a] for a in positions)
        key = (key_1[0] + key_2[0], tuple(sorted(key_1[1] + key_2[1])), values)
        if best is None or key < best[0]:
            best = (key, positions)
    return None if best is None else (best[1], best[0][2])


def _side_roots(positions, members):
    """Roots of the connected sets of these positions, each set under its least member."""
    return lambda w, first: (positions, lambda root, u: u > root and u in members)


def _link_ball(seeds, radius, neighbors, readers) -> set:
    """Positions within link distance ``radius`` of ``seeds``, by breadth-first search."""
    ball, ring, crossed = set(seeds), list(seeds), set()
    for _ in range(radius):
        ring_next = []
        for a in ring:
            for b in neighbors[a]:
                if b not in crossed:
                    crossed.add(b)
                    for u in readers[b]:
                        if u not in ball:
                            ball.add(u)
                            ring_next.append(u)
        ring = ring_next
    return ball


def _least_connected(d, neighbors, readers, roots, required, accept, limit, singles=None):
    """Least key over connected sets with an accepted support of at most ``limit`` vertices.

    ``roots(w, first)`` gives roots and a rule ``allowed(root, u)``: the
    connected sets of w positions made of a root and positions u it allows
    hold every set of weight w that may win, each once; sets with no
    position in ``required`` cannot win.  A set of w positions acts on at
    least those w vertices, so the search stops once w exceeds the best
    support size.  At w equal to it, ``first`` is the best support's first
    vertex: a rival acts on its positions alone and must sort before the
    best support, so its least member is at most ``first``, and ``roots``
    gives instead, in increasing order, the least member of each such set;
    the level ends at the first root whose w least positions onwards sort
    after the best support.  ``singles``, the best set of weight 1 if
    already known, skips that weight.  Returns (key, positions) or None.
    """
    order = list(neighbors)  # every position, ascending
    best_key, best = singles or ((limit + 1,), None)
    for w in itertools.count(1 if singles is None else 2):
        if w > limit or w > best_key[0]:
            break
        grown = False
        first = None
        if w == best_key[0]:
            if _least_from(order, order[0], w) > best_key[1]:
                break
            first = best_key[1][0]
        starts, allowed = roots(w, first)
        if first is not None:  # roots ascend, and the best support only falls
            starts = itertools.takewhile(lambda root: _least_from(order, root, w) <= best_key[1], starts)
        sets = _connected_sets(starts, w, allowed, neighbors, readers) if w > 1 else zip(starts)
        for positions in sets:
            grown = True
            if required.isdisjoint(positions) or w == best_key[0] and positions > best_key[1]:
                continue
            key = _least_key(positions, d, neighbors, accept, best_key)
            if key is not None:
                best_key, best = key, positions
        if not grown:  # no connected set of w positions, so none of more
            break
    return None if best is None else (best_key, best)


def _least_from(order, root, w):
    """The w least positions from ``root`` on; no w-set whose least member is ``root`` sorts before them."""
    i = bisect.bisect_left(order, root)
    return tuple(order[i:i + w])


def _least_key(positions, d, neighbors, accept, bound):
    """Least (support size, support, exponents) below ``bound`` over nonzero exponents, or None.

    A neighbour read by one position always carries a nonzero coefficient;
    only those read by several can cancel.  With none of those, every choice
    of exponents has the same support, and all ones is the least.
    """
    if len(positions) == 1:  # acts on its closed neighbourhood whatever the exponent
        support = tuple(sorted((*positions, *neighbors[positions[0]])))
        key = (len(support), support, (1,))
        return key if key < bound and accept(support) else None
    reads = {}  # computational vertex -> indices of its neighbours among the positions
    for i, a in enumerate(positions):
        for b in neighbors[a]:
            reads.setdefault(b, []).append(i)
    fixed = [*positions]
    shared = []
    for b, idx in reads.items():
        if len(idx) == 1:
            fixed.append(b)
        else:
            shared.append((b, idx))
    if len(fixed) > bound[0]:
        return None
    w = len(positions)
    best = None
    for values in itertools.product(range(1, d), repeat=w) if shared else [(1,) * w]:
        support = fixed + [b for b, idx in shared if sum(values[i] for i in idx) % d]
        if len(support) > bound[0]:
            continue
        support = tuple(sorted(support))
        key = (len(support), support, values)
        if key < bound and accept(support):
            bound = best = key
    return best


def _connected_sets(roots, size, allowed, neighbors, readers):
    """Link-connected sets of ``size`` >= 2 positions: a root and positions u with allowed(root, u).

    For each root in turn, each set is yielded once, as a sorted tuple, by
    ESU (Wernicke 2006): a set grows only by link neighbours of its newest
    member that are linked to no earlier member, and a candidate passed over
    is not added further down.  Links are found through the shared
    neighbours as the sets grow, so the link clique of a high-degree vertex
    is never built.
    """

    def exclusive(root, w, touched):  # allowed link neighbours of w linked to no member
        out = {}
        for b in neighbors[w]:
            if b not in touched:
                for u in readers[b]:
                    if u != w and u not in out and allowed(root, u) and touched.isdisjoint(neighbors[u]):
                        out[u] = None
        return list(out)

    for root in roots:
        stack = [((root,), exclusive(root, root, frozenset()))]
        while stack:
            members, extension = stack.pop()
            if len(members) + 1 == size:
                for w in extension:
                    yield tuple(sorted((*members, w)))
                continue
            touched = {b for a in members for b in neighbors[a]}
            for i, w in enumerate(extension):
                stack.append(((*members, w), extension[i + 1:] + exclusive(root, w, touched)))


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
