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
# Units of work a setting search may spend (reader visits, leaf candidates,
# neighbour reads of the sets scored, exponents tried and the neighbours each
# settles, union steps), plus so many per vertex and edge.  2-CPU VM: the tests'
# dense cuts stop in 0.05-0.35 s, no other test or benchmark cut but the large
# ones spends over 6,878 units, and the half cut of grid(300x300) 1.34 an element.
SEARCH_UNITS = 200_000
SEARCH_UNITS_PER_ELEMENT = 4


class NoCorrelationForm(RuntimeError):
    """No stabilizer element correlates the two sides: no edge crosses the cut."""


class _OutOfBudget(Exception):
    """The setting search has spent its units of work."""


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
    forms come from the subgroup generated by the stabilizers of the
    Fourier-measured color class, and only informative elements qualify
    (gcd(c, d) = 1 for the cross-cut vector c, see ``_cross_gcd``).  The
    canonical element is the informative one acting on the fewest vertices
    (ties broken by vertex support, then exponents).  One exists iff some
    Fourier-measured vertex has a neighbour across the cut: the crossing
    edges, read from ``g.adjacency`` at the smaller side, are checked first.
    Every d is searched by ``_connected_search``, which also joins unlinked
    sets of positions when d has several distinct primes.  The form is the
    canonical one whenever that search ends within its budget.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    fourier_color = 1 if m == 1 else 0
    local_bases = {
        v: FOURIER if c == fourier_color else COMPUTATIONAL for v, c in coloring.colors.items()
    }

    # No edge joins two Fourier vertices, so every neighbour of a Fourier vertex is
    # computational, and every neighbour of a computational vertex reads it.
    adjacency = g.adjacency
    neighbors = {a: adjacency[a] for a in sorted(v for v, c in coloring.colors.items() if c == fourier_color)}
    # Alone, with exponent 1, a boundary position has c = (1, ..., 1); with none, c = 0 always.
    inner = min(part.side_a, part.side_b, key=len)
    boundary = sorted({v if v in neighbors else w for v in inner for w in adjacency[v] if w not in inner})
    if not boundary:
        raise NoCorrelationForm(
            f"no Fourier-measured vertex has a neighbour across the cut A={list(part.a_vertices)} "
            f"for setting m={m}: no edge crosses the cut, so the state is a product across it"
        )
    units = SEARCH_UNITS + SEARCH_UNITS_PER_ELEMENT * (g.n_vertices + len(g.edges))
    coeff = _coefficients(*_connected_search(d, neighbors, adjacency, part.side_a, boundary, units), neighbors)
    fa = tuple([coeff.get(v, 0) % d for v in part.a_vertices])
    fb = tuple([-coeff.get(v, 0) % d for v in part.b_vertices])
    return MeasurementSetting(m, local_bases, part.a_vertices, part.b_vertices, fa, fb)


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


def _cross_gcd(positions, values, neighbors, side_a, d: int) -> int:
    """gcd(d, c) for the element's cross-cut vector c; the element is informative iff it is 1.

    c_b sums, at each computational vertex b, the exponents of b's Fourier
    neighbours on the other side of the cut.  With S = S_A (x) S_B, S_A^s is
    in the graph-state stabilizer group (Hein, Eisert & Briegel, PRA 69,
    062311), up to a phase, iff s c = 0 mod d.  So gcd(c, d) = 1 leaves the
    A-side value uniform, the ideal table carries I = log2 d, and the forms
    are onto Z_d; otherwise the table has I < log2 d (I = 0 for a product
    element, c = 0).
    """
    cross = {}
    for a, n_a in zip(positions, values):
        in_a = a in side_a
        for b in neighbors[a]:
            if (b in side_a) != in_a:
                cross[b] = cross.get(b, 0) + n_a
    return math.gcd(d, *cross.values())


def _connected_search(d: int, neighbors: dict, readers: dict, side_a, boundary, units: int):
    """Canonical informative (positions, exponents), from link-connected sets and their unions.

    Two Fourier positions are linked when they share a neighbour.  Sets in
    different link components have disjoint closed neighbourhoods, so each
    adds its own entries to the cross-cut vector c and its own vertices to
    the support, and the element's gcd(d, c) is the gcd of theirs.  For
    d = p^k an element is informative iff some entry of c is not divisible
    by p, and the component holding it is informative alone, so the minimum
    is one connected set: dropping the other components shrinks the support.
    That set holds a boundary position, one with a neighbour across the cut,
    since only those add to c; and each boundary position alone, with
    exponent 1, is informative and acts on its closed neighbourhood N[a].

    The least such singleton bounds the sets of w >= 2 positions.  A set of
    w positions acts on at least those w vertices, so the search stops once
    w exceeds the best support size; below it, each connected set is grown
    once, under its least boundary position.  At w equal to it, a rival
    acts on its positions alone and must sort before the best support, so
    its least member is at most the support's first vertex and lies within
    link distance w - 1 of a boundary position: the sets are grown instead
    under their least member, in increasing order, and the level ends at the
    first root whose w least positions onwards sort after the best support.

    Sets are grown depth first by ESU (Wernicke 2006): a set grows only by
    link neighbours of its newest member that are linked to no earlier
    member, and a candidate passed over is not added further down, so each
    set is reached once.  Links are found through the shared neighbours as
    the sets grow, so the link clique of a high-degree vertex is never
    built.  A set is scored only if it can beat the best key: its positions
    and the neighbours exactly one of them reads keep a nonzero coefficient
    under every choice of exponents, so their number bounds its support from
    below, and a set whose bound exceeds the best support size is dropped as
    it is reached.  ``reads`` counts, for each computational vertex, the
    members of the growing set that read it, and ``once`` the vertices read
    exactly once; both follow the members as they are added and removed, so
    a set's bound costs one pass over its last member's neighbours.

    When d has several distinct primes, the minimum can instead be a union of
    unlinked partial sets: connected sets with 1 < gcd(d, c) < d, each with a
    boundary position and fewer vertices than the best connected set, which
    ``_least_key`` collects and ``_least_union`` joins.  Prime d has none.  The
    positions of the result are the Fourier vertices of its support.

    The work is counted against ``units``.  The result is the canonical
    minimum whenever the search ends within them, and otherwise the least key
    found so far, which is informative, so every table is the same.
    """
    on_boundary = frozenset(boundary)
    best_key, parts = (math.inf,), []
    for a in boundary:  # whatever the exponent, {a} acts on N[a]
        support = tuple(sorted((a, *neighbors[a])))
        best_key = min(best_key, (len(support), support, (1,)))
    left = [units]
    def spend(work):
        left[0] -= work
        if left[0] < 0:
            raise _OutOfBudget
    try:
        order = list(neighbors)  # every position, ascending
        reads = {}  # computational vertex -> members of the growing set that read it
        for w in itertools.count(2):
            if w > best_key[0]:
                break
            if w < best_key[0]:  # each set under its least boundary position
                starts, allowed = boundary, lambda root, u: u > root or u not in on_boundary
            else:
                if _least_from(order, order[0], w) > best_key[1]:
                    break
                roots = list(itertools.takewhile(best_key[1][0].__ge__, order))
                ball = _link_ball(boundary, w - 1, neighbors, readers) if roots else ()
                starts = itertools.takewhile(  # roots ascend, and the best support only falls
                    lambda root: _least_from(order, root, w) <= best_key[1],
                    [root for root in roots if root in ball],
                )
                allowed = operator.lt
            grown = False
            for root in starts:
                extension = _exclusive(root, root, allowed, neighbors, readers, reads, spend)
                if not extension:  # nothing grows from this root
                    continue
                members, frames = [root], [extension]  # a frame is pushed only with candidates
                once = _count_reads(reads, neighbors[root], 1)
                while frames:
                    extension = frames[-1]
                    if len(members) + 1 < w and extension:  # grow by the next candidate
                        u = extension.pop()
                        child = extension + _exclusive(root, u, allowed, neighbors, readers, reads, spend)
                        if child:
                            frames.append(child)
                            once += _count_reads(reads, neighbors[u], 1)
                            members.append(u)
                        continue
                    if len(members) + 1 == w:  # each candidate completes a set
                        grown = True
                        spend(len(extension))
                        for u in extension:
                            lower = w + once  # the positions and the neighbours read once, with u
                            for b in neighbors[u]:
                                count = reads.get(b, 0)
                                if count == 0:
                                    lower += 1
                                elif count == 1:
                                    lower -= 1
                            if lower > best_key[0]:
                                continue
                            positions = tuple(sorted((*members, u)))
                            if on_boundary.isdisjoint(positions) or w == best_key[0] and positions > best_key[1]:
                                continue
                            best_key = _least_key(positions, d, neighbors, side_a, best_key, parts, spend) or best_key
                    frames.pop()
                    once += _count_reads(reads, neighbors[members.pop()], -1)
            if not grown:  # no connected set of w positions, so none of more
                break
        best_key = _least_union(sorted(parts), best_key, spend) or best_key
    except _OutOfBudget:  # the least key found so far stands
        pass
    return tuple(v for v in best_key[1] if v in neighbors), best_key[2]


def _exclusive(root, w, allowed, neighbors, readers, reads, spend) -> list:
    """Allowed link neighbours of ``w`` linked to no member, the members' neighbours being ``reads``."""
    touched, out, visits = reads.keys(), {}, 0
    for b in neighbors[w]:
        if b not in reads:
            visits += len(readers[b])
            for u in readers[b]:
                if u != w and u not in out and allowed(root, u) and touched.isdisjoint(neighbors[u]):
                    out[u] = None
    spend(visits)
    return list(out)


def _count_reads(reads, vertices, step) -> int:
    """Add ``step`` (1 or -1) to each vertex's read count; returns the change in vertices read once."""
    change = 0
    for b in vertices:
        count = reads.get(b, 0)
        if count + step:
            reads[b] = count + step
        else:
            del reads[b]
        change += (count + step == 1) - (count == 1)
    return change


def _least_union(parts, bound, spend, start=0, union=(), reads=frozenset(), g=0):
    """Least key below ``bound`` of an informative union of unlinked ``parts``, or None.

    ``parts`` holds partial sets (key, positions, neighbours, gcd) in key
    order.  No part of the least union can be dropped, so each lowers the gcd.
    """
    best, size = None, sum(part[0][0] for part in union)
    for i in range(start, len(parts)):
        spend(1)
        key, _, part_reads, part_g = part = parts[i]
        if size + key[0] > bound[0]:
            break  # parts ascend in size
        h = math.gcd(g, part_g)
        if h == g or not reads.isdisjoint(part_reads):  # no gain, or linked
            continue
        if h > 1:
            found = _least_union(parts, bound, spend, i + 1, (*union, part), reads | part_reads, h)
        else:
            pairs = [p for (*_, values), positions, *_ in (*union, part) for p in zip(positions, values)]
            support = tuple(sorted(v for (_, vs, _), *_ in (*union, part) for v in vs))
            found = (len(support), support, tuple(n for _, n in sorted(pairs)))
        if found and found < bound:
            bound = best = found
    return best


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


def _least_from(order, root, w):
    """The w least positions from ``root`` on; no w-set whose least member is ``root`` sorts before them."""
    i = bisect.bisect_left(order, root)
    return tuple(order[i:i + w])


def _least_key(positions, d, neighbors, side_a, bound, parts, spend):
    """Least informative (support size, support, exponents) below ``bound``, or None.

    A neighbour read by one position always carries a nonzero coefficient;
    only those read by several can cancel, and the caller has checked that
    the positions and the neighbours read once fit within the bound.  The
    exponents n_1, n_2, ... are fixed depth first, each in increasing
    order, so vectors come in the order ``itertools.product`` gives them.
    A shared neighbour is settled once its last reader has an exponent, and
    a branch ends as soon as the settled neighbours left uncancelled do not
    fit: when only s more fit and k are settled at a position, at least
    k - s must cancel, so its exponent is -(the sum of the others') mod d
    for one of them, and a tight bound fixes it.  At d = 2 all ones is the
    only vector; with no shared neighbour, every vector has the same
    support, and all ones is the least.  The cross-cut test runs only on a
    key that beats the bound, and the least key of each gcd strictly between
    1 and d joins ``parts``.
    """
    spend(sum([len(neighbors[a]) for a in positions]))
    reads = {}  # computational vertex -> indices of its neighbours among the positions
    for i, a in enumerate(positions):
        for b in neighbors[a]:
            reads.setdefault(b, []).append(i)
    fixed = [*positions]
    settled = [[] for _ in positions]  # shared neighbours (vertex, its other readers), by last reader
    for b, idx in reads.items():
        if len(idx) == 1:
            fixed.append(b)
        else:
            settled[idx[-1]].append((b, idx[:-1]))
    if len(fixed) == bound[0] and tuple(sorted(fixed)) > bound[1]:
        return None  # a tight bound leaves the support ``fixed`` alone, which sorts after the best
    w = len(positions)
    values = [1] * w
    best, least = None, {}  # least partial key per gcd
    if d == 2 or not any(settled):  # one vector, or one support for all: all ones is the least
        left = [b for group in settled for b, others in group if (len(others) + 1) % d]
        if len(fixed) + len(left) <= bound[0]:
            best = _score(values, fixed + left, positions, neighbors, side_a, d, bound, least)
    else:
        def descend(i, left):  # exponents from position i on; ``left`` holds the uncancelled settled neighbours
            nonlocal bound, best
            room = bound[0] - len(fixed) - len(left)  # settled neighbours that may stay uncancelled
            cancel = [(b, -sum([values[j] for j in others]) % d) for b, others in settled[i]]  # n_i cancelling b
            for n in range(1, d) if len(cancel) <= room else sorted({n for _, n in cancel} - {0}):
                spend(1 + len(cancel))
                values[i] = n
                kept = left + [b for b, n_b in cancel if n_b != n]
                if len(fixed) + len(kept) > bound[0]:
                    continue
                if i + 1 < w:
                    descend(i + 1, kept)
                    continue
                key = _score(values, fixed + kept, positions, neighbors, side_a, d, bound, least)
                if key:
                    bound = best = key

        descend(0, [])
    parts += [(key, positions, reads.keys(), g) for g, key in least.items()]
    return best


def _score(values, support, positions, neighbors, side_a, d, bound, least):
    """The key of exponents ``values`` acting on ``support``, if it is informative and beats ``bound``.

    A partial key (1 < gcd < d) that beats both ``bound`` and the least one of
    its gcd so far replaces that in ``least`` instead.
    """
    support = tuple(sorted(support))
    key = (len(support), support, tuple(values))
    if key < bound:
        g = _cross_gcd(positions, values, neighbors, side_a, d)
        if g == 1:
            return key
        if g < d and key < least.get(g, bound):
            least[g] = key
    return None


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
    p: float = 0.0,
) -> np.ndarray:
    """P(a, b) for A measuring ``setting_a`` and B ``setting_b``, for each pair, on the graph state of g.

    ``pairs`` lists (setting_a, setting_b); the result is their (k, d, d)
    stack, in that order.  Each table is the 2-D DFT of its
    ``characteristic_table`` over d^2, with no state vector.  One DFT, one
    check and one clip serve the whole stack: round-off entries near -1e-17
    are clipped at 0 before white noise is mixed in.
    """
    chi = np.stack([characteristic_table(g, d, sa, sb, part) for sa, sb in pairs])
    tables = np.fft.fft2(chi).real / d ** 2
    sums = tables.sum(axis=(-2, -1))
    off = np.abs(sums - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"joint distribution sums to {sums[off][0]}")
    if np.min(tables) < -1e-12:
        raise ValueError(f"joint distribution has entry {np.min(tables)} below -1e-12")
    return mix_white_noise(np.clip(tables, 0.0, None), p)
