"""Slow references for the fast production paths.

The state-vector oracle for the closed-form outcome tables (16 d^N bytes:
small N only), the characteristic function built one d x d array per edge,
one table at a time through the DFT, the entropies and the key-rate scan,
the edge-scanning two-coloring, the per-record transcript writer, the
``Generator.choice`` sampler and masked counts of the protocol simulation,
and the partial trace of a density operator.
"""

import json
from collections import deque

import numpy as np

from graphsteering import protocol
from graphsteering.graphs import NotTwoColorable, TwoColoring, _odd_cycle
from graphsteering.registers import DensityOperator, QuditRegister
from graphsteering.schmidt import FOURIER, _surjective, mix_white_noise
from graphsteering.steering import derive_both_settings


def _form_values(coeffs, d: int) -> np.ndarray:
    """c.x mod d for every x in Z_d^k, as an array of shape (d,) * k."""
    values = np.zeros((), dtype=np.intp)
    for c in coeffs:
        values = np.add.outer(values, c * np.arange(d)) % d
    return values


def outcome_table(psi, setting_a, setting_b, part, p: float = 0.0) -> np.ndarray:
    """P(a, b) for A measuring ``setting_a`` and B ``setting_b``, from the amplitudes.

    The conjugate Fourier matrix (numpy's orthonormal DFT) is applied on the
    Fourier-measured axes that a form reads; axes no form reads are summed out
    in any basis.  The squared moduli are then binned by
    (fa.x_A mod d, fb.x_B mod d), and white noise is mixed in closed form.
    """
    d = psi.register.local_dim
    a_vertices, b_vertices = tuple(sorted(part.side_a)), tuple(sorted(part.side_b))
    if setting_a.a_vertices != a_vertices or setting_b.b_vertices != b_vertices:
        raise ValueError("setting vertices do not match the bipartition")
    if not (_surjective(setting_a.fa_coeffs, d) and _surjective(setting_b.fb_coeffs, d)):
        raise ValueError("correlation forms must be surjective onto Z_d")
    coeff_a = dict(zip(a_vertices, setting_a.fa_coeffs))
    coeff_b = dict(zip(b_vertices, setting_b.fb_coeffs))
    bases = {v: setting_a.local_bases[v] for v in a_vertices}
    bases.update({v: setting_b.local_bases[v] for v in b_vertices})
    read = [v for v in range(1, psi.register.n_qudits + 1) if coeff_a.get(v) or coeff_b.get(v)]

    amps = psi.amplitudes.reshape((d,) * psi.register.n_qudits)
    fourier_axes = [v - 1 for v in read if bases[v] == FOURIER]
    if fourier_axes:
        amps = np.fft.fftn(amps, axes=fourier_axes, norm="ortho")
    probs = amps.real ** 2 + amps.imag ** 2
    unread = tuple(v - 1 for v in range(1, psi.register.n_qudits + 1) if v not in read)
    probs = probs.sum(axis=unread)

    index = _form_values([coeff_a.get(v, 0) for v in read], d) * d
    index = index + _form_values([coeff_b.get(v, 0) for v in read], d)
    table = np.bincount(index.reshape(-1), weights=probs.reshape(-1), minlength=d * d)
    if abs(table.sum() - 1.0) > 1e-10:
        raise ValueError(f"joint distribution sums to {table.sum()}")
    return mix_white_noise(table.reshape(d, d), p)


def edge_characteristic_table(g, d: int, setting_a, setting_b, part) -> np.ndarray:
    """``schmidt.characteristic_table`` with every residual and q(u) kept as d x d arrays.

    Each e_v is the array c s or c t, and every edge adds one array to a
    residual, and one more to q where it joins two Fourier reads.
    """
    a_vertices, b_vertices = tuple(sorted(part.side_a)), tuple(sorted(part.side_b))
    if setting_a.a_vertices != a_vertices or setting_b.b_vertices != b_vertices:
        raise ValueError("setting vertices do not match the bipartition")
    if not (_surjective(setting_a.fa_coeffs, d) and _surjective(setting_b.fb_coeffs, d)):
        raise ValueError("correlation forms must be surjective onto Z_d")
    s, t = np.indices((d, d))
    fourier, residual = {}, {}
    for setting, vertices, coeffs, var in (
        (setting_a, a_vertices, setting_a.fa_coeffs, s),
        (setting_b, b_vertices, setting_b.fb_coeffs, t),
    ):
        for v, c in zip(vertices, coeffs):
            if c % d:
                (fourier if setting.local_bases[v] == FOURIER else residual)[v] = c * var
    q = 0
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


def pair_table(g, d: int, setting_a, setting_b, part, p: float = 0.0) -> np.ndarray:
    """One pair's joint table: its own DFT, checks, clip and noise mix."""
    table = np.fft.fft2(edge_characteristic_table(g, d, setting_a, setting_b, part)).real / d ** 2
    if abs(table.sum() - 1.0) > 1e-10:
        raise ValueError(f"joint distribution sums to {table.sum()}")
    if np.min(table) < -1e-12:
        raise ValueError(f"joint distribution has entry {np.min(table)} below -1e-12")
    return mix_white_noise(np.clip(table, 0.0, None), p)


def entropy(p) -> float:
    """-sum p log2 p over the positive entries of one table."""
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def table_mutual_information(joint) -> float:
    """I(A;B) of one 2-D table: checked, clipped, then H(A) + H(B) - H(A,B)."""
    joint = np.asarray(joint, dtype=float)
    if np.min(joint) < -1e-12 or abs(joint.sum() - 1.0) > 1e-10:
        raise ValueError("not a probability table")
    joint = np.clip(joint, 0.0, None)
    return entropy(joint.sum(axis=1)) + entropy(joint.sum(axis=0)) - entropy(joint)


def key_rate_rows(g, d: int, part, p_grid) -> list:
    """(p, i_total, r_lower) one noise level and one table at a time."""
    tables = [pair_table(g, d, s, s, part) for s in derive_both_settings(g, d, part)]
    threshold = float(np.log2(d))
    rows = []
    for p in p_grid:
        i_total = float(sum(table_mutual_information(mix_white_noise(t, p)) for t in tables))
        rows.append((float(p), i_total, max(0.0, i_total - threshold)))
    return rows


def edge_scan_two_color(g) -> TwoColoring:
    """BFS two-coloring that finds each vertex's neighbours by scanning every edge."""
    colors, parent = {}, {}
    for root in range(1, g.n_vertices + 1):
        if root in colors:
            continue
        colors[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(j if i == v else i for i, j in g.edges if v in (i, j)):
                if w not in colors:
                    colors[w] = 1 - colors[v]
                    parent[w] = v
                    queue.append(w)
                elif colors[w] == colors[v]:
                    raise NotTwoColorable(_odd_cycle(parent, v, w))
    return TwoColoring(colors)


def jsonl_by_record(t) -> str:
    """The transcript as ``json.dumps`` of one dict per round."""
    columns = (t.setting_a, t.setting_b, t.outcome_a, t.outcome_b, t.sifted)
    return "".join(
        json.dumps({"round": k, "ma": ma, "mb": mb, "a": a, "b": b, "sifted": s}) + "\n"
        for k, (ma, mb, a, b, s) in enumerate(zip(*(c.tolist() for c in columns)))
    )


def choice_by_pair(cfg) -> protocol.Transcript:
    """``run_protocol`` drawn with one ``rng.choice`` per setting pair and a boolean scatter per column."""
    tables = protocol.setting_pair_tables(cfg)
    rng = np.random.default_rng(cfg.seed)
    column = np.min_scalar_type(max(2, cfg.d - 1))
    ma = rng.integers(1, 3, size=cfg.rounds).astype(column)
    mb = rng.integers(1, 3, size=cfg.rounds).astype(column)
    a_out = np.zeros(cfg.rounds, dtype=column)
    b_out = np.zeros(cfg.rounds, dtype=column)
    for pair in ((1, 1), (1, 2), (2, 1), (2, 2)):
        mask = (ma == pair[0]) & (mb == pair[1])
        count = int(mask.sum())
        if count == 0:
            continue
        flat = tables[pair].reshape(-1)
        draws = rng.choice(len(flat), size=count, p=flat / flat.sum())
        a_out[mask] = draws // cfg.d
        b_out[mask] = draws % cfg.d
    return protocol.Transcript(
        setting_a=ma, setting_b=mb, outcome_a=a_out, outcome_b=b_out, sifted=ma == mb, d=cfg.d
    )


def masked_counts(t, m: int) -> np.ndarray:
    """d x d table of sifted (a, b) counts for setting m, from one mask per setting."""
    mask = t.sifted & (t.setting_a == m)
    flat = t.outcome_a[mask].astype(np.intp) * t.d + t.outcome_b[mask]
    return np.bincount(flat, minlength=t.d * t.d).reshape(t.d, t.d)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced density operator on the 1-indexed qudits in ``keep``."""
    keep = sorted(set(keep))
    n, d = rho.register.n_qudits, rho.register.local_dim
    if not keep:
        raise ValueError("keep set must be non-empty")
    if any(not 1 <= q <= n for q in keep):
        raise ValueError(f"keep set {keep} has out-of-range qudit indices")
    tensor = rho.matrix.reshape([d] * (2 * n))
    # Row axis of qudit q is q-1, column axis is n+q-1; traced qudits share a label.
    row_labels = {}
    col_labels = {}
    next_label = 0
    for q in range(1, n + 1):
        if q in keep:
            row_labels[q] = next_label
            col_labels[q] = next_label + 1
            next_label += 2
        else:
            row_labels[q] = col_labels[q] = next_label
            next_label += 1
    subscripts = [row_labels[q] for q in range(1, n + 1)] + [col_labels[q] for q in range(1, n + 1)]
    out = [row_labels[q] for q in keep] + [col_labels[q] for q in keep]
    reduced = np.einsum(tensor, subscripts, out)
    dim_keep = d ** len(keep)
    return DensityOperator(QuditRegister(len(keep), d), reduced.reshape(dim_keep, dim_keep))
