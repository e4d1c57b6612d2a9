"""Round-based simulation of the dealer/receiver secret-sharing scenario.

Each round both sides pick one of the two settings uniformly at random; only
matched rounds are sifted.  Outcomes are sampled from the exact analytic
joint table of each setting pair (statistically identical to per-round state
collapse, orders of magnitude faster).  The cloner acts on the noiseless
correlation in the effective d-level Schmidt space, no attack being
disturbance 0, and white noise is then mixed into the joint table; the
tables are the closed forms of ``cloner.pair_tables`` in O(d^2), and the
graph state's stabilizer tables and the cloner's explicit state are their
test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cloner import pair_tables, phase_covariant_gamma
from .graphs import Bipartition, Graph
from .infotheory import mutual_information
from .schmidt import mix_white_noise
from .steering import derive_both_settings


class InsufficientData(RuntimeError):
    """A setting has no sifted rounds, so its information cannot be estimated."""


@dataclass(frozen=True)
class ProtocolConfig:
    graph: Graph
    d: int
    part: Bipartition
    noise_p: float = 0.0
    cloner_disturbance: Optional[float] = None
    rounds: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must be in [0, 1]")
        if self.cloner_disturbance is not None:
            upper = (self.d - 1) / self.d
            if not 0.0 <= self.cloner_disturbance <= upper:
                raise ValueError(f"cloner disturbance must be in [0, {upper}]")


JSONL_CHUNK_ROWS = 4096
# Rows of a chunk whose NUL cells one bytes.replace deletes; the pieces are joined.
JSONL_PIECE_ROWS = 512
COUNT_CHUNK_ROUNDS = 1 << 16
# Largest cumulative table that sampling scans entry by entry rather than
# binary-searching: at 64 entries the scan took half the time of
# searchsorted, and they cross near 150 (25k samples, 2-CPU VM).
SCAN_CDF_ENTRIES = 64
_KEYS = (b'{"round": ', b', "ma": ', b', "mb": ', b', "a": ', b', "b": ', b', "sifted": ')
# The first four cells of "false}\n" and of "\0true}\n", indexed by sifted; the NUL
# cell, like every unused leading digit cell, is deleted at the end.
_SIFTED_CELLS = np.frombuffer(b"fals\0tru", dtype=np.uint32)
# ASCII "0000" to "9999", four bytes in one uint32 each: the low four digits of every round number.
_ROUND_DIGITS = (np.arange(10 ** 4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]


@dataclass(frozen=True, eq=False)
class Transcript:
    setting_a: np.ndarray
    setting_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    d: int

    @property
    def sifted(self) -> np.ndarray:
        """The rounds whose two settings match."""
        return self.setting_a == self.setting_b

    def sifted_tables(self) -> np.ndarray:
        """Sifted (a, b) counts of both settings, shape (2, d, d), under one ``bincount`` key.

        Each round is keyed by its setting pair and outcomes in the narrowest
        type that holds the key, and every round is counted, so no mask picks
        out the sifted ones: theirs are the pairs (1, 1) and (2, 2).  The keys
        are counted ``COUNT_CHUNK_ROUNDS`` at a time, so the intp copy that
        ``bincount`` makes stays bounded.
        """
        d = self.d
        key = self.setting_a.astype(np.min_scalar_type(4 * d * d - 1))
        key *= 2
        key += self.setting_b.astype(key.dtype, copy=False)
        key -= 3  # the pairs (1, 1), (1, 2), (2, 1), (2, 2) as 0, 1, 2, 3
        key *= d
        key += self.outcome_a.astype(key.dtype, copy=False)
        key *= d
        key += self.outcome_b.astype(key.dtype, copy=False)
        counts = np.zeros(4 * d * d, dtype=np.intp)
        for start in range(0, len(key), COUNT_CHUNK_ROUNDS):  # bincount widens each slice to intp
            counts += np.bincount(key[start:start + COUNT_CHUNK_ROUNDS], minlength=4 * d * d)
        return counts.reshape(4, d, d)[[0, 3]]

    def to_jsonl(self, stream) -> None:
        """One JSON record per round, in ``json.dumps`` layout, to a binary stream.

        Each chunk is one ``stream.write`` of ASCII bytes.  A chunk holds at
        most ``JSONL_CHUNK_ROWS`` rounds and ends where the round number gains
        a digit, so every record of a chunk has one layout: the round number
        at the chunk's width and the four small columns at their widest in
        the transcript.  Every chunk is formatted in one byte buffer, sized
        for the widest chunk, whose constant cells are written again only
        where the layout changes.
        """
        columns = (self.setting_a, self.setting_b, self.outcome_a, self.outcome_b)
        start, rounds = 0, len(self.setting_a)
        if not rounds:
            return
        widths = [len(str(int(c.max()))) for c in columns]
        buffer = np.empty(min(rounds, JSONL_CHUNK_ROWS) * len(_template(len(str(rounds - 1)), widths)), np.uint8)
        round_width = filled = 0  # the layout in the buffer, and how many rows of it hold its constant cells
        while start < rounds:
            width = len(str(start))
            stop = min(start + JSONL_CHUNK_ROWS, rounds, 10 ** width)
            if width != round_width:
                round_width, filled = width, 0
                template = _template(round_width, widths)
            rows = buffer[:(stop - start) * len(template)].reshape(stop - start, len(template))
            if filled < len(rows):
                rows[filled:] = template
                filled = len(rows)
            chunk = [c[start:stop] for c in columns]
            stream.write(_jsonl_rows(rows, start, chunk, widths))
            start = stop


def _template(round_width: int, widths) -> np.ndarray:
    """The cells of one record whose integer fields have these widths, digit cells NUL."""
    cells = [key + bytes(width) for key, width in zip(_KEYS, [round_width, *widths])]
    return np.frombuffer(b"".join(cells) + _KEYS[-1] + b"false}\n", np.uint8)


def _write_round_numbers(cells: np.ndarray, first_round: int) -> None:
    """Write the round numbers ``first_round, ...``, which share one width, into the rows of ``cells``.

    The low four digits are slices of ``_ROUND_DIGITS``, which wrap to "0000"
    at most once in a chunk; the digits above them are the same text on every
    row up to the wrap and on every row after it.
    """
    rows, width = cells.shape
    assert rows <= len(_ROUND_DIGITS)
    low = first_round % 10 ** 4
    if width < 4:  # rounds 0 to 999
        cells[:] = _ROUND_DIGITS[low:low + rows].view(np.uint8).reshape(rows, 4)[:, 4 - width:]
        return
    wrap = min(rows, 10 ** 4 - low)
    digits = cells[:, -4:].view(np.uint32)[:, 0]  # one 4-byte cell a row, unaligned
    digits[:wrap] = _ROUND_DIGITS[low:low + wrap]
    digits[wrap:] = _ROUND_DIGITS[:rows - wrap]
    if width > 4:
        high = first_round // 10 ** 4
        cells[:wrap, :-4] = np.frombuffer(str(high).encode(), np.uint8)
        if wrap < rows:
            cells[wrap:, :-4] = np.frombuffer(str(high + 1).encode(), np.uint8)


def _jsonl_rows(rows: np.ndarray, first_round: int, columns: list, widths: list) -> bytes:
    """The records of rounds ``first_round, ...``, from ``rows`` whose constant cells are in place.

    Each row of the byte matrix ``rows`` holds one record with every integer
    at its field's width, digits right-aligned; every digit and ``sifted``
    cell is written here, the latter from the two setting columns.  The
    unused leading digit cells and the cell before ``true}`` hold NUL, which
    ``bytes.replace`` deletes, ``JSONL_PIECE_ROWS`` rows at a time.  Reusing the rows of one buffer and
    the small pieces keep the chunk from faulting in fresh pages: a new
    matrix and a chunk-sized copy beside its NUL-free copy made glibc's
    allocator hand back and fault in again some hundred pages a chunk.
    """
    round_width = len(str(first_round))
    col = len(_KEYS[0]) + round_width
    _write_round_numbers(rows[:, col - round_width:col], first_round)
    for key, v, width in zip(_KEYS[1:], columns, widths):
        col += len(key) + width
        for power in range(width):  # last digit first, with v the number // 10**power
            rest = v // 10 if power < width - 1 else None
            char = v + ord("0") if rest is None else v - rest * 10 + ord("0")
            if power:
                char *= v > 0
            rows[:, col - 1 - power] = char
            v = rest
    col += len(_KEYS[-1])
    sifted = columns[0] == columns[1]
    rows[:, col:col + 4].view(np.uint32)[:, 0] = _SIFTED_CELLS.take(sifted.view(np.uint8))
    pieces = range(0, len(rows), JSONL_PIECE_ROWS)
    return b"".join([rows[i:i + JSONL_PIECE_ROWS].tobytes().replace(b"\0", b"") for i in pieces])


@dataclass(frozen=True)
class RateEstimate:
    i_hat_total: float
    i_lower_total: float
    r_hat_lower: float
    sifted_rounds: tuple
    steerable_hat: bool


def setting_pair_tables(cfg: ProtocolConfig) -> np.ndarray:
    """Analytic joint tables of the setting pairs (1, 1), (1, 2), (2, 1), (2, 2), shape (4, d, d).

    The cut's settings are derived first, so an odd cycle or a cut that no
    edge crosses is refused as ``certify`` refuses it.  The tables are
    ``cloner.pair_tables`` at the configured disturbance, no attack being
    D = 0, with white noise mixed in last.
    """
    derive_both_settings(cfg.graph, cfg.d, cfg.part)  # refuses the cuts certify refuses
    tables = pair_tables(phase_covariant_gamma(cfg.cloner_disturbance or 0.0, cfg.d))
    return mix_white_noise(tables, cfg.noise_p)


def _cdf(table: np.ndarray) -> np.ndarray:
    """Cumulative weights of a joint table, built and checked as ``Generator.choice`` does."""
    flat = table.reshape(-1)
    total = flat.sum()
    if not (np.isfinite(flat).all() and (flat >= 0).all() and total > 0):
        raise ValueError("joint table entries must be finite and non-negative with a positive sum")
    cdf = np.cumsum(flat / total)
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")``: how many entries of the sorted ``cdf`` each sample reaches.

    A short table is scanned, one vectorised comparison per entry: no
    data-dependent branch, where the binary search mispredicts on random
    samples.  Its last entry is 1 and every sample is below it.
    """
    if len(cdf) > SCAN_CDF_ENTRIES:
        return cdf.searchsorted(u, side="right")
    index = np.zeros(len(u), dtype=np.uint8)
    for c in cdf[:-1]:
        index += u >= c
    return index


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Simulate all rounds; deterministic for a fixed config (including seed).

    Each setting pair's flat outcome index a*d + b is drawn by searching its
    cumulative table at uniform samples, exactly as ``Generator.choice``
    draws with weights, so the random stream is the one ``choice`` would use.
    Settings and outcomes are stored in the narrowest unsigned type that
    holds 2 and d - 1.
    """
    d = cfg.d
    cdfs = [_cdf(table) for table in setting_pair_tables(cfg)]
    rng = np.random.default_rng(cfg.seed)
    column = np.min_scalar_type(max(2, d - 1))
    ma = rng.integers(1, 3, size=cfg.rounds).astype(column)
    mb = rng.integers(1, 3, size=cfg.rounds).astype(column)
    code = ma * 2 + mb  # 3, 4, 5, 6 in the order of the tables
    flat = np.empty(cfg.rounds, dtype=np.min_scalar_type(d * d - 1))
    for key, cdf in enumerate(cdfs, start=3):
        index = np.flatnonzero(code == key)
        if len(index):
            flat[index] = _draw(cdf, rng.random(len(index)))
    a_out = np.empty(cfg.rounds, dtype=column)
    b_out = np.empty(cfg.rounds, dtype=column)
    # a*d wraps in the column, as d does (256 overflows a uint8), but b = flat - a*d < d fits it, so the wrap cancels
    np.floor_divide(flat, d, out=a_out, casting="unsafe")
    np.multiply(a_out, d & np.iinfo(column).max, out=b_out, casting="unsafe")
    np.subtract(flat, b_out, out=b_out, casting="unsafe")
    return Transcript(setting_a=ma, setting_b=mb, outcome_a=a_out, outcome_b=b_out, d=d)


def estimate_rates(t: Transcript, d: int) -> RateEstimate:
    """Plug-in mutual-information estimate from sifted empirical frequencies, and its bias-bounded part.

    The plug-in estimate of one setting's information over n rounds and d^2
    cells is biased upward by at most log2(1 + (d^2 - 1)/n) (Paninski 2003),
    so ``i_lower_total`` subtracts that from each setting; the verdict and
    the key rate read it, not the plug-in ``i_hat_total``.  ``d`` must be the
    transcript's own.
    """
    if d != t.d:
        raise ValueError(f"d {d} does not match the transcript's d {t.d}")
    counts = t.sifted_tables()
    rounds = tuple(counts.sum(axis=(1, 2)).tolist())
    for m, total in enumerate(rounds, start=1):
        if total == 0:
            raise InsufficientData(f"no sifted rounds for setting m={m}")
    i_hat = sum(mutual_information(table / total) for table, total in zip(counts, rounds))
    i_lower = i_hat - sum(np.log2(1.0 + (d * d - 1) / np.array(rounds)).tolist())
    threshold = float(np.log2(d))
    return RateEstimate(
        i_hat_total=i_hat,
        i_lower_total=i_lower,
        r_hat_lower=max(0.0, i_lower - threshold),
        sifted_rounds=rounds,
        steerable_hat=i_lower > threshold,
    )
