"""Round-based simulation of the dealer/receiver secret-sharing scenario.

Each round both sides pick one of the two settings uniformly at random; only
matched rounds are sifted.  Outcomes are sampled from the exact analytic
joint table of each setting pair (statistically identical to per-round state
collapse, orders of magnitude faster).  With a cloner present, the attack
acts on the noiseless correlation in the effective d-level Schmidt space and
white noise is then mixed into the joint table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cloner import cloner_output, measured_joint, phase_covariant_gamma
from .graphs import Bipartition, Graph, two_color
from .infotheory import mutual_information
from .registers import QuditRegister
from .schmidt import mix_white_noise, stabilizer_table
from .steering import checked_settings


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
COUNT_CHUNK_ROUNDS = 1 << 16
_KEYS = [
    np.frombuffer(text, dtype=np.uint8)
    for text in (b'{"round": ', b', "ma": ', b', "mb": ', b', "a": ', b', "b": ', b', "sifted": ')
]
# indexed by sifted; the NUL cell, like every unused leading digit cell, is deleted at the end
_ENDS = np.frombuffer(b"false}\n\0true}\n", dtype=np.uint8).reshape(2, -1)


@dataclass(frozen=True, eq=False)
class Transcript:
    setting_a: np.ndarray
    setting_b: np.ndarray
    outcome_a: np.ndarray
    outcome_b: np.ndarray
    sifted: np.ndarray
    d: int

    def sifted_counts(self, m: int) -> np.ndarray:
        """d x d table of sifted (a, b) counts for setting m."""
        if m not in (1, 2):
            raise ValueError(f"setting must be 1 or 2, got {m}")
        return self.sifted_tables()[m - 1]

    def sifted_tables(self) -> np.ndarray:
        """Sifted (a, b) counts of both settings, shape (2, d, d), under one ``bincount`` key.

        Sifted rounds have equal settings, so each round is keyed by
        ``(setting_a - 1, a, b)`` in the narrowest type that holds the key;
        the sifted keys are counted ``COUNT_CHUNK_ROUNDS`` at a time, so the
        intp copy that ``bincount`` makes stays bounded.
        """
        d = self.d
        key = self.setting_a.astype(np.min_scalar_type(2 * d * d - 1))
        key -= 1
        key *= d
        key += self.outcome_a.astype(key.dtype, copy=False)
        key *= d
        key += self.outcome_b.astype(key.dtype, copy=False)
        key = key[self.sifted]
        counts = np.zeros(2 * d * d, dtype=np.intp)
        for start in range(0, len(key), COUNT_CHUNK_ROUNDS):  # bincount widens each slice to intp
            counts += np.bincount(key[start:start + COUNT_CHUNK_ROUNDS], minlength=2 * d * d)
        return counts.reshape(2, d, d)

    def to_jsonl(self, stream) -> None:
        """One JSON record per round, in ``json.dumps`` layout, one ``stream.write`` per chunk.

        A chunk holds at most ``JSONL_CHUNK_ROWS`` rounds and ends where the
        round number gains a digit.
        """
        columns = (self.setting_a, self.setting_b, self.outcome_a, self.outcome_b)
        start, rounds = 0, len(self.sifted)
        while start < rounds:
            stop = min(start + JSONL_CHUNK_ROWS, rounds, 10 ** len(str(start)))
            stream.write(_jsonl_rows(start, [c[start:stop] for c in columns], self.sifted[start:stop]))
            start = stop


def _jsonl_rows(first_round: int, columns: list, sifted: np.ndarray) -> str:
    """The records of rounds ``first_round, ...``, whose round numbers share one width.

    Each row of a byte matrix holds one record with every integer at the
    widest width of its field in the chunk, digits right-aligned.  The unused
    leading digit cells and the cell before ``true}`` hold NUL, which one
    ``bytes.replace`` deletes.
    """
    last_round = first_round + len(sifted) - 1
    values = [np.arange(first_round, last_round + 1, dtype=np.min_scalar_type(last_round)), *columns]
    widths = [len(str(int(v.max()))) for v in values]
    template = np.concatenate(
        [np.concatenate([key, np.zeros(width, np.uint8)]) for key, width in zip(_KEYS, widths)]
        + [_KEYS[-1], _ENDS[0]]
    )
    rows = np.tile(template, (len(sifted), 1))
    col = 0
    for field, (key, v, width) in enumerate(zip(_KEYS, values, widths)):
        col += len(key) + width
        for power in range(width):  # last digit first, with v the number // 10**power
            rest = v // 10 if power < width - 1 else None
            char = v + ord("0") if rest is None else v - rest * 10 + ord("0")
            if power and field:  # field 0, the round number, has the same width on every row
                char *= v > 0
            rows[:, col - 1 - power] = char
            v = rest
    col += len(_KEYS[-1])
    rows[sifted, col:] = _ENDS[1]
    return rows.tobytes().replace(b"\0", b"").decode("ascii")


@dataclass(frozen=True)
class RateEstimate:
    i_hat_total: float
    r_hat_lower: float
    sifted_rounds: tuple
    steerable_hat: bool


_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def setting_pair_tables(cfg: ProtocolConfig) -> dict:
    """Analytic joint table for every (m_a, m_b) pair under the configured model."""
    tables = {}
    if cfg.cloner_disturbance is None:
        settings = checked_settings(cfg.graph, cfg.d, cfg.part)
        for ma, mb in _PAIRS:
            tables[(ma, mb)] = stabilizer_table(
                cfg.graph, cfg.d, settings[ma - 1], settings[mb - 1], cfg.part, cfg.noise_p
            )
    else:
        two_color(cfg.graph)  # the attacked settings exist only on two-colorable graphs
        QuditRegister(4, cfg.d)  # the cloner's registers, refused before the d x d gamma table
        output = cloner_output(phase_covariant_gamma(cfg.cloner_disturbance, cfg.d))
        for ma, mb in _PAIRS:
            tables[(ma, mb)] = mix_white_noise(measured_joint(output, ma, mb), cfg.noise_p)
    return tables


def _cdf(table: np.ndarray) -> np.ndarray:
    """Cumulative weights of a joint table, built and checked as ``Generator.choice`` does."""
    flat = table.reshape(-1)
    total = flat.sum()
    if not (np.isfinite(flat).all() and (flat >= 0).all() and total > 0):
        raise ValueError("joint table entries must be finite and non-negative with a positive sum")
    cdf = np.cumsum(flat / total)
    cdf /= cdf[-1]
    return cdf


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Simulate all rounds; deterministic for a fixed config (including seed).

    Each setting pair's flat outcome index a*d + b is drawn by searching its
    cumulative table at uniform samples, exactly as ``Generator.choice``
    draws with weights, so the random stream is the one ``choice`` would use.
    Settings and outcomes are stored in the narrowest unsigned type that
    holds 2 and d - 1.
    """
    d = cfg.d
    tables = setting_pair_tables(cfg)
    cdfs = [_cdf(tables[pair]) for pair in _PAIRS]
    rng = np.random.default_rng(cfg.seed)
    column = np.min_scalar_type(max(2, d - 1))
    ma = rng.integers(1, 3, size=cfg.rounds).astype(column)
    mb = rng.integers(1, 3, size=cfg.rounds).astype(column)
    code = ma * 2 + mb  # 3, 4, 5, 6 in the order of _PAIRS
    flat = np.empty(cfg.rounds, dtype=np.min_scalar_type(d * d - 1))
    for key, cdf in enumerate(cdfs, start=3):
        mask = code == key
        count = np.count_nonzero(mask)
        if count:
            flat[mask] = cdf.searchsorted(rng.random(count), side="right")
    a_out = np.empty(cfg.rounds, dtype=column)
    b_out = np.empty(cfg.rounds, dtype=column)
    np.divmod(flat, d, out=(a_out, b_out))
    return Transcript(
        setting_a=ma,
        setting_b=mb,
        outcome_a=a_out,
        outcome_b=b_out,
        sifted=ma == mb,
        d=d,
    )


def estimate_rates(t: Transcript, d: int) -> RateEstimate:
    """Plug-in mutual-information estimate from sifted empirical frequencies."""
    i_hat = 0.0
    rounds = []
    for m, counts in enumerate(t.sifted_tables(), start=1):
        total = int(counts.sum())
        if total == 0:
            raise InsufficientData(f"no sifted rounds for setting m={m}")
        rounds.append(total)
        i_hat += mutual_information(counts / total)
    threshold = float(np.log2(d))
    return RateEstimate(
        i_hat_total=float(i_hat),
        r_hat_lower=max(0.0, i_hat - threshold),
        sifted_rounds=tuple(rounds),
        steerable_hat=i_hat > threshold,
    )
