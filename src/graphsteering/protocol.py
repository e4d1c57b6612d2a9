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
_KEYS = [
    np.frombuffer(text, dtype=np.uint8)
    for text in (b'{"round": ', b', "ma": ', b', "mb": ', b', "a": ', b', "b": ', b', "sifted": ')
]
_ENDS = np.frombuffer(b"false}\n true}\n", dtype=np.uint8).reshape(2, -1)  # indexed by sifted


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
        mask = self.sifted & (self.setting_a == m)
        flat = self.outcome_a[mask].astype(np.intp) * self.d + self.outcome_b[mask]
        return np.bincount(flat, minlength=self.d * self.d).reshape(self.d, self.d)

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
    widest width of its field in the chunk, digits right-aligned; one boolean
    mask then drops the unused leading digit cells and the cell before
    ``true}``.
    """
    values = [np.arange(first_round, first_round + len(sifted)), *columns]
    widths = [len(str(int(v.max()))) for v in values]
    template = np.concatenate(
        [np.concatenate([key, np.zeros(width, np.uint8)]) for key, width in zip(_KEYS, widths)]
        + [_KEYS[-1], _ENDS[0]]
    )
    rows = np.tile(template, (len(sifted), 1))
    keep = np.ones(rows.shape, dtype=bool)
    col = 0
    for field, (key, v, width) in enumerate(zip(_KEYS, values, widths)):
        col += len(key)
        for power in range(width - 1, -1, -1):
            rows[:, col] = v // 10 ** power % 10 + ord("0")
            if power and field:  # field 0, the round number, has the same width on every row
                keep[:, col] = v >= 10 ** power
            col += 1
    col += len(_KEYS[-1])
    rows[:, col:] = _ENDS[sifted.view(np.uint8)]
    keep[:, col] = ~sifted
    return rows[keep].tobytes().decode("ascii")


@dataclass(frozen=True)
class RateEstimate:
    i_hat_total: float
    r_hat_lower: float
    sifted_rounds: tuple
    steerable_hat: bool


def setting_pair_tables(cfg: ProtocolConfig) -> dict:
    """Analytic joint table for every (m_a, m_b) pair under the configured model."""
    tables = {}
    if cfg.cloner_disturbance is None:
        settings = checked_settings(cfg.graph, cfg.d, cfg.part)
        for ma in (1, 2):
            for mb in (1, 2):
                tables[(ma, mb)] = stabilizer_table(
                    cfg.graph, cfg.d, settings[ma - 1], settings[mb - 1], cfg.part, cfg.noise_p
                )
    else:
        two_color(cfg.graph)  # the attacked settings exist only on two-colorable graphs
        QuditRegister(4, cfg.d)  # the cloner's registers, refused before the d x d gamma table
        output = cloner_output(phase_covariant_gamma(cfg.cloner_disturbance, cfg.d))
        for ma in (1, 2):
            for mb in (1, 2):
                tables[(ma, mb)] = mix_white_noise(
                    measured_joint(output, ma, mb), cfg.noise_p
                )
    return tables


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Simulate all rounds; deterministic for a fixed config (including seed).

    Settings and outcomes are stored in the narrowest unsigned type that holds
    2 and d - 1; the draws themselves are made as before, so the random
    stream, and hence the transcript, does not depend on that type.
    """
    tables = setting_pair_tables(cfg)
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
    return Transcript(
        setting_a=ma,
        setting_b=mb,
        outcome_a=a_out,
        outcome_b=b_out,
        sifted=ma == mb,
        d=cfg.d,
    )


def estimate_rates(t: Transcript, d: int) -> RateEstimate:
    """Plug-in mutual-information estimate from sifted empirical frequencies."""
    from .infotheory import mutual_information

    i_hat = 0.0
    rounds = []
    for m in (1, 2):
        counts = t.sifted_counts(m)
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
