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
        counts = np.zeros((self.d, self.d), dtype=np.int64)
        np.add.at(counts, (self.outcome_a[mask], self.outcome_b[mask]), 1)
        return counts

    def to_jsonl(self, stream) -> None:
        """One JSON record per round, in ``json.dumps`` layout."""
        columns = (self.setting_a, self.setting_b, self.outcome_a, self.outcome_b, self.sifted)
        stream.writelines(
            f'{{"round": {k}, "ma": {ma}, "mb": {mb}, "a": {a}, "b": {b}, '
            f'"sifted": {"true" if s else "false"}}}\n'
            for k, (ma, mb, a, b, s) in enumerate(zip(*(c.tolist() for c in columns)))
        )


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
    """Simulate all rounds; deterministic for a fixed config (including seed)."""
    tables = setting_pair_tables(cfg)
    rng = np.random.default_rng(cfg.seed)
    ma = rng.integers(1, 3, size=cfg.rounds)
    mb = rng.integers(1, 3, size=cfg.rounds)
    a_out = np.zeros(cfg.rounds, dtype=np.int64)
    b_out = np.zeros(cfg.rounds, dtype=np.int64)
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
