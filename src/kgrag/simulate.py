"""Black-box combinatorial search over a sparse hidden oracle set.

A reward function evaluates how well a drawn subset matches an unknown oracle subset
of a size-N universe. The randomized search draws uniform size-S subsets,
accepts a draw when its normalized reward strictly exceeds a threshold, and
unions accepted draws until the oracle set is covered. The exact acceptance
probability of a single draw follows a hypergeometric tail, which this module
also computes in closed form for comparison against simulation.
"""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .config import json_field, read_json

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OracleInstance:
    universe_size: int
    oracle_set: frozenset[int]
    s0: float = 1.0
    delta0: float = 0.0

    def __post_init__(self):
        if self.universe_size < 1:
            raise ValueError("universe_size must be >= 1")
        if not self.oracle_set:
            raise ValueError("oracle set must be nonempty")
        if any(i < 0 or i >= self.universe_size for i in self.oracle_set):
            raise ValueError("oracle items must lie in [0, universe_size)")
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        if self.delta0 < 0:
            raise ValueError("delta0 must be non-negative")
        if len(self.oracle_set) > self.universe_size // 10:
            logger.warning(
                "oracle set of %d is not sparse relative to universe %d",
                len(self.oracle_set),
                self.universe_size,
            )

    @property
    def k(self) -> int:
        return len(self.oracle_set)


@dataclass(frozen=True)
class SearchConfig:
    subset_size: int
    threshold: float
    max_rounds: int
    seed: int = 42

    def __post_init__(self):
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class SearchTrace:
    rounds_executed: int
    accepted_rounds: int
    recovered: bool
    accepted_rewards: list[float] = field(default_factory=list)  # one per accepted round
    final_set: frozenset[int] = frozenset()


def count_reward(count, size: int, inst: OracleInstance):
    """Draw-normalized reward of a size-``size`` draw holding ``count`` oracle items.

    ``(count s0 − (size − count) δ0) / (size s0)``; ``count`` may be an integer array.
    """
    return (count * inst.s0 - (size - count) * inst.delta0) / (size * inst.s0)


def universe_reward(inst: OracleInstance) -> float:
    """Draw-normalized reward of the whole universe (r0)."""
    return count_reward(inst.k, inst.universe_size, inst)


@functools.lru_cache(maxsize=32)
def _acceptance_law(
    inst: OracleInstance, size: int, threshold: float
) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """The one acceptance rule: a draw holding ``c`` oracle items is accepted iff
    ``count_reward(c, size, inst) > threshold``. Returns the accepted counts (a tail of the
    support, since the reward rises with ``c``), their cumulative hypergeometric distribution
    given acceptance, and the probability ``p`` that a draw is accepted, the tail's mass."""
    n, k = inst.universe_size, inst.k
    if size > n:
        raise ValueError("subset_size cannot exceed the universe size")
    support = range(max(0, size - (n - k)), min(k, size) + 1)
    counts = tuple(c for c in support if count_reward(c, size, inst) > threshold)
    cumulative = list(itertools.accumulate(math.comb(k, c) * math.comb(n - k, size - c) for c in counts))
    cdf = tuple(weight / cumulative[-1] for weight in cumulative)
    return counts, cdf, hypergeometric_tail(n, k, size, counts[0]) if counts else 0.0


@functools.lru_cache(maxsize=32)
def _items(inst: OracleInstance) -> tuple[np.ndarray, np.ndarray]:
    """The oracle items and the other items of the universe, each ascending and read-only."""
    oracle = np.array(sorted(inst.oracle_set))
    others = np.delete(np.arange(inst.universe_size), oracle)
    oracle.flags.writeable = others.flags.writeable = False
    return oracle, others


def run_subset_search(
    inst: OracleInstance,
    cfg: SearchConfig,
    seed: int | Sequence[int] | None = None,
) -> SearchTrace:
    """Uniform size-S draws, strict-threshold acceptance, union until covered.

    A rejected round changes nothing but the round counter, so the search jumps
    from one accepted round to the next by a geometric gap, draws that round's
    oracle count from the hypergeometric law given acceptance, and materialises
    it as uniform subsets of that many oracle items and of the rest. A search
    that can accept no count returns ``max_rounds`` without drawing. The trace is
    fully determined by the seed (``cfg.seed`` unless overridden).
    """
    counts, cdf, p = _acceptance_law(inst, cfg.subset_size, cfg.threshold)
    if p == 0.0:
        return SearchTrace(cfg.max_rounds, 0, False)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    oracle, others = _items(inst)
    identified = np.zeros(inst.universe_size, dtype=bool)
    rewards: list[float] = []
    rounds, recovered = 0, False
    while not recovered:
        rounds += int(rng.geometric(p))
        if rounds > cfg.max_rounds:
            rounds = cfg.max_rounds
            break
        count = counts[bisect.bisect_right(cdf, rng.random())]
        rewards.append(count_reward(count, cfg.subset_size, inst))
        identified[oracle[rng.choice(inst.k, size=count, replace=False)]] = True
        identified[others[rng.choice(len(others), size=cfg.subset_size - count, replace=False)]] = True
        recovered = bool(identified[oracle].all())
    final_set = frozenset(np.flatnonzero(identified).tolist())
    return SearchTrace(rounds, len(rewards), recovered, rewards, final_set)


def hypergeometric_tail(n: int, k: int, s: int, min_count: int) -> float:
    """P(X >= min_count) for X ~ Hypergeometric(n, k, s), exact.

    Terms are exact integer binomials summed before a single division, so the
    result is correct to float rounding.
    """
    if not (0 <= k <= n and 0 <= s <= n):
        raise ValueError("need 0 <= k <= n and 0 <= s <= n")
    if min_count <= max(0, s - (n - k)):
        return 1.0
    if min_count > min(k, s):
        return 0.0
    numerator = sum(
        math.comb(k, i) * math.comb(n - k, s - i) for i in range(min_count, min(k, s) + 1)
    )
    return numerator / math.comb(n, s)


def acceptance_probability(inst: OracleInstance, cfg: SearchConfig) -> float:
    """Closed-form probability that one uniform draw is accepted.

    It is the hypergeometric tail over the counts the search accepts, so it is
    the very ``p`` that :func:`run_subset_search` draws its gaps with.
    """
    return _acceptance_law(inst, cfg.subset_size, cfg.threshold)[2]


@dataclass(frozen=True)
class RecoverySummary:
    trials: int
    recovered_trials: int
    mean_rounds: float
    median_rounds: float
    quantiles: dict[str, float]
    acceptance_rate: float
    rounds_per_trial: tuple[int, ...]


def estimate_recovery_rounds(inst: OracleInstance, cfg: SearchConfig, trials: int) -> RecoverySummary:
    """Monte-Carlo rounds-to-recovery statistics over independent trials.

    Each trial runs with a generator derived from (base seed, trial index) so
    parallel and serial execution agree. Unrecovered trials count at
    max_rounds (censored). The aggregate acceptance rate over all executed
    rounds is reported for comparison with the closed-form tail.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (r0 := universe_reward(inst)) < cfg.threshold < 1.0:
        unanalyzed = "threshold %.3f outside the analyzed range (%.3f, 1); the search still runs but may never accept"
        logger.warning(unanalyzed, cfg.threshold, r0)
    rounds_per_trial, recovered, accepted = [], 0, 0
    for trial in range(trials):
        trace = run_subset_search(inst, cfg, seed=[cfg.seed, trial])
        rounds_per_trial.append(trace.rounds_executed)
        recovered += int(trace.recovered)
        accepted += trace.accepted_rounds
    arr = np.array(rounds_per_trial, dtype=np.float64)
    quantiles = {f"p{q}": float(np.quantile(arr, q / 100.0)) for q in (10, 25, 75, 90)}
    return RecoverySummary(
        trials=trials,
        recovered_trials=recovered,
        mean_rounds=float(arr.mean()),
        median_rounds=float(np.median(arr)),
        quantiles=quantiles,
        acceptance_rate=accepted / sum(rounds_per_trial),
        rounds_per_trial=tuple(rounds_per_trial),
    )


# -- experiment config / output -------------------------------------------------


def load_experiment(path: str | Path) -> tuple[OracleInstance, SearchConfig, int]:
    """Experiment JSON {N, K, s0, delta0, S, threshold, max_rounds, trials, seed}.

    The oracle set is the first K item ids; by symmetry of uniform draws any
    other choice gives the same law. A file that cannot be read, a missing or
    wrong-typed field, or a value out of range raises :class:`ConfigError`
    naming the file and the field.
    """
    return read_json(path, "experiment", _experiment)


def _experiment(raw: dict) -> tuple[OracleInstance, SearchConfig, int]:
    n, k, size = (json_field(raw, key, int) for key in ("N", "K", "S"))
    trials = json_field(raw, "trials", int, 100)
    seed = json_field(raw, "seed", int, 42)
    for key, value, low, high in (
        ("K", k, 1, n), ("S", size, 1, n), ("trials", trials, 1, math.inf), ("seed", seed, 0, math.inf)
    ):
        if not low <= value <= high:
            raise ValueError(f"{key} must lie in [{low}, {high}], got {value}")
    inst = OracleInstance(
        universe_size=n,
        oracle_set=frozenset(range(k)),
        s0=json_field(raw, "s0", float, 1.0),
        delta0=json_field(raw, "delta0", float, 0.0),
    )
    cfg = SearchConfig(
        subset_size=size,
        threshold=json_field(raw, "threshold", float),
        max_rounds=json_field(raw, "max_rounds", int, 10000),
        seed=seed,
    )
    return inst, cfg, trials


def write_trials_csv(summary: RecoverySummary, sink: IO[str]) -> None:
    writer = csv.writer(sink)
    writer.writerow(["trial", "rounds"])
    for trial, rounds in enumerate(summary.rounds_per_trial):
        writer.writerow([trial, rounds])


def write_summary_json(
    summary: RecoverySummary, inst: OracleInstance, cfg: SearchConfig, sink: IO[str]
) -> None:
    payload = {
        "config": {
            "N": inst.universe_size,
            "K": inst.k,
            "s0": inst.s0,
            "delta0": inst.delta0,
            "S": cfg.subset_size,
            "threshold": cfg.threshold,
            "max_rounds": cfg.max_rounds,
            "seed": cfg.seed,
        },
        "closed_form_acceptance": acceptance_probability(inst, cfg),
        **{key: value for key, value in asdict(summary).items() if key != "rounds_per_trial"},
    }
    json.dump(payload, sink, sort_keys=True, indent=2)
    sink.write("\n")
