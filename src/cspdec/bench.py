"""Experiment sweeps and the abstract walltime model.

Sweeps replay full speculative generation over an axis (draft length,
pre-fill ratio, or temperature) with replicate-derived seeds and aggregate
acceptance, resampling effort, and tokens per step.  Wall-clock speedup is
modeled abstractly: one unit per target chain step, ``cost_ratio`` units per
draft chain step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .autoregressive import Model
from .engine import RunStats, SpecDecodeConfig
from .oracle import empirical_acceptance
from .parallel import run_replicates
from .rng import replicate_seed

_AXIS_TAGS = {"gamma": 31, "prefill": 37, "temperature": 41}


def expected_speedup(alpha: float, gamma: int, cost_ratio: float) -> float:
    """Expected walltime improvement ``(1 - a^(g+1)) / ((1 - a)(g*c + 1))``.

    ``alpha`` is the per-draft acceptance probability, ``gamma`` the draft
    length, and ``cost_ratio`` the draft/target per-token cost ratio.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if cost_ratio < 0.0:
        raise ValueError("cost_ratio must be nonnegative")
    return (1.0 - alpha ** (gamma + 1)) / ((1.0 - alpha) * (gamma * cost_ratio + 1.0))


@dataclass(frozen=True)
class SweepPoint:
    """Aggregates for one axis value."""

    axis_value: float
    mean_alpha: float | None
    stderr_alpha: float | None
    mean_alpha_examined: float | None
    mean_trials: float | None
    tokens_per_step: float | None
    per_position_alpha: dict[int, float]
    stats: tuple[RunStats, ...]


@dataclass(frozen=True)
class SweepResult:
    axis: str
    replicates: int
    seed: int
    points: tuple[SweepPoint, ...]

    def csv_rows(self) -> list[dict]:
        rows = []
        for pt in self.points:
            rows.append(
                {
                    "axis_value": pt.axis_value,
                    "mean_alpha": pt.mean_alpha,
                    "stderr_alpha": pt.stderr_alpha,
                    "mean_trials": pt.mean_trials,
                    "tokens_per_step": pt.tokens_per_step,
                }
            )
        return rows


def tokens_per_step(stats: RunStats) -> float | None:
    """Tokens appended per speculative step (pre-filled tokens excluded)."""
    if not stats.step_accepted:
        return None
    produced = sum(1 for o in stats.origins if o != "prefilled")
    return produced / len(stats.step_accepted)


def simulated_speedup(stats_list: Sequence[RunStats], cost_ratio: float) -> float:
    """Throughput of the speculative runs under the abstract cost model.

    Cost of a run is ``sum_steps (proposed * cost_ratio + 1)`` plus one unit
    per pre-filled token; the target-only baseline pays one unit per token.
    The ratio of tokens to cost is the modeled speedup.
    """
    tokens = 0.0
    cost = 0.0
    for st in stats_list:
        tokens += len(st.origins)
        cost += sum(p * cost_ratio + 1.0 for p in st.step_proposed)
        cost += sum(1.0 for o in st.origins if o == "prefilled")
    if cost == 0.0:
        raise ValueError("no steps recorded")
    return tokens / cost


def _aggregate(axis_value: float, stats_list: Sequence[RunStats]) -> SweepPoint:
    alphas = []
    for st in stats_list:
        summary = empirical_acceptance(st)
        if summary.alpha is not None:
            alphas.append(summary.alpha)
    pooled = empirical_acceptance(stats_list)
    tps = [t for t in (tokens_per_step(st) for st in stats_list) if t is not None]
    trials = [t for st in stats_list for t in st.resample_trials]
    per_position = {
        pos: acc / exam
        for pos, (acc, exam) in pooled.per_position.items()
        if exam > 0
    }
    if alphas:
        mean_alpha = float(np.mean(alphas))
        stderr = float(np.std(alphas, ddof=1) / np.sqrt(len(alphas))) if len(alphas) > 1 else 0.0
    else:
        mean_alpha = None
        stderr = None
    return SweepPoint(
        axis_value=axis_value,
        mean_alpha=mean_alpha,
        stderr_alpha=stderr,
        mean_alpha_examined=pooled.alpha_examined,
        mean_trials=float(np.mean(trials)) if trials else None,
        tokens_per_step=float(np.mean(tps)) if tps else None,
        per_position_alpha=per_position,
        stats=tuple(stats_list),
    )


def _sweep(
    target: Model,
    draft: Model,
    configs: Sequence[tuple[float, SpecDecodeConfig]],
    axis: str,
    replicates: int,
    master_seed: int,
    jobs: int | None,
) -> SweepResult:
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    tag = _AXIS_TAGS[axis]
    points = []
    for index, (value, config) in enumerate(configs):
        seeds = [
            replicate_seed(master_seed, tag * 1000 + index, r) for r in range(replicates)
        ]
        stats_list = run_replicates(target, draft, config, seeds, jobs=jobs)
        points.append(_aggregate(value, stats_list))
    return SweepResult(axis=axis, replicates=replicates, seed=master_seed, points=tuple(points))


def sweep_gamma(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    gammas: Iterable[int],
    replicates: int,
    master_seed: int,
    jobs: int | None = None,
) -> SweepResult:
    configs = [(float(g), replace(config, gamma=int(g))) for g in gammas]
    return _sweep(target, draft, configs, "gamma", replicates, master_seed, jobs)


def sweep_prefill(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    rhos: Iterable[float] = (0.0, 0.05, 0.15),
    replicates: int = 1,
    master_seed: int = 0,
    jobs: int | None = None,
) -> SweepResult:
    configs = [(float(r), replace(config, rho=float(r))) for r in rhos]
    return _sweep(target, draft, configs, "prefill", replicates, master_seed, jobs)


def sweep_temperature(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    taus: Iterable[float],
    replicates: int,
    master_seed: int,
    jobs: int | None = None,
) -> SweepResult:
    for t in taus:
        if not t > 0:
            raise ValueError("temperatures must be positive")
    configs = [(float(t), replace(config, temperature=float(t))) for t in taus]
    return _sweep(target, draft, configs, "temperature", replicates, master_seed, jobs)


@dataclass(frozen=True)
class TrialsHistogram:
    """Distribution of rejection-sampler trial counts over many runs."""

    counts: dict[int, int]
    total: int
    mean: float | None
    p99: float | None

    @property
    def empty(self) -> bool:
        return self.total == 0


def trials_histogram(stats_list: RunStats | Iterable[RunStats]) -> TrialsHistogram:
    if isinstance(stats_list, RunStats):
        stats_list = [stats_list]
    trials = [t for st in stats_list for t in st.resample_trials]
    if not trials:
        return TrialsHistogram(counts={}, total=0, mean=None, p99=None)
    values, counts = np.unique(np.asarray(trials), return_counts=True)
    return TrialsHistogram(
        counts={int(v): int(c) for v, c in zip(values, counts)},
        total=len(trials),
        mean=float(np.mean(trials)),
        p99=float(np.percentile(trials, 99)),
    )
