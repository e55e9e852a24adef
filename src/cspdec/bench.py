"""Experiment sweeps and the abstract walltime model.

Sweeps replay full speculative generation over an axis (draft length,
pre-fill ratio, or temperature) with replicate-derived seeds and aggregate
acceptance, resampling effort, and tokens per step.  Wall-clock speedup is
modeled abstractly: one unit per target chain step, ``cost_ratio`` units per
draft chain step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .autoregressive import Model
from .engine import RunStats, SpecDecodeConfig
from .oracle import empirical_acceptance
from .parallel import run_replicates
from .rng import replicate_seed

# Each sweep axis: the SpecDecodeConfig field it sets and its seed tag.
SWEEP_AXES = {"gamma": ("gamma", 31), "prefill": ("rho", 37), "temperature": ("temperature", 41)}


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


def sweep(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    axis: str,
    values: Iterable[float],
    replicates: int,
    master_seed: int,
    jobs: int | None = None,
) -> SweepResult:
    """Run ``replicates`` generations at each value of one :data:`SWEEP_AXES` axis.

    Each value is cast to its config field's type and every point's config
    is built before the first run, so :class:`SpecDecodeConfig` rejects a bad
    value before any work is done.  Point ``index`` uses the seeds
    ``replicate_seed(master_seed, tag * 1000 + index, r)``.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    name, tag = SWEEP_AXES[axis]
    cast = get_type_hints(SpecDecodeConfig)[name]
    configs = [replace(config, **{name: cast(v)}) for v in values]
    points = []
    for index, point_config in enumerate(configs):
        seeds = [
            replicate_seed(master_seed, tag * 1000 + index, r) for r in range(replicates)
        ]
        stats_list = run_replicates(target, draft, point_config, seeds, jobs=jobs)
        points.append(_aggregate(float(getattr(point_config, name)), stats_list))
    return SweepResult(axis=axis, replicates=replicates, seed=master_seed, points=tuple(points))
