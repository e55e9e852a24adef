"""Replicate execution across worker processes.

Replicates are embarrassingly parallel: each one is fully determined by its
own derived seed, so results are identical whatever the worker count.
The pool forks its workers (the default start method on Linux), so they run
the engine exactly as it stands in the calling process, patches included.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .autoregressive import Model, target_only_generate
from .engine import RunStats, SpecDecodeConfig, generate
from .rng import PositionStreams


def default_jobs() -> int:
    return max(1, min(os.cpu_count() or 1, 8))


def _map_chunks(fn, target, draft, config, seeds: list[int], jobs: int | None) -> list:
    """``fn`` over seed chunks, in seed order: serial for one job or few seeds."""
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1 or len(seeds) < 2 * jobs:
        return [fn((target, draft, config, seeds))]
    chunk = (len(seeds) + 4 * jobs - 1) // (4 * jobs)
    payloads = [(target, draft, config, seeds[i : i + chunk]) for i in range(0, len(seeds), chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads))


def _run_chunk(args) -> list[RunStats]:
    target, draft, config, seeds = args
    out = []
    for seed in seeds:
        _, stats = generate(target, draft, config.with_seed(seed))
        out.append(stats)
    return out


def _token_chunk(args) -> np.ndarray:
    _, _, config, seeds = args
    out = np.empty((len(seeds), config.length, config.dim))
    for r, stats in enumerate(_run_chunk(args)):
        out[r] = stats.tokens
    return out


def _baseline_chunk(args) -> np.ndarray:
    target, _, config, seeds = args
    out = np.empty((len(seeds), config.length, config.dim))
    for r, seed in enumerate(seeds):
        state = target_only_generate(
            target, config.length, PositionStreams(seed), config.temperature
        )
        out[r] = state.tokens_array()
    return out


def run_replicates(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    seeds: list[int],
    jobs: int | None = None,
) -> list[RunStats]:
    """Run one generation per seed, in seed order, optionally in parallel."""
    parts = _map_chunks(_run_chunk, target, draft, config, seeds, jobs)
    return [stats for part in parts for stats in part]


def speculative_token_matrix(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
    seeds: list[int],
    jobs: int | None = None,
) -> np.ndarray:
    """Token outputs only, stacked ``(runs, length, dim)``; cheap to ship back."""
    return np.concatenate(_map_chunks(_token_chunk, target, draft, config, seeds, jobs))


def baseline_token_matrix(
    target: Model,
    config: SpecDecodeConfig,
    seeds: list[int],
    jobs: int | None = None,
) -> np.ndarray:
    """Target-only token outputs, stacked ``(runs, length, dim)``."""
    return np.concatenate(_map_chunks(_baseline_chunk, target, None, config, seeds, jobs))
