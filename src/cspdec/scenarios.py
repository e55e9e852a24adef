"""Pinned toy scenarios.

The two shipped model pairs live as JSON configs in ``cspdec/data``, and
:func:`standard_pair` and :func:`prefix_divergent_pair` load them from there,
so that every statistical result in the test suite and the benchmarks refers
to one versioned set of numbers.

Both pinned pairs share their variance schedule on all steps except the last.
With equal tail schedules the telescoped variance-product term is exactly
zero and the coupled acceptance ratio is an exact density ratio, which is the
regime in which speculative decoding provably preserves the target law; the
final-step variances and all mean parameters still differ freely.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .autoregressive import ARBackboneSpec, Model
from .configio import load_model_config
from .diffusion import DenoiserSpec
from .engine import SpecDecodeConfig

STANDARD_PAIR = "standard_pair"
PREFIX_DIVERGENT_PAIR = "prefix_divergent_pair"
SCENARIOS = (STANDARD_PAIR, PREFIX_DIVERGENT_PAIR)


def scenario_path(name: str) -> Path:
    """Filesystem path of a shipped scenario config (usable as --config)."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: {SCENARIOS}")
    return Path(str(resources.files("cspdec").joinpath(f"data/{name}.json")))


def _shipped_pair(name: str) -> tuple[Model, Model, SpecDecodeConfig]:
    model_config = load_model_config(scenario_path(name))
    return model_config.target, model_config.draft, model_config.spec_config()


def standard_pair() -> tuple[Model, Model, SpecDecodeConfig]:
    """General mismatched pair: the default subject of the statistical suite.

    Draft and target disagree in every mean parameter and in the final-step
    variance; state coupling is strong enough that trajectory alignment
    visibly matters.  Returns (target, draft, default config).
    """
    return _shipped_pair(STANDARD_PAIR)


def prefix_divergent_pair() -> tuple[Model, Model, SpecDecodeConfig]:
    """Pair whose backbones differ only in the prefix embedding.

    The denoisers carry a small final-step offset mismatch, so acceptance
    away from position 0 is high but not degenerate, while the opposed
    prefix embeddings make position-0 drafts mostly rejectable.  This is the
    scenario where token pre-filling pays.
    """
    return _shipped_pair(PREFIX_DIVERGENT_PAIR)


def decoupled_pair(
    target_mean: float,
    target_var: float,
    draft_mean: float,
    draft_var: float,
    steps: int = 2,
    tail_variance: float = 0.5,
) -> tuple[Model, Model]:
    """Pair whose output marginals are exactly the given 1-D Gaussians.

    The final step ignores the chain state and the condition, so each model's
    token is an exact draw from its stated Gaussian and the grid oracles for
    the residual distribution, its normalizer, and the overlap apply without
    approximation.  All tail steps are shared.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")

    def build(mean: float, var: float) -> Model:
        tail = steps - 1
        return Model(
            denoiser=DenoiserSpec(
                state_coef=[[0.5]] * tail + [[0.0]],
                cond_coef=[[0.0]] * steps,
                offset=[[0.0]] * tail + [[mean]],
                variance=[[tail_variance]] * tail + [[var]],
            ),
            backbone=ARBackboneSpec(prefix=[0.0], weight=[0.0], bias=[0.0]),
        )

    return build(target_mean, target_var), build(draft_mean, draft_var)


def stationary_pair() -> tuple[Model, Model, SpecDecodeConfig]:
    """Position-independent pair with i.i.d. per-draft acceptance.

    Every position sees the same decoupled final-step densities, so the
    per-draft acceptance probability is one constant and the walltime formula
    applies exactly.
    """
    target, draft = decoupled_pair(0.0, 1.0, 0.6, 1.0)
    config = SpecDecodeConfig(gamma=4, steps=2, dim=1, length=48, seed=0)
    return target, draft, config
