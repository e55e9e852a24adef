"""The continuous speculative decoding engine.

One speculative step drafts gamma tokens from the cheap model, verifies them
against the expensive model along noise-aligned chains, keeps the accepted
prefix, and patches the first rejection by acceptance-rejection sampling from
the residual distribution.  Because both chains traverse the same noise, the
acceptance ratio collapses to the tail variance-product term plus the two
final-step log-densities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .autoregressive import (
    DRAFT_ACCEPTED,
    RESAMPLED,
    TARGET_FALLTHROUGH,
    Model,
    SequenceState,
    condition,
    prefill,
)
from .diffusion import (
    DenoiserSpec,
    DenoisingTrajectory,
    NoiseRecord,
    draw_noise_record,
    run_chain,
    tail_log_density_ratio,
)
from .gaussian import as_vector
from .rng import PositionStreams


class ResampleExhaustedError(RuntimeError):
    """Acceptance-rejection sampling hit its trial cap.

    Happens when draft and target densities are near-identical, so the
    residual normalizer (the per-trial success probability) approaches zero.
    ``mean_threshold`` is the empirical per-trial acceptance estimate observed
    before giving up.
    """

    def __init__(self, trials: int, mean_threshold: float, position: int | None = None):
        self.trials = trials
        self.mean_threshold = mean_threshold
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(
            f"rejection resampling exhausted {trials} trials{where}; "
            f"empirical per-trial acceptance ~ {mean_threshold:.3e} "
            "(draft and target densities are nearly identical)"
        )


_INTEGER_TYPES = (int, np.integer)
_REAL_TYPES = (int, float, np.integer, np.floating)


@dataclass(frozen=True)
class SpecDecodeConfig:
    """Run parameters for speculative generation."""

    gamma: int
    steps: int
    dim: int
    length: int
    rho: float = 0.0
    temperature: float = 1.0
    max_resample_trials: int = 10_000
    seed: int = 0
    aligned: bool = True

    def __post_init__(self):
        # bool passes isinstance(value, int), so it is turned away first.
        for name in ("gamma", "steps", "dim", "length", "max_resample_trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _INTEGER_TYPES):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("rho", "temperature"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not self.temperature > 0.0:
            raise ValueError("temperature must be positive")
        if self.max_resample_trials < 1:
            raise ValueError("max_resample_trials must be >= 1")

    def check_models(self, target: Model, draft: Model) -> None:
        for name, model in (("target", target), ("draft", draft)):
            if model.steps != self.steps:
                raise ValueError(f"{name} model has {model.steps} steps, config says {self.steps}")
            if model.dim != self.dim:
                raise ValueError(f"{name} model has dim {model.dim}, config says {self.dim}")

    def with_seed(self, seed: int) -> "SpecDecodeConfig":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class DraftProposal:
    """One drafted token with everything needed to verify it."""

    position: int
    cond_q: np.ndarray
    record: NoiseRecord
    traj_q: DenoisingTrajectory


@dataclass
class RunStats:
    """Everything observable about one generation run.

    Per-proposal rows are append-ordered; ``examined`` marks proposals up to
    and including the first rejection of their step, and ``accepted`` marks
    the ones that became tokens.  Merging replicates is plain concatenation.
    """

    seed: int = 0
    config: dict = field(default_factory=dict)
    proposal_positions: list[int] = field(default_factory=list)
    proposal_log_ratios: list[float] = field(default_factory=list)
    proposal_uniforms: list[float] = field(default_factory=list)
    proposal_examined: list[bool] = field(default_factory=list)
    proposal_accepted: list[bool] = field(default_factory=list)
    step_proposed: list[int] = field(default_factory=list)
    step_accepted: list[int] = field(default_factory=list)
    resample_positions: list[int] = field(default_factory=list)
    resample_trials: list[int] = field(default_factory=list)
    origins: list[str] = field(default_factory=list)
    tokens: list[list[float]] = field(default_factory=list)
    draft_chain_calls: int = 0
    target_chain_calls: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def acceptance_log_ratio(
    traj_q: DenoisingTrajectory,
    target: DenoiserSpec,
    cond_p,
    noise: NoiseRecord,
    x_out,
    temperature: float = 1.0,
) -> tuple[float, DenoisingTrajectory]:
    """Log acceptance ratio for one drafted token.

    Runs the target chain on the supplied noise record (the draft's record,
    under alignment), then combines the telescoped tail term with the two
    final-step log-densities at the drafted token: the target's by
    substitution into its final step given its own ``x_1``, the draft's under
    its own final step.  Both are read off the trajectories' last means with
    the final-step terms of their chain plans.
    Also returns the target trajectory.
    """
    traj_p = run_chain(target, cond_p, noise, temperature)
    log_tail = tail_log_density_ratio(traj_q, traj_p)
    x_out = as_vector(x_out, dim=target.dim, name="x")
    log_p = traj_p.plan.last_logpdf(x_out, traj_p.means[-1])
    log_q = traj_q.plan.last_logpdf(x_out, traj_q.means[-1])
    return log_tail + log_p - log_q, traj_p


def verify_drafts(log_ratios, uniforms) -> int:
    """Accepted count: index before the first i with ``u_i > exp(log_ratio_i)``.

    Ratios at or above one accept regardless of the uniform; the exponential
    is only evaluated when a comparison is actually needed.
    """
    if len(log_ratios) != len(uniforms):
        raise ValueError("log_ratios and uniforms must have equal length")
    for i, (lr, u) in enumerate(zip(log_ratios, uniforms)):
        if lr >= 0.0:
            continue
        if u > math.exp(lr):
            return i
    return len(log_ratios)


def resample_threshold(log_q: float, log_tail: float, log_p: float) -> float:
    """Acceptance-rejection threshold ``max(0, 1 - q / (S * p))`` in log space.

    ``S`` is the tail variance-product factor; with the residual normalizer
    folded into the envelope bound, the threshold needs only the two
    final-step densities and the tail term.
    """
    delta = log_q - log_tail - log_p
    if delta >= 0.0:
        return 0.0
    return -math.expm1(delta)


def rejection_resample(
    target: DenoiserSpec,
    cond_p,
    draft: DenoiserSpec,
    cond_q,
    temperature: float,
    rng: np.random.Generator,
    max_trials: int = 10_000,
    position: int | None = None,
) -> tuple[np.ndarray, int]:
    """Sample from the residual distribution by acceptance-rejection.

    Each trial draws an entirely fresh noise record, takes the candidate from
    the target chain, re-runs the draft chain on the same record (alignment,
    which supplies the tail term and the draft's final-step state), computes
    the threshold, and accepts with that probability.

    Returns the accepted token and the number of trials it took.
    """
    threshold_sum = 0.0
    for trial in range(1, max_trials + 1):
        record = draw_noise_record(target.steps, target.dim, rng)
        traj_p = run_chain(target, cond_p, record, temperature, position=position)
        candidate = traj_p.token
        traj_q = run_chain(draft, cond_q, record, temperature, position=position)
        log_tail = tail_log_density_ratio(traj_q, traj_p)
        log_p = traj_p.plan.last_logpdf(candidate, traj_p.means[-1])
        log_q = traj_q.plan.last_logpdf(candidate, traj_q.means[-1])
        alpha = resample_threshold(log_q, log_tail, log_p)
        threshold_sum += alpha
        if rng.random() <= alpha:
            return candidate, trial
    raise ResampleExhaustedError(
        trials=max_trials,
        mean_threshold=threshold_sum / max_trials,
        position=position,
    )


def speculative_step(
    target: Model,
    draft: Model,
    state: SequenceState,
    gamma: int,
    temperature: float,
    streams: PositionStreams,
    stats: RunStats,
    max_resample_trials: int = 10_000,
    aligned: bool = True,
) -> SequenceState:
    """One draft/verify/resample round, appending tokens to ``state``.

    Drafts ``min(gamma, room)`` tokens autoregressively from the draft model,
    verifies each along the shared noise record (or an independent one when
    ``aligned`` is off), appends the accepted prefix, then either patches the
    first rejection with a residual-distribution sample or, on full
    acceptance, appends one bonus token from the target at the next position.
    The step's proposals, acceptance count, resample trials and chain calls
    are recorded into ``stats``.
    """
    if state.remaining < 1:
        raise ValueError("sequence is already at capacity")
    base = len(state)
    n_draft = min(gamma, state.remaining)

    # Draft phase: propose autoregressively, conditioning on earlier drafts.
    context = list(state.tokens)
    proposals = []
    for i in range(n_draft):
        pos = base + i
        cond_q = condition(draft.backbone, context, pos)
        record = draw_noise_record(draft.steps, draft.dim, streams.stream(pos))
        traj_q = run_chain(draft.denoiser, cond_q, record, temperature, position=pos)
        proposals.append(DraftProposal(position=pos, cond_q=cond_q, record=record, traj_q=traj_q))
        context.append(traj_q.token)

    # Verification phase: target conditions on the same prefix-plus-drafts.
    log_ratios: list[float] = []
    uniforms: list[float] = []
    cond_ps: list[np.ndarray] = []
    for prop in proposals:
        cond_p = condition(target.backbone, context, prop.position)
        noise = (
            prop.record
            if aligned
            else draw_noise_record(target.steps, target.dim, streams.stream(prop.position))
        )
        lr, _ = acceptance_log_ratio(
            prop.traj_q, target.denoiser, cond_p, noise, prop.traj_q.token, temperature
        )
        log_ratios.append(lr)
        uniforms.append(float(streams.stream(prop.position).random()))
        cond_ps.append(cond_p)

    n = verify_drafts(log_ratios, uniforms)
    for prop in proposals[:n]:
        state.append(prop.traj_q.token, DRAFT_ACCEPTED)

    # One draft and one target verification chain per proposal.
    stats.draft_chain_calls += n_draft
    stats.target_chain_calls += n_draft
    if n < n_draft:
        pos = base + n
        token, trials = rejection_resample(
            target.denoiser,
            cond_ps[n],
            draft.denoiser,
            proposals[n].cond_q,
            temperature,
            streams.stream(pos),
            max_trials=max_resample_trials,
            position=pos,
        )
        state.append(token, RESAMPLED)
        # Each trial runs one target and one draft chain.
        stats.resample_positions.append(pos)
        stats.resample_trials.append(trials)
        stats.target_chain_calls += trials
        stats.draft_chain_calls += trials
    elif state.remaining > 0:
        # Bonus token: the target's own sample at the next position.
        pos = base + n_draft
        cond_p = condition(target.backbone, context, pos)
        record = draw_noise_record(target.steps, target.dim, streams.stream(pos))
        traj = run_chain(target.denoiser, cond_p, record, temperature, position=pos)
        state.append(traj.token, TARGET_FALLTHROUGH)
        stats.target_chain_calls += 1

    for i, prop in enumerate(proposals):
        stats.proposal_positions.append(prop.position)
        stats.proposal_log_ratios.append(log_ratios[i])
        stats.proposal_uniforms.append(uniforms[i])
        stats.proposal_examined.append(i <= n)
        stats.proposal_accepted.append(i < n)
    stats.step_proposed.append(n_draft)
    stats.step_accepted.append(n)
    return state


def generate(
    target: Model,
    draft: Model,
    config: SpecDecodeConfig,
) -> tuple[SequenceState, RunStats]:
    """Full speculative generation: pre-fill, then speculative steps to length."""
    config.check_models(target, draft)
    streams = PositionStreams(config.seed)
    # A shallow field dict: every field is a scalar, so asdict's deep copy is waste.
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    stats = RunStats(seed=config.seed, config=echo)

    state = prefill(target, config.length, config.rho, streams, config.temperature)
    stats.target_chain_calls += len(state)
    while len(state) < config.length:
        speculative_step(
            target,
            draft,
            state,
            config.gamma,
            config.temperature,
            streams,
            stats,
            max_resample_trials=config.max_resample_trials,
            aligned=config.aligned,
        )
    stats.origins = list(state.origins)
    stats.tokens = state.tokens_array().tolist()
    return state, stats

