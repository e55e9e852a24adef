"""Toy autoregressive backbone and target-only generation.

The backbone turns the previous token into the conditioning vector fed to the
denoiser at the next position.  Position 0 is conditioned on a model-specific
prefix embedding, which is exactly where a draft and a target model can
disagree before any token exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffusion import DenoiserSpec, DenoisingTrajectory, draw_noise_record, run_chain
from .gaussian import as_vector
from .rng import PositionStreams

# Token origins, recorded per position in generation order.
PREFILLED = "prefilled"
DRAFT_ACCEPTED = "draft-accepted"
RESAMPLED = "resampled"
TARGET_FALLTHROUGH = "target-fallthrough"
ORIGINS = (PREFILLED, DRAFT_ACCEPTED, RESAMPLED, TARGET_FALLTHROUGH)


@dataclass(frozen=True)
class ARBackboneSpec:
    """Recurrence producing per-position conditioning vectors.

    ``cond_0 = prefix`` and ``cond_i = g(weight * x_{i-1} + bias)`` for i >= 1,
    with g either the identity or tanh.
    """

    prefix: np.ndarray
    weight: np.ndarray
    bias: np.ndarray
    nonlinearity: str = "identity"

    def __post_init__(self):
        p = as_vector(self.prefix, name="prefix")
        w = as_vector(self.weight, dim=p.shape[0], name="weight")
        b = as_vector(self.bias, dim=p.shape[0], name="bias")
        if self.nonlinearity not in ("identity", "tanh"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)

    @property
    def dim(self) -> int:
        return self.prefix.shape[0]


@dataclass(frozen=True)
class Model:
    """A complete toy model: denoiser plus autoregressive backbone."""

    denoiser: DenoiserSpec
    backbone: ARBackboneSpec

    def __post_init__(self):
        if self.denoiser.dim != self.backbone.dim:
            raise ValueError("denoiser and backbone dimensions differ")

    @property
    def steps(self) -> int:
        return self.denoiser.steps

    @property
    def dim(self) -> int:
        return self.denoiser.dim


def condition(backbone: ARBackboneSpec, tokens: Sequence[np.ndarray], i: int) -> np.ndarray:
    """Conditioning vector for position ``i`` given the tokens before it."""
    if i < 0 or i > len(tokens):
        raise ValueError(f"position {i} out of range for {len(tokens)} tokens")
    if i == 0:
        return backbone.prefix
    c = backbone.weight * tokens[i - 1] + backbone.bias
    if backbone.nonlinearity == "tanh":
        c = np.tanh(c)
    return c


class SequenceState:
    """Tokens generated so far, with the origin of each one.

    Owned by a single generation run; appends are the only mutation.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.tokens: list[np.ndarray] = []
        self.origins: list[str] = []

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def remaining(self) -> int:
        return self.capacity - len(self.tokens)

    def append(self, token: np.ndarray, origin: str) -> None:
        if origin not in ORIGINS:
            raise ValueError(f"unknown origin {origin!r}")
        if len(self.tokens) >= self.capacity:
            raise ValueError("sequence is already at capacity")
        self.tokens.append(as_vector(token, name="token"))
        self.origins.append(origin)

    def tokens_array(self) -> np.ndarray:
        """Stacked ``(n, d)`` view of the tokens."""
        return np.stack(self.tokens) if self.tokens else np.empty((0, 0))


def sample_token(
    model: Model,
    tokens: Sequence[np.ndarray],
    position: int,
    streams: PositionStreams,
    temperature: float,
) -> tuple[np.ndarray, DenoisingTrajectory]:
    """Sample ``model``'s token at ``position`` on a fresh record from the position's stream.

    Returns the conditioning vector and the trajectory: its ``token`` is the
    sample and its ``noise`` the record.
    """
    cond = condition(model.backbone, tokens, position)
    record = draw_noise_record(model.steps, model.dim, streams.stream(position))
    return cond, run_chain(model.denoiser, cond, record, temperature, position=position)


def _extend_from_target(
    model: Model,
    state: SequenceState,
    count: int,
    streams: PositionStreams,
    temperature: float,
    origin: str,
) -> SequenceState:
    for _ in range(count):
        pos = len(state)
        _, traj = sample_token(model, state.tokens, pos, streams, temperature)
        state.append(traj.token, origin)
    return state


def target_only_generate(
    model: Model,
    length: int,
    streams: PositionStreams,
    temperature: float = 1.0,
) -> SequenceState:
    """Plain step-by-step generation by one model; the ground-truth process."""
    if length < 1:
        raise ValueError("length must be >= 1")
    state = SequenceState(length)
    return _extend_from_target(model, state, length, streams, temperature, TARGET_FALLTHROUGH)


def prefill_count(rho: float, length: int) -> int:
    """Number of pre-filled tokens: round-half-up of ``rho * length``."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return int(np.floor(rho * length + 0.5))


def prefill(
    model: Model,
    length: int,
    rho: float,
    streams: PositionStreams,
    temperature: float = 1.0,
) -> SequenceState:
    """Generate the first ``round(rho * length)`` tokens from the target alone.

    Uses the same per-position streams as :func:`target_only_generate`, so a
    full pre-fill reproduces the target-only sequence bit for bit.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    state = SequenceState(length)
    return _extend_from_target(
        model, state, prefill_count(rho, length), streams, temperature, PREFILLED
    )
