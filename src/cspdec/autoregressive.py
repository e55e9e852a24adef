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
from .gaussian import as_vector, vector_floats
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

    The arrays are copies of the caller's, frozen.  :func:`condition` reads
    float copies of them, made once here: ``prefix_floats``, the prefix as a
    tuple of floats, and ``affine_floats``, one ``(weight, bias)`` pair of
    floats per coordinate.  They are plain attributes, not fields, so they
    take no part in ``dataclasses.asdict`` or equality.
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
        object.__setattr__(self, "prefix_floats", tuple(p.tolist()))
        object.__setattr__(self, "affine_floats", tuple(zip(w.tolist(), b.tolist())))

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


def condition(backbone: ARBackboneSpec, tokens: Sequence, i: int) -> tuple[float, ...]:
    """Conditioning vector for position ``i`` given the tokens before it, as a tuple of floats.

    ``weight * x + bias`` (then ``tanh``, if the backbone has it) is taken one
    coordinate at a time on the backbone's float copies, with the IEEE double
    operations of numpy's elementwise formula in the same order, and numpy's
    ``tanh`` applied to the scalar, so each component has that formula's bits.
    """
    if i < 0 or i > len(tokens):
        raise ValueError(f"position {i} out of range for {len(tokens)} tokens")
    if i == 0:
        return backbone.prefix_floats
    pairs = zip(backbone.affine_floats, tokens[i - 1], strict=True)
    if backbone.nonlinearity == "tanh":
        return tuple([float(np.tanh(w * x + b)) for (w, b), x in pairs])
    return tuple([w * x + b for (w, b), x in pairs])


class SequenceState:
    """Tokens generated so far, with the origin of each one.

    Owned by a single generation run; appends are the only mutation.  Each
    token is kept as a tuple of floats, all of the first token's length.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.tokens: list[tuple[float, ...]] = []
        self.origins: list[str] = []

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def remaining(self) -> int:
        return self.capacity - len(self.tokens)

    def append(self, token, origin: str) -> None:
        """Append ``token`` with its origin.

        A tuple of finite floats, such as a chain's token, is kept as it is;
        anything else (an array, say) is checked and copied into one.  Every
        token must have the first one's length.
        """
        if origin not in ORIGINS:
            raise ValueError(f"unknown origin {origin!r}")
        if len(self.tokens) >= self.capacity:
            raise ValueError("sequence is already at capacity")
        dim = len(self.tokens[0]) if self.tokens else None
        self.tokens.append(vector_floats(token, dim=dim, name="token"))
        self.origins.append(origin)

    def tokens_array(self) -> np.ndarray:
        """The tokens as a new ``(n, d)`` float64 array."""
        return np.array(self.tokens, dtype=np.float64) if self.tokens else np.empty((0, 0))


def sample_token(
    model: Model,
    tokens: Sequence,
    position: int,
    streams: PositionStreams,
    temperature: float,
) -> tuple[tuple[float, ...], DenoisingTrajectory]:
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
