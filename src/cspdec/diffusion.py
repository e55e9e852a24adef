"""Reverse denoising chains.

A toy denoiser takes a state ``x_t`` from pure noise ``x_T ~ N(0, I)`` down to
a token ``x_0`` through T Gaussian steps.  Each step's mean is an affine (or
tanh-squashed affine) function of the current state and a conditioning vector,
and its diagonal variance is a fixed per-step schedule.  Chains can be run on
a pre-drawn noise record so that two different models traverse the exact same
noise, which is what makes their step-density ratio telescope.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .gaussian import VARIANCE_FLOOR, diag_variance_terms, vector_floats

NONLINEARITIES = ("identity", "tanh")


class ChainDivergenceError(RuntimeError):
    """A chain produced a non-finite state.

    Carries the 1-based timestep ``step`` (counting down from T) at which the
    state first left the finite range, and optionally the sequence position.
    """

    def __init__(self, step: int, position: int | None = None):
        self.step = step
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"denoising chain diverged at step t={step}{where}")


def _as_step_matrix(values, name: str) -> np.ndarray:
    """A checked 2-D float64 copy of ``values`` (1-D is one column), which the caller keeps."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError(f"{name} must have at least one column, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ChainPlan:
    """The temperature-dependent constants of one denoiser's chains.

    Built once per (denoiser, temperature) by :meth:`DenoiserSpec.plan` and
    shared by every chain run there.  ``variances`` holds the read-only
    ``temperature**2 * variance`` array.  ``columns`` holds, for each
    coordinate, a tuple of per-step ``(state_coef, cond_coef, offset, scale)``
    Python floats in execution order, where ``scale`` is the square root of
    the step's ``variances`` entry; :func:`run_chain` reads nothing else per
    step.  ``log_var_tail`` is ``0.5 * sum(log variances)`` over all steps
    but the last.  ``last_terms`` holds, for each coordinate, the Python
    floats ``(-0.5*log(2*pi*v), 2*v)`` of the final step's variance ``v``,
    read off numpy's arrays so they keep numpy's ``log`` bits.  Every entry
    of ``variances`` is at least ``VARIANCE_FLOOR``, so the densities are
    those of the steps the chains sample.
    """

    variances: np.ndarray
    columns: tuple[tuple[tuple[float, float, float, float], ...], ...]
    log_var_tail: float
    last_terms: tuple[tuple[float, float], ...]

    @classmethod
    def build(cls, spec: "DenoiserSpec", temperature: float) -> "ChainPlan":
        try:
            variances = (float(temperature) ** 2) * spec.variance
        except OverflowError:  # float ** 2 raises where numpy would give inf
            variances = np.full_like(spec.variance, np.inf)
        # A variance that underflows to 0 makes the tail term NaN, which accepts every draft.
        if not (np.isfinite(variances).all() and variances.min() >= VARIANCE_FLOOR):
            raise ValueError(
                f"temperature {temperature!r} takes a step variance below the variance"
                f" floor {VARIANCE_FLOOR:g} or to inf"
            )
        variances.flags.writeable = False
        arrays = (spec.state_coef, spec.cond_coef, spec.offset, np.sqrt(variances))
        per_coordinate = zip(*(arr.T.tolist() for arr in arrays))
        log_norm, two_var = diag_variance_terms(variances[-1])
        return cls(
            variances=variances,
            columns=tuple(tuple(zip(*column)) for column in per_coordinate),
            log_var_tail=float(0.5 * np.log(variances[:-1]).sum()),
            last_terms=tuple(zip(log_norm.tolist(), two_var.tolist())),
        )

    def last_logpdf(self, x: Sequence[float], mean: Sequence[float]) -> float:
        """Final-step log-density of the float row ``x`` around the float row ``mean``.

        It has the bits ``gaussian_logpdf`` gives.  Each term
        ``log_norm - dev * dev / two_var`` takes the same IEEE double
        operations as numpy's elementwise ones, in the same order, and the
        terms are summed in numpy's order: ``np.add.reduce`` on float64 is a
        pairwise sum whose base case, below 8 terms, adds left to right from
        0.0, so fewer than 8 terms are added here in that loop and 8 or more
        go to numpy.  The builtin ``sum`` is not used, because it is
        compensated from Python 3.12 on.
        """
        terms = []
        for (log_norm, two_var), xi, mi in zip(self.last_terms, x, mean, strict=True):
            dev = xi - mi
            terms.append(log_norm - dev * dev / two_var)
        if len(terms) >= 8:
            return float(np.add.reduce(terms))
        total = 0.0
        for term in terms:
            total += term
        return total


@dataclass(frozen=True)
class DenoiserSpec:
    """Parameters of a T-step toy denoiser.

    All per-step arrays have shape ``(T, d)`` and are ordered in execution
    order: row 0 is the first denoising step (t = T), row T-1 the last step
    (t = 1), the one that emits the token.  The step mean is
    ``state_coef * x_t + cond_coef * cond + offset``, optionally squashed by
    tanh; the step variance is the fixed ``variance`` row.

    The arrays are copies of the caller's, frozen.  The per-temperature
    :class:`ChainPlan` cache is a plain attribute, not a field, so it takes
    no part in ``dataclasses.asdict``, equality or pickling.
    """

    state_coef: np.ndarray
    cond_coef: np.ndarray
    offset: np.ndarray
    variance: np.ndarray
    nonlinearity: str = "identity"

    def __post_init__(self):
        a = _as_step_matrix(self.state_coef, "state_coef")
        c = _as_step_matrix(self.cond_coef, "cond_coef")
        b = _as_step_matrix(self.offset, "offset")
        v = _as_step_matrix(self.variance, "variance")
        if not (a.shape == c.shape == b.shape == v.shape):
            raise ValueError("all per-step coefficient arrays must share one (T, d) shape")
        if a.shape[0] < 2:
            raise ValueError("a denoiser needs at least 2 steps")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if v.min() < VARIANCE_FLOOR:
            raise ValueError(f"variance must be at least {VARIANCE_FLOOR:g}")
        for arr in (a, c, b, v):
            arr.flags.writeable = False
        object.__setattr__(self, "state_coef", a)
        object.__setattr__(self, "cond_coef", c)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "variance", v)
        object.__setattr__(self, "_plans", {})

    def __getstate__(self):
        return {**self.__dict__, "_plans": {}}

    def plan(self, temperature: float) -> ChainPlan:
        """The :class:`ChainPlan` at ``temperature``, built on first use."""
        if not temperature > 0.0:
            raise ValueError("temperature must be positive")
        plan = self._plans.get(temperature)
        if plan is None:
            plan = self._plans[temperature] = ChainPlan.build(self, temperature)
        return plan

    @property
    def steps(self) -> int:
        return self.state_coef.shape[0]

    @property
    def dim(self) -> int:
        return self.state_coef.shape[1]


@dataclass(frozen=True)
class NoiseRecord:
    """Pre-drawn standard-normal noise for one chain, as per-coordinate float columns.

    ``NoiseRecord(block)`` takes a caller's ``(T + 1, d)`` block: row 0 is
    ``x_T`` and rows 1..T are the step draws in execution order, matching
    :class:`DenoiserSpec`.  The block is checked and read once into
    ``columns``: for each coordinate, a tuple of its T + 1 Python floats,
    ``x_T`` first.  The caller's array is not kept.
    """

    block: InitVar[object]
    columns: tuple[tuple[float, ...], ...] = field(init=False)

    def __post_init__(self, block):
        z = _as_step_matrix(block, "noise block")
        object.__setattr__(self, "columns", tuple(map(tuple, z.T.tolist())))


def draw_noise_record(steps: int, dim: int, rng: np.random.Generator) -> NoiseRecord:
    """Draw ``x_T`` and all step noises i.i.d. standard normal from ``rng``.

    One ``(steps + 1, dim)`` draw: ``x_T`` is its first row and the step
    noises the rest, the same stream order as drawing ``x_T`` first.  The
    drawn block is fresh, float64 and finite, so it is read into the
    record's float columns without the check that ``NoiseRecord(...)``
    gives a caller's array.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    block = rng.standard_normal((steps + 1, dim))
    record = object.__new__(NoiseRecord)
    object.__setattr__(record, "columns", tuple(map(tuple, block.T.tolist())))
    return record


@dataclass(frozen=True)
class DenoisingTrajectory:
    """Full record of one chain run.

    The mean of every step, the :class:`NoiseRecord` that drove it, every
    intermediate state, and the :class:`ChainPlan` it ran on.
    ``mean_columns`` and ``output_columns`` hold, for each coordinate, the
    tuple of its step means and of its states, as Python floats in execution
    order.  ``variances`` (temperature already folded in) and
    ``log_var_tail`` are the plan's, shared read-only by every chain of
    that denoiser at that temperature; ``log_var_tail`` is
    ``0.5 * sum(log var)`` over all steps except the last, the quantity whose
    difference between two aligned chains is the telescoped density-ratio
    contribution of those steps.
    """

    noise: NoiseRecord
    mean_columns: tuple[tuple[float, ...], ...]
    output_columns: tuple[tuple[float, ...], ...]
    plan: ChainPlan

    @property
    def variances(self) -> np.ndarray:
        return self.plan.variances

    @property
    def log_var_tail(self) -> float:
        return self.plan.log_var_tail

    @property
    def steps(self) -> int:
        return len(self.mean_columns[0])

    @property
    def dim(self) -> int:
        return len(self.mean_columns)

    @property
    def token(self) -> tuple[float, ...]:
        """The chain output ``x_0``, as a tuple of floats."""
        return tuple([column[-1] for column in self.output_columns])

    @property
    def final_mean(self) -> tuple[float, ...]:
        """The last step's mean, as a tuple of floats."""
        return tuple([column[-1] for column in self.mean_columns])


def run_chain(
    spec: DenoiserSpec,
    cond,
    noise: NoiseRecord,
    temperature: float = 1.0,
    position: int | None = None,
) -> DenoisingTrajectory:
    """Run the denoising chain on a fixed noise record.

    The inputs are checked once on entry; ``cond`` is read as floats, so the
    caller's array is neither copied nor frozen, and a float tuple is read as
    it is.  The chain then runs on Python floats, one coordinate at a time,
    on the per-step constants of the denoiser's cached :class:`ChainPlan`:
    ``mean = a * x + c * cond + b`` (then ``tanh``, if the denoiser has it)
    and ``x = scale * eps + mean``.  No step mixes coordinates, and a Python
    float ``*`` or ``+`` is the same IEEE double operation as numpy's
    elementwise float64 one, evaluated in the same order, so every mean and
    output has the bits of the row-wise numpy formulas.  ``tanh`` is numpy's,
    applied to the scalar, because ``math.tanh`` can differ from it in the
    last bit.  Each coordinate's outputs are checked for divergence once,
    after its last step.

    Parameters
    ----------
    spec : DenoiserSpec
        The denoiser to run.
    cond : array_like
        Conditioning d-vector, held fixed for the whole chain.
    noise : NoiseRecord
        Pre-drawn noise, read from a ``(spec.steps + 1, spec.dim)`` block.
    temperature : float
        Multiplies every step variance by ``temperature**2``, in sampling and
        in the recorded densities alike.  Must be positive.
    position : int, optional
        Sequence position used only to label divergence errors.

    Returns
    -------
    DenoisingTrajectory
        Its means and outputs as float columns; its ``variances`` is the
        plan's shared read-only array.

    Raises
    ------
    ChainDivergenceError
        If an output is not finite; it names the first step with one, over
        all coordinates.
    """
    cond = vector_floats(cond, dim=spec.dim, name="cond")
    columns = noise.columns
    shape = spec.state_coef.shape
    block_shape = (len(columns[0]), len(columns))
    if block_shape != (shape[0] + 1, shape[1]):
        raise ValueError(f"noise block shape {block_shape} does not fit denoiser shape {shape}")
    plan = spec.plan(temperature)

    steps = shape[0]
    tanh = spec.nonlinearity == "tanh"
    mean_columns, output_columns = [], []
    # The execution index of the first non-finite output over all coordinates:
    # a later one can come back finite through tanh.
    first = steps
    for column, k, (x, *eps) in zip(plan.columns, cond, columns):
        means, outputs = [], []
        for (a, c, b, scale), e in zip(column, eps):
            mean = a * x + c * k + b
            if tanh:
                mean = float(np.tanh(mean))
            x = scale * e + mean
            means.append(mean)
            outputs.append(x)
        if not all(map(math.isfinite, outputs)):
            first = min(first, next(i for i, v in enumerate(outputs) if not math.isfinite(v)))
        mean_columns.append(tuple(means))
        output_columns.append(tuple(outputs))
    if first < steps:
        raise ChainDivergenceError(step=steps - first, position=position)
    return DenoisingTrajectory(
        noise=noise,
        mean_columns=tuple(mean_columns),
        output_columns=tuple(output_columns),
        plan=plan,
    )


def tail_log_density_ratio(traj_q: DenoisingTrajectory, traj_p: DenoisingTrajectory) -> float:
    """Telescoped log density ratio of all steps but the last under shared noise.

    For two chains driven by the same noise record, every step's density at
    its own output reduces to a normalization constant, so the log ratio of
    all steps except the final one is just the difference of the cached
    half-log-variance sums.
    """
    if traj_q.steps != traj_p.steps or traj_q.dim != traj_p.dim:
        raise ValueError("trajectories must share step count and dimension")
    return traj_q.log_var_tail - traj_p.log_var_tail

