"""Log-space Gaussian primitives shared by every other module.

All densities are diagonal Gaussians over d-dimensional tokens and every
probability is carried as a log-density in nats; nothing here exponentiates
an intermediate result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The smallest variance a density may use.  It is checked where a variance
# enters (a denoiser spec, Gaussian params, a temperature's chain plan), so
# every density is the one of the step that was sampled.
VARIANCE_FLOOR = 1e-12

LOG_2PI = float(np.log(2.0 * np.pi))


def _vector_array(values, dim: int | None, name: str) -> np.ndarray:
    """``values`` as a shape-checked 1-D float64 array (0-d is one component), not copied."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one component")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    return arr


def as_vector(values, dim: int | None = None, name: str = "value") -> np.ndarray:
    """Coerce to a finite, read-only 1-D float64 array (a token or d-vector)."""
    arr = _vector_array(values, dim, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite components")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def vector_floats(values, dim: int | None = None, name: str = "value") -> tuple[float, ...]:
    """A d-vector's components as a tuple of Python floats, checked as :func:`as_vector` checks it.

    A tuple of finite reals of the right length, which is how the engine
    carries its tokens and conditions, is returned as it is.  Anything else is
    read through numpy into a new tuple; a caller's array is neither copied
    into a new array nor frozen.
    """
    if type(values) is tuple and values and (dim is None or len(values) == dim):
        try:
            if all(map(math.isfinite, values)):
                return values
        except (TypeError, OverflowError):
            pass  # not a tuple of reals: numpy reads it, or says why it cannot
    floats = _vector_array(values, dim, name).tolist()
    if not all(map(math.isfinite, floats)):
        raise ValueError(f"{name} contains non-finite components")
    return tuple(floats)


@dataclass(frozen=True)
class GaussianParams:
    """Mean and diagonal covariance entries of a d-dimensional Gaussian."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, name="mean")
        var = np.array(self.variance, dtype=np.float64, ndmin=1)
        if var.shape != mean.shape:
            raise ValueError(
                f"variance shape {var.shape} does not match mean shape {mean.shape}"
            )
        if not np.isfinite(var).all():
            raise ValueError("variance contains non-finite components")
        if var.min() < VARIANCE_FLOOR:
            raise ValueError(f"variance must be at least {VARIANCE_FLOOR:g}")
        var.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_logpdf(x, params: GaussianParams) -> float:
    """Exact log-density of ``x`` under a diagonal Gaussian, in nats."""
    x = as_vector(x, dim=params.dim, name="x")
    log_norm, two_var = diag_variance_terms(params.variance)
    dev = x - params.mean
    return float((log_norm - dev * dev / two_var).sum())


def diag_variance_terms(variance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The variance-only parts of a diagonal log-density: ``-0.5*log(2*pi*v)`` and ``2*v``.

    ``variance`` is already checked against ``VARIANCE_FLOOR``.  A chain plan
    computes these once for its final step, so its densities use the same
    bits as :func:`gaussian_logpdf` does.
    """
    return -0.5 * (LOG_2PI + np.log(variance)), 2.0 * variance
