"""Closed-form squared Cramer-Wold distances.

The squared distance between two point samples (or a sample and the standard
normal N(0, I)) is the mean squared L2 distance between their
Gaussian-smoothed one-dimensional projections, averaged over the unit sphere.
For radial Gaussian smoothing the sphere integral collapses to the profile
function of :mod:`cramerwold.phi`, giving the pairwise closed forms below.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .phi import PhiMode, _at_least, _real, phi, resolve_mode


@dataclass(frozen=True)
class CwReport:
    """Result of a closed-form distance evaluation.

    ``pre_clamp`` keeps the raw combination of pairwise sums; tiny negative
    values (floating-point noise on near-identical samples) are clamped to
    zero in ``squared_distance``.
    """

    squared_distance: float
    pre_clamp: float
    gamma: float
    mode: PhiMode
    n: int
    k: int | None
    dim: int


@dataclass(frozen=True)
class RadialGaussian:
    """Isotropic Gaussian N(mean, variance_scale * I)."""

    mean: np.ndarray
    variance_scale: float


def silverman_gamma(n):
    """Silverman-rule smoothing variance (4 / (3n)) ** (2/5) for sample size n."""
    return (4.0 / (3.0 * int(_at_least("sample size", n, 1)))) ** 0.4


def _as_sample(arr, name):
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array of shape (n, dim), got ndim={a.ndim}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must contain at least one point")
    if a.shape[1] < 2:
        raise ValueError(f"{name} must have dimension >= 2, got {a.shape[1]}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return np.ascontiguousarray(a)


def _check_gamma(gamma):
    gamma = _real("gamma", gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
    return gamma


def sample_gamma(n, gamma):
    """``gamma`` checked, or Silverman's rule at sample size n when None."""
    return silverman_gamma(n) if gamma is None else _check_gamma(gamma)


def normal_pre(n, gamma, s_pair, s_norm):
    """The sample-prior closed form before its clamp, from n points' pair and norm sums."""
    return (s_pair / math.sqrt(gamma) + n * n / math.sqrt(1.0 + gamma)
            - (2.0 * n / math.sqrt(gamma + 0.5)) * s_norm) / (2.0 * n * n * math.sqrt(math.pi))


def _samples(x, y, gamma):
    """(x, y, gamma) with x and y (None for the prior) checked as samples of one
    dimension, and gamma as sample_gamma at min(n, k) takes it."""
    x = _as_sample(x, "x")
    n = x.shape[0]
    if y is not None:
        y = _as_sample(y, "y")
        if x.shape[1] != y.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
        n = min(n, y.shape[0])
    return x, y, sample_gamma(n, gamma)


def _radial_means(a, b):
    """The flat means of two RadialGaussians, each checked finite with a finite
    variance scale >= 0, and both of one shape."""
    means = []
    for name, g in (("a", a), ("b", b)):
        if not 0.0 <= _real(f"{name}.variance_scale", g.variance_scale) < math.inf:
            raise ValueError(f"{name}.variance_scale must be finite and >= 0, "
                             f"got {g.variance_scale!r}")
        m = np.asarray(g.mean, dtype=np.float64).ravel()
        if not np.isfinite(m).all():
            raise ValueError(f"{name}.mean contains non-finite values")
        means.append(m)
    if means[0].shape != means[1].shape:
        raise ValueError(f"mean dimension mismatch: {means[0].shape[0]} vs {means[1].shape[0]}")
    return means


def cw2_sample_sample(x, y, gamma=None, mode=None):
    """Squared Cramer-Wold distance between two samples with common dimension.

    ``gamma`` defaults to the Silverman rule evaluated at min(n, k).  Sample
    sizes may differ; the three pairwise sums are weighted 1/n^2, 1/k^2 and
    2/(nk).
    """
    x, y, gamma = _samples(x, y, gamma)
    n, dim = x.shape
    k = y.shape[0]
    resolved = resolve_mode(dim, mode)

    # The cross-sum accumulation order must not depend on argument order,
    # otherwise swapping x and y could change the result in the last ulp.
    a, b = x, y
    if (k, y.tobytes()) < (n, x.tobytes()):
        a, b = y, x
    saa = kernels.sum_phi_cross(a, a, gamma, resolved)
    sbb = kernels.sum_phi_cross(b, b, gamma, resolved)
    sab = kernels.sum_phi_cross(a, b, gamma, resolved)
    na, nb = a.shape[0], b.shape[0]
    pre = (saa / (na * na) + sbb / (nb * nb) - 2.0 * (sab / (na * nb))) / (
        2.0 * math.sqrt(math.pi * gamma)
    )
    return CwReport(squared_distance=max(pre, 0.0), pre_clamp=pre, gamma=gamma, mode=resolved,
                    n=n, k=k, dim=dim)


def cw2_sample_normal(x, gamma=None, mode=None):
    """Squared Cramer-Wold distance between a sample and N(0, I).

    ``gamma`` defaults to the Silverman rule at the sample size.
    """
    x, _, gamma = _samples(x, None, gamma)
    n, dim = x.shape
    resolved = resolve_mode(dim, mode)
    pre = normal_pre(n, gamma, kernels.sum_phi_cross(x, x, gamma, resolved),
                     kernels.sum_phi_norms(x, gamma, resolved))
    return CwReport(squared_distance=max(pre, 0.0), pre_clamp=pre, gamma=gamma, mode=resolved,
                    n=n, k=None, dim=dim)


def cw_scalar_product_radial(a, b, gamma, mode=None):
    """Cramer-Wold scalar product of two isotropic Gaussians.

    For N(x, alpha*I) and N(y, beta*I) smoothed with variance gamma the
    sphere integral of the 1-D products collapses to

        (2 pi t)**-0.5 * phi(D, |x - y|^2 / (2 t)),   t = alpha + beta + 2*gamma.

    With alpha = beta = 0 this is exactly the pairwise term of the
    sample-sample closed form.
    """
    ma, mb = _radial_means(a, b)
    dim = ma.shape[0]
    gamma = _check_gamma(gamma)
    resolved = resolve_mode(dim, mode)
    t = a.variance_scale + b.variance_scale + 2.0 * gamma
    d2 = float(((ma - mb) ** 2).sum())
    return (2.0 * math.pi * t) ** -0.5 * phi(dim, d2 / (2.0 * t), resolved)
