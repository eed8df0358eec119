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
from .phi import PhiMode, phi, resolve_mode


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
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    return (4.0 / (3.0 * n)) ** 0.4


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
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
    return gamma


def cw2_sample_sample(x, y, gamma=None, mode=None):
    """Squared Cramer-Wold distance between two samples with common dimension.

    ``gamma`` defaults to the Silverman rule evaluated at min(n, k).  Sample
    sizes may differ; the three pairwise sums are weighted 1/n^2, 1/k^2 and
    2/(nk).
    """
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    n, dim = x.shape
    k = y.shape[0]
    gamma = silverman_gamma(min(n, k)) if gamma is None else _check_gamma(gamma)
    resolved = resolve_mode(dim, mode)

    # The cross-sum accumulation order must not depend on argument order,
    # otherwise swapping x and y could change the result in the last ulp.
    a, b = x, y
    if (k, y.tobytes()) < (n, x.tobytes()):
        a, b = y, x
    saa = kernels.sum_phi_cross(a, a, 1.0 / (4.0 * gamma), resolved)
    sbb = kernels.sum_phi_cross(b, b, 1.0 / (4.0 * gamma), resolved)
    sab = kernels.sum_phi_cross(a, b, 1.0 / (4.0 * gamma), resolved)
    na = a.shape[0]
    nb = b.shape[0]
    if na == nb:
        pre = (saa + sbb - 2.0 * sab) / (2.0 * na * na * math.sqrt(math.pi * gamma))
    else:
        pre = (saa / (na * na) + sbb / (nb * nb) - 2.0 * (sab / (na * nb))) / (
            2.0 * math.sqrt(math.pi * gamma)
        )
    return CwReport(
        squared_distance=max(pre, 0.0),
        pre_clamp=pre,
        gamma=gamma,
        mode=resolved,
        n=n,
        k=k,
        dim=dim,
    )


def cw2_sample_normal(x, gamma=None, mode=None):
    """Squared Cramer-Wold distance between a sample and N(0, I).

    ``gamma`` defaults to the Silverman rule at the sample size.
    """
    x = _as_sample(x, "x")
    n, dim = x.shape
    gamma = silverman_gamma(n) if gamma is None else _check_gamma(gamma)
    resolved = resolve_mode(dim, mode)
    s_pair = kernels.sum_phi_cross(x, x, 1.0 / (4.0 * gamma), resolved)
    s_norm = kernels.sum_phi_norms(x, 1.0 / (2.0 + 4.0 * gamma), resolved)
    pre = (
        s_pair / math.sqrt(gamma)
        + n * n / math.sqrt(1.0 + gamma)
        - (2.0 * n / math.sqrt(gamma + 0.5)) * s_norm
    ) / (2.0 * n * n * math.sqrt(math.pi))
    return CwReport(
        squared_distance=max(pre, 0.0),
        pre_clamp=pre,
        gamma=gamma,
        mode=resolved,
        n=n,
        k=None,
        dim=dim,
    )


def cw_scalar_product_radial(a, b, gamma, mode=None):
    """Cramer-Wold scalar product of two isotropic Gaussians.

    For N(x, alpha*I) and N(y, beta*I) smoothed with variance gamma the
    sphere integral of the 1-D products collapses to

        (2 pi t)**-0.5 * phi(D, |x - y|^2 / (2 t)),   t = alpha + beta + 2*gamma.

    With alpha = beta = 0 this is exactly the pairwise term of the
    sample-sample closed form.
    """
    for name, g in (("a", a), ("b", b)):
        if g.variance_scale < 0.0 or not math.isfinite(g.variance_scale):
            raise ValueError(f"{name}.variance_scale must be finite and >= 0")
    ma = np.asarray(a.mean, dtype=np.float64).ravel()
    mb = np.asarray(b.mean, dtype=np.float64).ravel()
    if ma.shape != mb.shape:
        raise ValueError(f"mean dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    dim = ma.shape[0]
    gamma = _check_gamma(gamma)
    resolved = resolve_mode(dim, mode)
    t = a.variance_scale + b.variance_scale + 2.0 * gamma
    d2 = float(((ma - mb) ** 2).sum())
    return (2.0 * math.pi * t) ** -0.5 * phi(dim, d2 / (2.0 * t), resolved)
