"""Sliced Monte-Carlo estimators of the squared Cramer-Wold distance.

This is the independent validation route for the closed forms in
:mod:`cramerwold.distance`: project onto random unit directions, evaluate the
squared L2 distance between the Gaussian-smoothed 1-D projections in closed
form (plain 1-D Gaussian algebra, never the profile function), and average
over directions.  Directions come from a counter-based Philox stream and no
value depends on the thread count, so runs are reproducible on any platform.
"""

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .distance import RadialGaussian, _check_gamma, _radial_means, _samples


class McEstimate(NamedTuple):
    estimate: float
    std_error: float


def sample_directions(num_directions, dim, seed):
    """Unit vectors uniform on the sphere: normalized i.i.d. normals, Philox-seeded."""
    if num_directions < 1:
        raise ValueError(f"num_directions must be >= 1, got {num_directions}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal((num_directions, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def l2_smoothed_1d(a, b, gamma):
    """Squared L2 distance between two Gaussian-smoothed 1-D samples.

    Each sample is turned into an equal-weight mixture of N(a_i, gamma)
    densities; the squared L2 distance between the two mixtures has a closed
    form through pairwise Gaussian products N(a_i - b_j, 2*gamma)(0).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size < 1 or b.size < 1:
        raise ValueError("samples must be non-empty")
    gamma = _check_gamma(gamma)
    return float(kernels.mc_pair_values(a[None, :], b[None, :], gamma)[0])


def _summarize(vals):
    est = float(vals.mean())
    if vals.size > 1:
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    else:
        se = float("nan")
    return McEstimate(est, se)


def cw2_monte_carlo(x, y, num_directions, seed, gamma=None):
    """Monte-Carlo estimate of the squared distance between two samples.

    Returns the mean per-direction value and its standard error.  Identical
    samples give (0, 0): their projections coincide in every direction, where
    the per-direction value is exactly 0.
    """
    x, y, gamma = _samples(x, y, gamma)
    if num_directions < 2:
        raise ValueError(f"num_directions must be >= 2, got {num_directions}")
    v = sample_directions(num_directions, x.shape[1], seed)
    px = v @ x.T
    py = v @ y.T
    return _summarize(kernels.mc_pair_values(px, py, gamma))


def cw2_normal_monte_carlo(x, num_directions, seed, gamma=None):
    """Monte-Carlo estimate of the squared distance between a sample and N(0, I).

    The projection of N(0, I) onto any unit direction is N(0, 1), so each
    direction contributes the smoothed 1-D distance to N(0, 1 + gamma).
    """
    x, _, gamma = _samples(x, None, gamma)
    if num_directions < 2:
        raise ValueError(f"num_directions must be >= 2, got {num_directions}")
    v = sample_directions(num_directions, x.shape[1], seed)
    px = v @ x.T
    return _summarize(kernels.mc_normal_values(px, gamma))


def radial_product_monte_carlo(a: RadialGaussian, b: RadialGaussian, gamma, num_directions, seed):
    """Monte-Carlo sphere average of the 1-D products of two smoothed Gaussians.

    Projecting N(x, alpha*I) onto direction v gives N(v.x, alpha); the 1-D
    L2 product of the two smoothed projections is N(v.(x-y), alpha+beta+2*gamma)(0).
    Validates the closed form of ``cw_scalar_product_radial``.
    """
    if num_directions < 2:
        raise ValueError(f"num_directions must be >= 2, got {num_directions}")
    gamma = _check_gamma(gamma)
    ma, mb = _radial_means(a, b)
    t = a.variance_scale + b.variance_scale + 2.0 * gamma
    v = sample_directions(num_directions, ma.shape[0], seed)
    proj = v @ (ma - mb)
    vals = np.exp(-(proj * proj) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return _summarize(vals)
