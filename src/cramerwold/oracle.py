"""Sliced Monte-Carlo estimators of the squared Cramer-Wold distance.

This is the independent validation route for the closed forms in
:mod:`cramerwold.distance`: project onto random unit directions, evaluate the
squared L2 distance between the Gaussian-smoothed 1-D projections in closed
form (plain 1-D Gaussian algebra, never the profile function), and average
over directions.  Directions come from a counter-based Philox stream and no
value depends on the thread count, so runs are reproducible on any platform.
The two sample estimators draw, normalise and project their directions one
chunk at a time on the threads that sum the chunk, taking consecutive pieces
of the stream, so their memory is bounded by the chunk size, not by the
direction count, and each value equals the one a whole draw gives.
"""

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from ._vectorized import _unit_rows, mc_direction_values
from .distance import RadialGaussian, _check_gamma, _radial_means, _samples
from .phi import _at_least


class McEstimate(NamedTuple):
    estimate: float
    std_error: float


def sample_directions(num_directions, dim, seed):
    """Unit vectors uniform on the sphere: normalized i.i.d. normals, Philox-seeded."""
    _at_least("num_directions", num_directions, 1)
    rng = np.random.Generator(np.random.Philox(_at_least("seed", seed, 0)))
    return _unit_rows(rng.standard_normal((num_directions, _at_least("dim", dim, 1))))


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
    for name, sample in (("a", a), ("b", b)):
        if not np.isfinite(sample).all():
            raise ValueError(f"{name} contains non-finite values")
    gamma = _check_gamma(gamma)
    # as two equal directions: a one-column strip would be summed pairwise, a wider one by rows
    return float(kernels.mc_pair_values(np.stack((a, a)), np.stack((b, b)), gamma)[0])


def _summarize(vals):  # at least two directions
    return McEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size)))


def cw2_monte_carlo(x, y, num_directions, seed, gamma=None):
    """Monte-Carlo estimate of the squared distance between two samples.

    Returns the mean per-direction value and its standard error.  Identical
    samples give (0, 0): their projections coincide in every direction, where
    the per-direction value is exactly 0.
    """
    x, y, gamma = _samples(x, y, gamma)
    _at_least("num_directions", num_directions, 2)
    rng = np.random.Generator(np.random.Philox(_at_least("seed", seed, 0)))
    return _summarize(mc_direction_values((x, y), gamma, num_directions, rng))


def cw2_normal_monte_carlo(x, num_directions, seed, gamma=None):
    """Monte-Carlo estimate of the squared distance between a sample and N(0, I).

    The projection of N(0, I) onto any unit direction is N(0, 1), so each
    direction contributes the smoothed 1-D distance to N(0, 1 + gamma).
    """
    x, _, gamma = _samples(x, None, gamma)
    _at_least("num_directions", num_directions, 2)
    rng = np.random.Generator(np.random.Philox(_at_least("seed", seed, 0)))
    return _summarize(mc_direction_values((x,), gamma, num_directions, rng))


def radial_product_monte_carlo(a: RadialGaussian, b: RadialGaussian, gamma, num_directions, seed):
    """Monte-Carlo sphere average of the 1-D products of two smoothed Gaussians.

    Projecting N(x, alpha*I) onto direction v gives N(v.x, alpha); the 1-D
    L2 product of the two smoothed projections is N(v.(x-y), alpha+beta+2*gamma)(0).
    Validates the closed form of ``cw_scalar_product_radial``.
    """
    gamma = _check_gamma(gamma)
    ma, mb = _radial_means(a, b)
    t = a.variance_scale + b.variance_scale + 2.0 * gamma
    v = sample_directions(_at_least("num_directions", num_directions, 2), ma.shape[0], seed)
    proj = v @ (ma - mb)
    vals = np.exp(-(proj * proj) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return _summarize(vals)
