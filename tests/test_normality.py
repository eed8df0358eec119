"""Tests for the raw Mardia normality statistics."""

import math

import numpy as np
import pytest

from cramerwold import mardia


class TestHandValues:
    def test_origin_sample(self):
        stats = mardia(np.zeros((3, 5)))
        assert stats.skewness == 0.0
        assert stats.kurtosis == 0.0
        assert stats.normalized_kurtosis == -5.0 * 7.0

    def test_antipodal_unit_vectors(self):
        # {e1, -e1}: the four cubed dot products cancel pairwise, and both
        # points have unit norm
        x = np.zeros((2, 4))
        x[0, 0] = 1.0
        x[1, 0] = -1.0
        stats = mardia(x)
        assert stats.skewness == 0.0
        assert stats.kurtosis == 1.0
        assert stats.normalized_kurtosis == 1.0 - 4.0 * 6.0

    def test_single_point_moments(self, rng):
        x = rng.standard_normal((1, 6))
        norm2 = float((x**2).sum())
        stats = mardia(x)
        assert stats.skewness == pytest.approx(norm2**3, rel=1e-13)
        assert stats.kurtosis == pytest.approx(norm2**2, rel=1e-13)


class TestExactScalings:
    def test_doubling_scales_moments_exactly(self, rng):
        # scaling by 2 multiplies each dot product by 4: cubes pick up a
        # factor 64 and fourth powers a factor 16, both powers of two, so
        # the scaled statistics are bit-identical multiples
        x = rng.standard_normal((25, 6))
        base = mardia(x)
        scaled = mardia(2.0 * x)
        assert scaled.skewness == 64.0 * base.skewness
        assert scaled.kurtosis == 16.0 * base.kurtosis

    def test_sign_flip_preserves_both(self, rng):
        x = rng.standard_normal((25, 6))
        base = mardia(x)
        flipped = mardia(-x)
        assert flipped.skewness == base.skewness
        assert flipped.kurtosis == base.kurtosis


class TestInvariances:
    def test_orthogonal_invariance(self, rng):
        x = rng.standard_normal((40, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = mardia(x)
        b = mardia(x @ q)
        assert b.skewness == pytest.approx(a.skewness, rel=1e-9, abs=1e-9)
        assert b.kurtosis == pytest.approx(a.kurtosis, rel=1e-9)

    def test_sign_symmetric_sample_has_tiny_skewness(self, rng):
        # a sample closed under negation has exactly cancelling cube terms
        half = rng.standard_normal((30, 5))
        x = np.vstack([half, -half])
        assert abs(mardia(x).skewness) <= 1e-9


def brute_force_cube_sum(x):
    return math.fsum(float(np.dot(a, b)) ** 3 for a in x for b in x)


class TestRoutes:
    """The cube sum takes the Gram route when n <= D^2, else the moment tensor."""

    # (n, D) on each side of D^2 = n; (259, 20) spans 3 x 3 Gram tiles
    SHAPES = [(25, 5), (26, 5), (40, 8), (150, 4), (259, 20)]

    @pytest.mark.parametrize("n, dim", SHAPES)
    def test_matches_brute_force_double_loop(self, rng, n, dim):
        x = rng.standard_normal((n, dim)) + 0.3
        assert mardia(x).skewness == pytest.approx(brute_force_cube_sum(x) / n**2, rel=1e-12)

    @pytest.mark.parametrize("n, dim", SHAPES)
    def test_doubling_and_sign_flip_are_exact(self, rng, n, dim):
        x = rng.standard_normal((n, dim))
        base = mardia(x)
        assert mardia(2.0 * x).skewness == 64.0 * base.skewness
        assert mardia(-x).skewness == base.skewness

    def test_tensor_route_skewness_is_nonnegative(self, rng):
        # a sample closed under negation has skewness 0; the tensor route is
        # a sum of squares, so rounding cannot push it below 0
        for _ in range(20):
            half = rng.standard_normal((30, 5))
            assert mardia(np.vstack([half, -half])).skewness >= 0.0


class TestStatisticalBehaviour:
    def test_normal_sample_has_small_normalized_kurtosis(self):
        x = np.random.default_rng(314).standard_normal((20_000, 10))
        stats = mardia(x)
        # population value is D(D+2) = 120; the deviation should be well
        # under a percent at this sample size
        assert abs(stats.normalized_kurtosis) < 1.0

    def test_heavy_tails_raise_kurtosis(self, rng):
        x = rng.standard_normal((5000, 5))
        heavy = x * rng.exponential(1.0, size=(5000, 1))
        assert mardia(heavy).kurtosis > mardia(x).kurtosis

    def test_report_fields(self, rng):
        stats = mardia(rng.standard_normal((17, 4)))
        assert (stats.n, stats.dim) == (17, 4)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            mardia(np.zeros(10))
