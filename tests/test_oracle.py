"""Tests for the Monte-Carlo slicing oracle.

The oracle itself is validated against yet another independent route:
hand-computable two-point values, a dense trapezoid integration of the
smoothed 1-D densities, and the one case where slicing is exact by
symmetry (a point mass at the origin, where every direction contributes
the identical value).
"""

import math

import numpy as np
import pytest

from cramerwold import (
    cw2_monte_carlo,
    cw2_normal_monte_carlo,
    sample_directions,
    silverman_gamma,
)
from cramerwold.oracle import l2_smoothed_1d


class TestSmoothed1d:
    def test_two_point_closed_form(self):
        # singletons {0} and {t}: (1/sqrt(pi*g)) * (1 - exp(-t^2/(4g)))
        for t in (0.7, 2.5):
            got = l2_smoothed_1d(np.array([0.0]), np.array([t]), 0.5)
            ref = (1.0 - math.exp(-t * t / 2.0)) / math.sqrt(math.pi * 0.5)
            assert got == pytest.approx(ref, rel=1e-14)

    def test_identical_samples_give_exact_zero(self):
        a = np.random.default_rng(5).standard_normal(20)
        assert l2_smoothed_1d(a, a.copy(), 0.5) == 0.0

    def test_identical_samples_give_exact_zero_for_any_sample(self):
        r = np.random.default_rng(6)
        for size in (1, 2, 20, 300):
            a = r.standard_normal(size) * 3.0 + 1e4
            assert l2_smoothed_1d(a, a.copy(), 0.5) == 0.0

    def test_against_trapezoid_integration(self):
        r = np.random.default_rng(2024)
        a = r.standard_normal(32)
        b = r.standard_normal(32) * 1.3 + 0.4
        gamma = 0.5
        u = np.linspace(-12.0, 12.0, 200_001)
        norm = 32 * math.sqrt(2.0 * math.pi * gamma)
        da = np.exp(-((u[:, None] - a) ** 2) / (2.0 * gamma)).sum(axis=1) / norm
        db = np.exp(-((u[:, None] - b) ** 2) / (2.0 * gamma)).sum(axis=1) / norm
        trap = float(np.trapezoid((da - db) ** 2, u))
        assert l2_smoothed_1d(a, b, gamma) == pytest.approx(trap, rel=1e-9)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            l2_smoothed_1d(np.array([]), np.array([1.0]), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples_by_name(self, bad):
        with pytest.raises(ValueError, match="^a contains non-finite values$"):
            l2_smoothed_1d([bad], [0.0], 0.5)
        with pytest.raises(ValueError, match="^b contains non-finite values$"):
            l2_smoothed_1d([0.0, 1.0], [2.0, bad], 0.5)


class TestDirections:
    def test_unit_norms(self):
        v = sample_directions(50_000, 8, seed=21)
        assert v.shape == (50_000, 8)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_mean_near_zero(self):
        v = sample_directions(50_000, 8, seed=21)
        assert np.abs(v.mean(axis=0)).max() < 4.0 / math.sqrt(50_000)

    def test_second_moment_is_isotropic(self):
        v = sample_directions(50_000, 8, seed=21)
        sm = v.T @ v / 50_000
        assert np.abs(np.diag(sm) - 1.0 / 8.0).max() < 0.01
        off = sm - np.diag(np.diag(sm))
        assert np.abs(off).max() < 0.01

    def test_seed_determinism(self):
        assert np.array_equal(
            sample_directions(100, 5, seed=9), sample_directions(100, 5, seed=9)
        )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            sample_directions(0, 5, seed=1)
        with pytest.raises(ValueError):
            sample_directions(10, 0, seed=1)

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed"):
            sample_directions(10, 5, seed=-1)


class TestNormalEstimator:
    def test_point_mass_is_exact_by_symmetry(self):
        # every direction projects the origin to the same 1-D problem, so the
        # estimate is constant across directions: it must hit the hand value
        # to float noise with (numerically) zero spread
        est = cw2_normal_monte_carlo(
            np.zeros((1, 20)), num_directions=1_000_000, seed=0, gamma=1.0
        )
        assert abs(est.estimate - 0.020907066012813762) <= 1e-15
        assert est.std_error <= 1e-15

    def test_decreases_with_sample_size(self):
        # larger normal samples look more like N(0, I)
        ests = []
        for n, dirs in ((50, 4000), (200, 2000), (800, 500)):
            x = np.random.default_rng(77).standard_normal((n, 5))
            e = cw2_normal_monte_carlo(
                x, num_directions=dirs, seed=3, gamma=silverman_gamma(n)
            )
            ests.append(e)
        for big, small in zip(ests, ests[1:]):
            # gaps between consecutive estimates dwarf their standard errors
            assert small.estimate + 6.0 * small.std_error < big.estimate

    def test_shifted_sample_is_farther(self):
        x = np.random.default_rng(88).standard_normal((200, 5))
        near = cw2_normal_monte_carlo(x, num_directions=2000, seed=5, gamma=0.5)
        far = cw2_normal_monte_carlo(x + 2.0, num_directions=2000, seed=5, gamma=0.5)
        assert far.estimate > 100.0 * near.estimate

    def test_rejects_single_direction(self):
        with pytest.raises(ValueError):
            cw2_normal_monte_carlo(np.zeros((2, 5)), num_directions=1, seed=0)


class TestPairEstimator:
    def test_identical_samples_short_circuit(self):
        x = np.random.default_rng(6).standard_normal((10, 5))
        est = cw2_monte_carlo(x, x.copy(), num_directions=100, seed=0)
        assert est == (0.0, 0.0)

    def test_seed_determinism(self, rng):
        x = rng.standard_normal((20, 5))
        y = rng.standard_normal((20, 5)) + 1.0
        a = cw2_monte_carlo(x, y, num_directions=500, seed=42, gamma=0.5)
        b = cw2_monte_carlo(x, y, num_directions=500, seed=42, gamma=0.5)
        assert a == b

    def test_default_gamma_uses_smaller_sample(self, rng):
        # same directions, so any difference comes from the gamma default
        x = rng.standard_normal((30, 5))
        y = rng.standard_normal((8, 5)) + 0.5
        auto = cw2_monte_carlo(x, y, num_directions=200, seed=1)
        explicit = cw2_monte_carlo(
            x, y, num_directions=200, seed=1, gamma=silverman_gamma(8)
        )
        assert auto == explicit

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            cw2_monte_carlo(
                rng.standard_normal((4, 5)),
                rng.standard_normal((4, 6)),
                num_directions=10,
                seed=0,
            )
