"""Tests for the Monte-Carlo slicing oracle.

The oracle itself is validated against yet another independent route:
hand-computable two-point values, a dense trapezoid integration of the
smoothed 1-D densities, and the one case where slicing is exact by
symmetry (a point mass at the origin, where every direction contributes
the identical value).
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from cramerwold import (
    RadialGaussian,
    _vectorized,
    cw2_monte_carlo,
    cw2_normal_monte_carlo,
    radial_product_monte_carlo,
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

    @pytest.mark.parametrize("gamma", [None, "0.5", [0.5], True])
    def test_a_bad_gamma_is_named(self, gamma):
        with pytest.raises(ValueError, match=f"^gamma must be a real number, got {re.escape(repr(gamma))}$"):
            l2_smoothed_1d([0.0, 1.0], [0.5], gamma)


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


def whole_array_route(x, y, num_directions, seed, gamma):
    """Every direction drawn and projected at once, then the per-direction kernels."""
    v = sample_directions(num_directions, x.shape[1], seed)
    if y is None:
        vals = _vectorized.mc_normal_values(v @ x.T, gamma)
    else:
        vals = _vectorized.mc_pair_values(v @ x.T, v @ y.T, gamma)
    return (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(num_directions)))


class TestStreamedDirections:
    # 1023-1025, 2049 and 3089 sit where the count of streamed chunks changes
    # (1,024 directions fill one at n = 64); 9000 spans several chunks at every n.  At
    # dim 300, and with 2 points against 64, the projection blocks and chunks
    # are sized by rows x points, not by dim or by the larger sample.
    NDIRS = (2, 35, 1023, 1024, 1025, 1034, 2049, 3089, 9000)

    @pytest.mark.parametrize("n, k", [(64, 64), (40, 64), (10, 7), (2, 64)])
    @pytest.mark.parametrize("dim", [2, 5, 64, 100, 300])
    def test_estimates_equal_the_whole_array_route(self, dim, n, k):
        r = np.random.default_rng(1900 + dim)
        x = r.standard_normal((n, dim))
        y = r.standard_normal((k, dim)) * 1.3 + 0.2
        for ndir in self.NDIRS:
            seed = ndir + dim
            got = cw2_monte_carlo(x, y, ndir, seed, gamma=0.35)
            assert tuple(got) == whole_array_route(x, y, ndir, seed, 0.35), ("pair", ndir)
            got = cw2_normal_monte_carlo(x, ndir, seed, gamma=0.35)
            assert tuple(got) == whole_array_route(x, None, ndir, seed, 0.35), ("normal", ndir)

    def test_memory_does_not_grow_with_the_direction_count(self):
        # all 200,000 directions and projections at once would take about 300 MB
        r = np.random.default_rng(1907)
        x = r.standard_normal((64, 64))
        y = r.standard_normal((64, 64)) + 0.1
        tracemalloc.start()
        try:
            cw2_monte_carlo(x, y, 200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def radial_call(num, seed):
    a = RadialGaussian(mean=np.full(5, 0.2), variance_scale=0.3)
    b = RadialGaussian(mean=np.zeros(5), variance_scale=0.1)
    return radial_product_monte_carlo(a, b, 0.5, num, seed)


ESTIMATORS = {
    "sample_directions": lambda num, seed: sample_directions(num, 5, seed),
    "cw2_monte_carlo": lambda num, seed: cw2_monte_carlo(
        np.eye(4, 5), np.eye(4, 5) + 0.5, num, seed),
    "cw2_normal_monte_carlo": lambda num, seed: cw2_normal_monte_carlo(np.eye(4, 5), num, seed),
    "radial_product_monte_carlo": radial_call,
}


class TestIntegerArguments:
    # before, a float count raised a bare TypeError, a float seed failed inside
    # SeedSequence and seed=True ran as seed 1
    @pytest.mark.parametrize("name, value", [
        ("num_directions", 100.0),
        ("num_directions", True),
        ("seed", 1.5),
        ("seed", True),
        ("num_directions", None),
        ("seed", None),
    ])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_non_integer_is_named(self, estimator, name, value):
        args = {"num": 100, "seed": 4}
        args["num" if name == "num_directions" else "seed"] = value
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            ESTIMATORS[estimator](**args)

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_numpy_integers_are_integers(self, estimator):
        got = ESTIMATORS[estimator](np.int64(100), np.uint32(4))
        want = ESTIMATORS[estimator](100, 4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [2.5, None, True, 5.0])
    def test_a_bad_dimension_is_named(self, dim):
        with pytest.raises(ValueError, match=f"^dim must be an integer, got {dim!r}$"):
            sample_directions(10, dim, 0)

    def test_a_numpy_dimension_is_an_integer(self):
        assert np.array_equal(sample_directions(10, np.int64(5), 0), sample_directions(10, 5, 0))
