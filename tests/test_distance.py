"""Tests for the closed-form squared Cramer-Wold distances.

Each closed form is checked against an independent route: hand-computed
values for degenerate inputs, explicit brute-force double loops over the
profile function, the Monte-Carlo slicing oracle, and analytic identities.
"""

import math
import re

import numpy as np
import pytest

from cramerwold import (
    RadialGaussian,
    cw2_monte_carlo,
    cw2_normal_monte_carlo,
    cw2_sample_normal,
    cw2_sample_sample,
    cw_scalar_product_radial,
    phi,
    radial_product_monte_carlo,
    silverman_gamma,
)
from cramerwold.phi import PhiMode

# A single point at the origin against N(0, I_20) with gamma = 1:
# (1/2sqrt(pi)) * (1 + 1/sqrt(2) - 2/sqrt(1.5)), worked out by hand.
ORIGIN_VS_NORMAL_D20_G1 = 0.020907066012813762


def brute_force_cw2(x, y, gamma):
    """Independent oracle: the pairwise closed form, spelled out as loops."""
    n, k = x.shape[0], y.shape[0]
    dim = x.shape[1]

    def pair_sum(a, b):
        return sum(
            phi(dim, float(((p - q) ** 2).sum()) / (4.0 * gamma), PhiMode.EXACT_SERIES)
            for p in a
            for q in b
        )

    return (
        pair_sum(x, x) / n**2 + pair_sum(y, y) / k**2 - 2.0 * pair_sum(x, y) / (n * k)
    ) / (2.0 * math.sqrt(math.pi * gamma))


class TestSilverman:
    def test_values(self):
        assert silverman_gamma(100) == (4.0 / 300.0) ** 0.4
        assert silverman_gamma(1) == (4.0 / 3.0) ** 0.4

    @pytest.mark.parametrize("n", [np.int64(16), np.int32(16)])
    def test_numpy_integer_sizes_match_int(self, n):
        assert silverman_gamma(n) == silverman_gamma(16)

    def test_decreasing_in_n(self):
        vals = [silverman_gamma(n) for n in (1, 4, 16, 64, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, 5.0, None])
    def test_rejects_bad_sizes(self, bad):
        if type(bad) is int:
            message = f"^sample size must be >= 1, got {bad}$"
        else:
            message = f"^sample size must be an integer, got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            silverman_gamma(bad)


def radial_pair(a_var=0.3, b_var=0.1):
    return (RadialGaussian(mean=np.full(5, 0.2), variance_scale=a_var),
            RadialGaussian(mean=np.zeros(5), variance_scale=b_var))


NAMED_GAMMAS = {
    "gamma list": (lambda: cw2_sample_normal(np.eye(3), gamma=[1]),
                   "gamma must be a real number, got [1]"),
    "gamma str": (lambda: cw2_sample_sample(np.eye(3), np.eye(3), gamma="x"),
                  "gamma must be a real number, got 'x'"),
    "gamma bool": (lambda: cw2_sample_normal(np.eye(3), gamma=True),
                   "gamma must be a real number, got True"),
    "gamma None": (lambda: cw_scalar_product_radial(*radial_pair(), None),
                   "gamma must be a real number, got None"),
}


class TestNamedArguments:
    @pytest.mark.parametrize("case", sorted(NAMED_GAMMAS))
    def test_a_bad_gamma_is_named(self, case):
        call, message = NAMED_GAMMAS[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_scalars_are_accepted(self):
        x = np.eye(3)
        assert cw2_sample_normal(x, gamma=np.float64(0.5)) == cw2_sample_normal(x, gamma=0.5)
        assert silverman_gamma(np.int64(64)) == silverman_gamma(64)
        a, b = radial_pair(a_var=np.float64(0.3))
        want = cw_scalar_product_radial(*radial_pair(), 0.5)
        assert cw_scalar_product_radial(a, b, np.float64(0.5)) == want


class TestSampleNormal:
    def test_hand_value_single_point(self):
        rep = cw2_sample_normal(np.zeros((1, 20)), gamma=1.0, mode=PhiMode.EXACT_SERIES)
        assert rep.squared_distance == ORIGIN_VS_NORMAL_D20_G1

    def test_hand_value_degenerate_repeats(self):
        # four copies of the origin are the same distribution as one copy
        rep = cw2_sample_normal(np.zeros((4, 20)), gamma=1.0, mode=PhiMode.EXACT_SERIES)
        assert rep.squared_distance == ORIGIN_VS_NORMAL_D20_G1

    def test_default_gamma_is_silverman_at_n(self, rng):
        x = rng.standard_normal((13, 5))
        assert cw2_sample_normal(x).gamma == silverman_gamma(13)

    def test_orthogonal_invariance(self, rng):
        x = rng.standard_normal((40, 8))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = cw2_sample_normal(x, gamma=0.5, mode=PhiMode.EXACT_SERIES)
        b = cw2_sample_normal(x @ q, gamma=0.5, mode=PhiMode.EXACT_SERIES)
        assert b.squared_distance == pytest.approx(a.squared_distance, rel=1e-10)

    def test_nonnegative_and_clamped(self, rng):
        x = rng.standard_normal((25, 5))
        rep = cw2_sample_normal(x, gamma=0.3, mode=PhiMode.EXACT_SERIES)
        assert rep.squared_distance >= 0.0
        assert rep.pre_clamp >= -1e-10

    def test_agrees_with_monte_carlo(self, rng):
        x = rng.standard_normal((50, 5)) * 1.2 + 0.3
        gamma = silverman_gamma(50)
        closed = cw2_sample_normal(x, mode=PhiMode.EXACT_SERIES).squared_distance
        est = cw2_normal_monte_carlo(x, num_directions=100_000, seed=11, gamma=gamma)
        assert abs(closed - est.estimate) <= 4.0 * est.std_error

    def test_shifted_sample_is_farther(self, rng):
        x = rng.standard_normal((200, 5))
        near = cw2_sample_normal(x, gamma=0.5, mode=PhiMode.EXACT_SERIES)
        far = cw2_sample_normal(x + 2.0, gamma=0.5, mode=PhiMode.EXACT_SERIES)
        assert far.squared_distance > near.squared_distance

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cw2_sample_normal(np.zeros(5))
        with pytest.raises(ValueError):
            cw2_sample_normal(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="^x must contain at least one point$"):
            cw2_sample_normal(np.zeros((0, 5)))
        with pytest.raises(ValueError):
            cw2_sample_normal(np.full((3, 5), np.nan))
        with pytest.raises(ValueError):
            cw2_sample_normal(np.zeros((3, 5)), gamma=0.0)


class TestSampleSample:
    def test_identical_samples_give_exact_zero(self, rng):
        x = rng.standard_normal((30, 5))
        rep = cw2_sample_sample(x, x.copy(), gamma=0.6, mode=PhiMode.EXACT_SERIES)
        assert rep.squared_distance == 0.0
        assert rep.pre_clamp == 0.0

    def test_symmetry_is_bitwise(self, rng):
        x = rng.standard_normal((13, 5))
        y = rng.standard_normal((7, 5)) * 1.4 - 0.3
        a = cw2_sample_sample(x, y, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        b = cw2_sample_sample(y, x, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        assert a.squared_distance == b.squared_distance

    def test_single_point_formula(self, rng):
        # n = k = 1 collapses to (1/sqrt(pi*gamma)) * (1 - phi(|x-y|^2/(4*gamma)))
        x = rng.standard_normal((1, 20))
        y = rng.standard_normal((1, 20)) * 1.3 + 0.2
        gamma = 0.8
        rep = cw2_sample_sample(x, y, gamma=gamma, mode=PhiMode.EXACT_SERIES)
        s = float(((x - y) ** 2).sum()) / (4.0 * gamma)
        direct = (1.0 - phi(20, s, PhiMode.EXACT_SERIES)) / math.sqrt(math.pi * gamma)
        assert rep.squared_distance == direct

    def test_unequal_sizes_against_brute_force(self, rng):
        x = rng.standard_normal((13, 5))
        y = rng.standard_normal((7, 5)) * 1.4 - 0.3
        rep = cw2_sample_sample(x, y, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        assert rep.squared_distance == pytest.approx(
            brute_force_cw2(x, y, 0.6), rel=1e-12
        )

    def test_equal_sizes_against_brute_force(self, rng):
        x = rng.standard_normal((9, 5))
        y = rng.standard_normal((9, 5)) + 0.5
        rep = cw2_sample_sample(x, y, gamma=0.4, mode=PhiMode.EXACT_SERIES)
        assert rep.squared_distance == pytest.approx(
            brute_force_cw2(x, y, 0.4), rel=1e-12
        )

    def test_default_gamma_uses_smaller_sample(self, rng):
        x = rng.standard_normal((100, 5))
        y = rng.standard_normal((9, 5))
        assert cw2_sample_sample(x, y).gamma == silverman_gamma(9)

    def test_orthogonal_invariance(self, rng):
        x = rng.standard_normal((13, 5))
        y = rng.standard_normal((7, 5)) * 1.4 - 0.3
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = cw2_sample_sample(x, y, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        b = cw2_sample_sample(x @ q, y @ q, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        assert b.squared_distance == pytest.approx(a.squared_distance, rel=1e-10)

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    def test_large_offsets_leave_the_distance_unchanged(self, offset):
        # Points on a 2^-20 grid of [-2, 2.5): shifting them by the offset is
        # exact, so any change in the distance is the program's rounding
        rng = np.random.default_rng(2)
        x = rng.integers(-(2**21), 2**21, (200, 5)) / 2.0**20
        y = rng.integers(-(2**21), 2**21, (200, 5)) / 2.0**20 + 0.5
        assert np.array_equal((x + offset) - offset, x)
        base = cw2_sample_sample(x, y, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        moved = cw2_sample_sample(x + offset, y + offset, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        assert moved.squared_distance == pytest.approx(base.squared_distance, rel=1e-12)

    def test_near_identical_stays_clamped(self, rng):
        x = rng.standard_normal((30, 5))
        rep = cw2_sample_sample(x, x + 1e-14, gamma=0.6, mode=PhiMode.EXACT_SERIES)
        assert rep.pre_clamp >= -1e-10
        assert rep.squared_distance >= 0.0

    def test_agrees_with_monte_carlo(self, rng):
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal((40, 5)) * 1.5 + 0.7
        gamma = silverman_gamma(40)
        closed = cw2_sample_sample(x, y, mode=PhiMode.EXACT_SERIES).squared_distance
        est = cw2_monte_carlo(x, y, num_directions=100_000, seed=13, gamma=gamma)
        assert abs(closed - est.estimate) <= 4.0 * est.std_error

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            cw2_sample_sample(rng.standard_normal((4, 5)), rng.standard_normal((4, 6)))

    def test_report_fields(self, rng):
        x = rng.standard_normal((13, 20))
        y = rng.standard_normal((7, 20))
        rep = cw2_sample_sample(x, y)
        assert (rep.n, rep.k, rep.dim) == (13, 7, 20)
        assert rep.mode is PhiMode.ASYMPTOTIC
        rep2 = cw2_sample_normal(x)
        assert rep2.k is None


class TestRadialScalarProduct:
    def test_identical_gaussians_closed_value(self, rng):
        mean = rng.standard_normal(20)
        g = RadialGaussian(mean=mean, variance_scale=0.3)
        t = 0.3 + 0.3 + 2.0 * 0.5
        assert cw_scalar_product_radial(g, g, 0.5) == (2.0 * math.pi * t) ** -0.5

    def test_point_masses_reduce_to_pairwise_term(self, rng):
        # with both variance scales zero the product combination rebuilds
        # the two-point distance exactly
        x = rng.standard_normal((1, 20))
        y = rng.standard_normal((1, 20)) * 1.3 + 0.2
        gamma = 0.8
        dx = RadialGaussian(mean=x[0], variance_scale=0.0)
        dy = RadialGaussian(mean=y[0], variance_scale=0.0)
        combo = (
            cw_scalar_product_radial(dx, dx, gamma, mode=PhiMode.EXACT_SERIES)
            + cw_scalar_product_radial(dy, dy, gamma, mode=PhiMode.EXACT_SERIES)
            - 2.0 * cw_scalar_product_radial(dx, dy, gamma, mode=PhiMode.EXACT_SERIES)
        )
        rep = cw2_sample_sample(x, y, gamma=gamma, mode=PhiMode.EXACT_SERIES)
        assert combo == pytest.approx(rep.squared_distance, rel=1e-14)

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(3101)
        a = RadialGaussian(mean=rng.standard_normal(20), variance_scale=0.3)
        b = RadialGaussian(mean=rng.standard_normal(20) * 0.8 + 0.4, variance_scale=0.7)
        closed = cw_scalar_product_radial(a, b, 0.5, mode=PhiMode.EXACT_SERIES)
        est = radial_product_monte_carlo(a, b, 0.5, num_directions=200_000, seed=7)
        assert abs(closed - est.estimate) <= 4.0 * est.std_error

    def test_rejects_negative_variance(self, rng):
        good = RadialGaussian(mean=rng.standard_normal(5), variance_scale=0.1)
        bad = RadialGaussian(mean=rng.standard_normal(5), variance_scale=-0.1)
        with pytest.raises(ValueError):
            cw_scalar_product_radial(good, bad, 0.5)

    @pytest.mark.parametrize("field, a_var, b_var, a_shift, b_shift, b_dim", [
        ("b.variance_scale", 0.1, -0.1, 0.0, 0.0, 5),
        ("b.variance_scale", 0.1, -1.5, 0.0, 0.0, 5),
        ("a.variance_scale", math.nan, 0.1, 0.0, 0.0, 5),
        ("a.variance_scale", math.inf, 0.1, 0.0, 0.0, 5),
        ("b.mean", 0.1, 0.1, 0.0, math.nan, 5),
        ("a.mean", 0.1, 0.1, -math.inf, 0.0, 5),
        ("a.variance_scale must be a real number, got None", None, 0.1, 0.0, 0.0, 5),
        ("b.variance_scale must be a real number, got '0.1'", 0.1, "0.1", 0.0, 0.0, 5),
        ("mean dimension mismatch: 5 vs 6", 0.1, 0.1, 0.0, 0.0, 6),
    ])
    def test_closed_form_and_oracle_reject_a_bad_field_by_name(
        self, rng, field, a_var, b_var, a_shift, b_shift, b_dim
    ):
        a = RadialGaussian(mean=rng.standard_normal(5) + a_shift, variance_scale=a_var)
        b = RadialGaussian(mean=rng.standard_normal(b_dim) + b_shift, variance_scale=b_var)
        with pytest.raises(ValueError, match=field):
            cw_scalar_product_radial(a, b, 0.5)
        with pytest.raises(ValueError, match=field):
            radial_product_monte_carlo(a, b, 0.5, num_directions=16, seed=0)


class TestSelfConsistency:
    def test_normal_sample_matches_paired_route(self):
        """A large normal sample: distance-to-N(0,I) vs distance to a twin sample.

        This mirrors the published protocol exactly.  It fails, and the
        failure is structural, not a bug: both estimators are V-statistics
        whose means at i.i.d. normal input differ by a factor of two
        (each sample contributes an O(1/n) self-interaction term, and the
        two-sample route pays it twice).  Measured here: mean paired value
        9.46e-4 vs mean normal value 4.72e-4, gap 4.7e-4 against an
        acceptance band 3*std = 1.1e-4.  See the Tests section of README.md
        for the derivation.
        """
        n, dim, seeds = 2000, 20, 20
        gamma = silverman_gamma(n)
        to_normal = np.empty(seeds)
        to_twin = np.empty(seeds)
        for i in range(seeds):
            r = np.random.default_rng(1000 + i)
            x = r.standard_normal((n, dim))
            y = r.standard_normal((n, dim))
            to_normal[i] = cw2_sample_normal(
                x, gamma=gamma, mode=PhiMode.EXACT_SERIES
            ).squared_distance
            to_twin[i] = cw2_sample_sample(
                x, y, gamma=gamma, mode=PhiMode.EXACT_SERIES
            ).squared_distance
        gap = abs(to_normal.mean() - to_twin.mean())
        band = 3.0 * to_twin.std(ddof=1)
        assert gap <= band, (
            f"gap {gap:.6e} exceeds 3*std {band:.6e} "
            f"(normal route {to_normal.mean():.6e}, paired route {to_twin.mean():.6e})"
        )
