"""Tests for the radial kernel profile and its evaluation modes.

Reference values were computed offline with independent methods: a
truncated modified-Bessel series for the two-dimensional profile, a
10^4-node Gauss-Legendre evaluation of the slice integral for the
general profile, and central finite differences for the derivative.
The vectorized profile is also checked against mpmath's 1F1 at 40 digits
and the two-dimensional fit against scipy's exponentially scaled I0.
"""

import math

import numpy as np
import pytest

from cramerwold import phi, phi_asymptotic, phi_asymptotic_derivative, phi_bessel_d2, phi_exact
from cramerwold import _vectorized
from cramerwold.phi import PhiMode, resolve_mode


def bessel_series_phi2(s, terms=120):
    """Independent oracle: exp(-s/2) * I0(s/2) via the ascending series.

    I0(x) = sum_k (x/2)^(2k) / (k!)^2, summed in double precision.
    """
    x = 0.5 * s
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= (x / (2.0 * k)) ** 2
        total += term
        if term < 1e-18 * total:
            break
    return math.exp(-x) * total


class TestExactProfile:
    def test_value_at_zero_is_one(self):
        for dim in (2, 3, 5, 20, 64):
            assert phi_exact(dim, 0.0) == 1.0

    @pytest.mark.parametrize(
        "dim, s, expected",
        [
            # 10^4-node Gauss-Legendre slice-integral references
            (5, 3.0, 0.6428762173818648),
            (20, 50.0, 0.3973358408394826),
            (64, 5.0, 0.9297857431701694),
        ],
    )
    def test_against_quadrature_oracle(self, dim, s, expected):
        assert phi_exact(dim, s) == pytest.approx(expected, rel=2e-12)

    def test_dim2_matches_bessel_series(self):
        for s in (0.1, 1.0, 4.0, 7.5, 20.0, 39.0):
            assert phi_exact(2, s) == pytest.approx(bessel_series_phi2(s), rel=1e-12)

    def test_series_and_large_argument_branches_meet(self):
        # the series serves s <= 40 or s < D, the expansion the rest;
        # compare the two implementations on either side of each seam
        def at(branch, dim, s):
            return branch(float(dim), np.array([s]))[0]

        series = _vectorized._phi_series_vec
        expansion = _vectorized._phi_expansion_vec
        for dim in (2, 5, 20):
            assert at(series, dim, 40.0) == pytest.approx(at(expansion, dim, 40.0), rel=1e-12)
        for dim in (64, 200, 784):
            below = at(series, dim, np.nextafter(float(dim), 0.0))
            assert below == pytest.approx(at(expansion, dim, float(dim)), rel=1e-12)

    @pytest.mark.parametrize("dim", [5, 64, 200])
    def test_value_does_not_depend_on_its_batch(self, dim):
        s = np.linspace(40.0, dim, 302)[1:-1]
        batch = _vectorized.phi_values(dim, s, _vectorized.MODE_EXACT)
        alone = [_vectorized.phi_values(dim, s[i:i + 1], _vectorized.MODE_EXACT)[0]
                 for i in range(s.size)]
        assert np.array_equal(batch, alone)

    def test_strictly_decreasing_on_grid(self):
        for dim in (2, 5, 20, 64):
            grid = np.linspace(0.0, 120.0, 241)
            vals = np.array([phi_exact(dim, s) for s in grid])
            assert np.all(np.diff(vals) < 0.0)

    def test_bounded_in_unit_interval(self):
        for dim in (3, 20):
            for s in (0.0, 0.5, 10.0, 80.0, 300.0):
                v = phi_exact(dim, s)
                assert 0.0 < v <= 1.0

    def test_increasing_in_dimension(self):
        # larger ambient dimension concentrates the slice integral near 0
        s = 12.0
        vals = [phi_exact(d, s) for d in (3, 5, 10, 20, 64)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestProfileAgainstHypergeometric:
    """phi_values against 1F1(1/2; D/2; -s) from mpmath at 40 digits."""

    @staticmethod
    def reference(dim, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return np.array(
                [float(mpmath.hyp1f1(0.5, mpmath.mpf(dim) / 2, -mpmath.mpf(x))) for x in s]
            )

    @staticmethod
    def branch_grids(dim):
        # series s <= 40 or s < D, expansion s >= max(D, 40)
        series = np.linspace(0.0, 40.0, 81)
        if dim > 40:
            series = np.concatenate([series, np.linspace(40.25, dim - 0.25, 48)])
        return {"series": series, "expansion": np.geomspace(max(dim, 40.0), 1e4, 40)}

    @pytest.mark.parametrize("dim", [2, 3, 5, 20, 64, 200, 784])
    def test_every_branch_to_1e13(self, dim):
        for branch, s in self.branch_grids(dim).items():
            got = _vectorized.phi_values(dim, s, _vectorized.MODE_EXACT)
            ref = self.reference(dim, s)
            rel = np.abs(got - ref) / ref
            assert rel.max() <= 1e-13, (branch, s[rel.argmax()], rel.max())

    def test_rescaled_series_at_dim_3072_to_1e12(self):
        # the series over 40 < s < D; above s = 460 it rescales its sums
        s = np.linspace(40.5, 3071.5, 60)
        got = _vectorized.phi_values(3072, s, _vectorized.MODE_EXACT)
        ref = self.reference(3072, s)
        rel = np.abs(got - ref) / ref
        assert rel.max() <= 1e-12, (s[rel.argmax()], rel.max())

    @pytest.mark.parametrize("dim", [3, 5, 20, 64, 784, 3072, 10_000])
    def test_expansion_constant_to_1e15(self, dim):
        # Gamma(D/2) / Gamma((D-1)/2), which scales every expansion value
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            half = mpmath.mpf(dim) / 2
            ref = mpmath.gamma(half) / mpmath.gamma(half - mpmath.mpf(1) / 2)
            rel = abs((_vectorized._gamma_ratio(float(dim)) - ref) / ref)
        assert rel <= 1e-15, float(rel)

    def test_two_dim_fit_matches_scaled_bessel(self):
        special = pytest.importorskip("scipy.special")
        s = np.linspace(0.0, 200.0, 2001)
        got = _vectorized.phi_values(2, s, _vectorized.MODE_BESSEL2)
        ref = special.i0e(0.5 * s)  # exp(-s/2) I0(s/2)
        assert np.max(np.abs(got - ref) / ref) <= 1e-6  # measured 4.7e-7


class TestAsymptoticProfile:
    def test_closed_form_value(self):
        # (1 + 4s/(2*20-3))^(-1/2) at s = 9.25 equals 1/sqrt(2)
        assert phi_asymptotic(20, 9.25) == pytest.approx(
            0.7071067811865475, rel=1e-15
        )

    def test_matches_exact_for_large_dim(self):
        grid = np.linspace(0.0, 200.0, 100)
        rel = max(
            abs(phi_asymptotic(20, s) - phi_exact(20, s)) / phi_exact(20, s)
            for s in grid
        )
        assert rel <= 1.05e-2  # measured 1.0299e-2 on this grid

    def test_derivative_at_zero_is_exact(self):
        for dim in (8, 20, 64):
            assert phi_asymptotic_derivative(dim, 0.0) == -2.0 / (2.0 * dim - 3.0)

    def test_derivative_matches_finite_differences(self):
        h = 1e-5
        for dim in (8, 20, 64):
            for s in (0.3, 2.0, 17.0, 90.0):
                fd = (phi_asymptotic(dim, s + h) - phi_asymptotic(dim, s - h)) / (2.0 * h)
                assert phi_asymptotic_derivative(dim, s) == pytest.approx(fd, rel=1e-6)

    def test_derivative_negative_everywhere(self):
        for s in (0.0, 1.0, 10.0, 100.0):
            assert phi_asymptotic_derivative(20, s) < 0.0


class TestTwoDimProfile:
    @pytest.mark.parametrize(
        "s, expected",
        [
            (1.0, 0.6450352704491501),
            (4.0, 0.308508322553671),
            (7.5, 0.21445705123004868),
        ],
    )
    def test_against_bessel_series(self, s, expected):
        # the polynomial approximation is documented to ~1e-7 accuracy
        assert phi_bessel_d2(s) == pytest.approx(expected, rel=1e-5)

    def test_branch_continuity_at_switch(self):
        lo = phi_bessel_d2(7.5 - 1e-9)
        hi = phi_bessel_d2(7.5 + 1e-9)
        assert abs(lo - hi) <= 1e-6

    def test_decreasing(self):
        grid = np.linspace(0.0, 50.0, 201)
        vals = np.array([phi_bessel_d2(s) for s in grid])
        assert np.all(np.diff(vals) < 0.0)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            phi(3, 1.0, mode=PhiMode.BESSEL_D2)


class TestDispatcher:
    def test_mode_resolution_by_dimension(self):
        assert resolve_mode(2, None) is PhiMode.BESSEL_D2
        assert resolve_mode(5, None) is PhiMode.EXACT_SERIES
        assert resolve_mode(19, None) is PhiMode.EXACT_SERIES
        assert resolve_mode(20, None) is PhiMode.ASYMPTOTIC
        assert resolve_mode(64, None) is PhiMode.ASYMPTOTIC

    def test_explicit_mode_wins(self):
        assert resolve_mode(64, PhiMode.EXACT_SERIES) is PhiMode.EXACT_SERIES
        assert resolve_mode(5, "asymptotic") is PhiMode.ASYMPTOTIC

    def test_dispatch_values_agree_with_direct_calls(self):
        assert phi(2, 3.0) == phi_bessel_d2(3.0)
        assert phi(5, 3.0) == phi_exact(5, 3.0)
        assert phi(20, 3.0) == phi_asymptotic(20, 3.0)
        assert phi(20, 3.0, mode=PhiMode.EXACT_SERIES) == phi_exact(20, 3.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            phi(5, -0.25)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            phi(1, 1.0)
