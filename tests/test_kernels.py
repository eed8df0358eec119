"""Tests of the pairwise and Monte Carlo kernels against direct formulas."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from cramerwold import _vectorized, cw2_sample_normal, cw2_sample_sample, kernels
from cramerwold._vectorized import MODE_ASYMPTOTIC, MODE_BESSEL2, MODE_EXACT
from cramerwold.oracle import l2_smoothed_1d
from cramerwold.phi import PhiMode


class TestSelfSums:
    """A self-sum pairs every point with itself at distance exactly 0."""

    MODES = [(MODE_EXACT, 20), (MODE_ASYMPTOTIC, 20), (MODE_BESSEL2, 2)]
    # The ids the cases had when the modes were the integer codes 0, 1 and 2;
    # the mode strings would otherwise rename every case.
    MODE_IDS = ["0-20", "1-20", "2-2"]

    @pytest.mark.parametrize("mode, dim", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("offset", [0.0, 1e7])
    def test_single_point_gives_phi_of_zero(self, rng, mode, dim, offset):
        # phi(0) = 1 in every mode, whatever the point and its offset
        for _ in range(50):
            p = rng.standard_normal((1, dim)) * 1.3 + 0.2 + offset
            assert kernels.sum_phi_cross(p, p, 0.8, mode) == 1.0
            assert kernels.sum_phi_cross(p, p.copy(), 0.8, mode) == 1.0

    @pytest.mark.parametrize("mode, dim", MODES, ids=MODE_IDS)
    def test_sample_matches_brute_force_with_zero_diagonal(self, rng, mode, dim):
        # 200 rows span several kernel chunks, so every chunk's diagonal is hit
        x = rng.standard_normal((200, dim)) * 1.5
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, 0.0)
        brute = math.fsum(_vectorized.phi_values(dim, d2.ravel() * 0.3125, mode))
        got = kernels.sum_phi_cross(x, x, 0.8, mode)
        assert got == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("mode, dim", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 259])
    def test_tile_edges_match_brute_force(self, rng, mode, dim, n):
        # pair sums walk 128 x 128 tiles: one point, one partial tile, one
        # exact tile, a tile plus one row, and a ragged third tile, in a
        # self-sum and on either side of a cross sum
        x = rng.standard_normal((n, dim)) * 1.5
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, 0.0)
        brute = math.fsum(_vectorized.phi_values(dim, d2.ravel() * 0.3125, mode))
        assert kernels.sum_phi_cross(x, x, 0.8, mode) == pytest.approx(brute, rel=1e-12)
        for k in (1, 127, 128, 129, 259):
            y = rng.standard_normal((k, dim)) + 0.5
            d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
            brute = math.fsum(_vectorized.phi_values(dim, d2.ravel() * 0.3125, mode))
            assert kernels.sum_phi_cross(x, y, 0.8, mode) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("mode", [PhiMode.EXACT_SERIES, PhiMode.ASYMPTOTIC],
                             ids=["PhiMode.EXACT_SERIES", "PhiMode.ASYMPTOTIC"])
    def test_distance_to_a_copy_is_exactly_zero_across_tiles(self, rng, mode):
        x = rng.standard_normal((259, 20))
        rep = cw2_sample_sample(x, x.copy(), mode=mode)
        assert rep.pre_clamp == 0.0


class TestModeRoute:
    """The kernels take a PhiMode as is; a member and its value string are one mode."""

    @pytest.mark.parametrize("mode", list(PhiMode))
    def test_member_and_name_string_give_the_same_bits(self, rng, mode):
        dim = 2 if mode is PhiMode.BESSEL_D2 else 20
        assert mode == mode.value
        s = np.concatenate([rng.uniform(0.0, 60.0, 400), [0.0, 7.5, 20.0, 40.0, 300.0]])
        by_member = _vectorized.phi_values(dim, s, mode)
        by_name = _vectorized.phi_values(dim, s, mode.value)
        assert by_member.tobytes() == by_name.tobytes()
        x = rng.standard_normal((150, dim)) * 1.5
        y = rng.standard_normal((90, dim)) + 0.5
        for a, b in ((x, x), (x, y)):
            assert kernels.sum_phi_cross(a, b, 0.8, mode) == kernels.sum_phi_cross(
                a, b, 0.8, mode.value
            )

    def test_unknown_mode_is_rejected_by_name(self, rng):
        x = rng.standard_normal((4, 5))
        with pytest.raises(ValueError, match="'bogus'"):
            _vectorized.phi_values(5, np.array([1.0]), "bogus")
        with pytest.raises(ValueError, match="'bogus'"):
            kernels.sum_phi_cross(x, x, 0.8, "bogus")
        with pytest.raises(ValueError, match="'bogus'"):
            cw2_sample_normal(x, mode="bogus")


class TestGradientKernel:
    def test_matches_finite_differences_of_the_distance(self, rng):
        # the kernel returns d(cw^2)/dz for the asymptotic closed form
        z = rng.standard_normal((12, 4))
        gamma = 0.4
        grad = _vectorized.cw_normal_asym_grad(z, gamma)
        h = 1e-6
        for i, j in ((0, 0), (3, 2), (11, 3)):
            zp = z.copy()
            zp[i, j] += h
            zm = z.copy()
            zm[i, j] -= h
            fd = (
                cw2_sample_normal(zp, gamma=gamma, mode=PhiMode.ASYMPTOTIC).squared_distance
                - cw2_sample_normal(zm, gamma=gamma, mode=PhiMode.ASYMPTOTIC).squared_distance
            ) / (2.0 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("offset", [1e3, 1e5])
    def test_large_offset_matches_exact_differences(self, rng, offset):
        # brute force over exact differences z_i - z_j: the pair term must not
        # lose digits to a common offset (uncentred codes read 1.4e-6 at 1e5);
        # 128 rows are one tile, 259 a ragged 3 x 3 walk
        def dphi(s):  # d/ds of the asymptotic profile (1 + 4s/(2D-3))**-0.5, D = 8
            t = 1.0 + 4.0 * s / 13.0
            return -(2.0 / 13.0) / (t * np.sqrt(t))

        for n in (128, 259):
            z = rng.standard_normal((n, 8)) + offset
            gamma = 0.3
            diff = z[:, None, :] - z[None, :, :]
            w = dphi((diff * diff).sum(axis=2) / (4.0 * gamma))
            wn = dphi((z * z).sum(axis=1) / (2.0 + 4.0 * gamma))
            c1 = 1.0 / (2.0 * n * n * math.sqrt(math.pi))
            c_norm = -c1 * (2.0 * n / math.sqrt(gamma + 0.5)) / (1.0 + 2.0 * gamma)
            pair = (w[:, :, None] * diff).sum(axis=1)
            brute = c1 / (gamma * math.sqrt(gamma)) * pair + c_norm * wn[:, None] * z
            grad = _vectorized.cw_normal_asym_grad(z, gamma)
            assert np.abs(grad - brute).max() <= 1e-10 * np.abs(brute).max()  # measured <= 1.1e-15


class TestMcKernels:
    def test_pair_rows_match_single_direction_calls(self, rng):
        px = rng.standard_normal((6, 15))
        py = rng.standard_normal((6, 11)) + 0.4
        vals = _vectorized.mc_pair_values(px, py, 0.5)
        for d in range(6):
            assert vals[d] == pytest.approx(l2_smoothed_1d(px[d], py[d], 0.5), rel=1e-12)

    def test_normal_values_match_gaussian_algebra(self, rng):
        # mixture of N(a_i, g) vs N(0, 1 + g): all three L2 cross terms are
        # centered Gaussian densities evaluated at the pairwise offsets
        a = rng.standard_normal(9)
        g = 0.6
        n = a.size

        def centered(d2, var):
            return np.exp(-d2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        self_term = centered((a[:, None] - a[None, :]) ** 2, 2.0 * g).sum() / n**2
        prior_term = centered(0.0, 2.0 + 2.0 * g)
        cross_term = centered(a**2, 1.0 + 2.0 * g).sum() / n
        expected = self_term + prior_term - 2.0 * cross_term
        got = _vectorized.mc_normal_values(a[None, :], g)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_projections_give_exact_zero(self, rng):
        # 3000 directions span three chunks; every other direction projects
        # both samples to the same points, and the rest differ in one point
        px = rng.standard_normal((3000, 64)) * 1.7 + 0.3
        py = px.copy()
        py[1::2, 5] += 0.25
        vals = _vectorized.mc_pair_values(px, py, 0.4)
        assert np.all(vals[0::2] == 0.0)
        assert np.all(vals[1::2] > 0.0)

    def test_values_across_chunks_match_dense_formula(self, rng):
        # 40 points per sample puts 1638 directions in a chunk, so 2000
        # directions span two chunks, the second one partial
        px = rng.standard_normal((2000, 32))
        py = rng.standard_normal((2000, 40)) * 1.2 + 0.3
        g = 0.4

        def dense(a, b):
            d2 = (a[:, :, None] - b[:, None, :]) ** 2
            return np.exp(-d2 / (4.0 * g)).sum(axis=(1, 2)) / (a.shape[1] * b.shape[1])

        pair = (dense(px, px) + dense(py, py) - 2.0 * dense(px, py)) / (2.0 * math.sqrt(math.pi * g))
        np.testing.assert_allclose(_vectorized.mc_pair_values(px, py, g), pair, rtol=1e-12)

        cross_var = 1.0 + 2.0 * g
        cross = np.exp(-(px * px) / (2.0 * cross_var)).mean(axis=1) / math.sqrt(2.0 * math.pi * cross_var)
        prior = dense(px, px) / (2.0 * math.sqrt(math.pi * g)) + 1.0 / (
            2.0 * math.sqrt(math.pi * (1.0 + g))
        ) - 2.0 * cross
        np.testing.assert_allclose(_vectorized.mc_normal_values(px, g), prior, rtol=1e-12)


class TestMcChunkThreads:
    # n = 64 puts 1024 directions in a chunk: three full chunks and 17 more
    WIDTH = 1024
    NDIR = 3 * 1024 + 17

    def one_chunk_calls(self, fn, *arrays):
        return np.concatenate([
            fn(*(a[lo:lo + self.WIDTH] for a in arrays))
            for lo in range(0, self.NDIR, self.WIDTH)
        ])

    @pytest.mark.parametrize("k", [64, 40])
    def test_pair_values_equal_one_chunk_calls(self, rng, k):
        px = rng.standard_normal((self.NDIR, 64))
        py = rng.standard_normal((self.NDIR, k)) * 1.3 + 0.2
        whole = _vectorized.mc_pair_values(px, py, 0.35)
        chunks = self.one_chunk_calls(lambda a, b: _vectorized.mc_pair_values(a, b, 0.35), px, py)
        assert np.all(whole == chunks)

    def test_normal_values_equal_one_chunk_calls(self, rng):
        px = rng.standard_normal((self.NDIR, 64)) + 0.1
        whole = _vectorized.mc_normal_values(px, 0.35)
        chunks = self.one_chunk_calls(lambda a: _vectorized.mc_normal_values(a, 0.35), px)
        assert np.all(whole == chunks)

    @pytest.mark.parametrize("target", ["sample", "normal"])
    def test_error_in_a_chunk_reaches_the_caller(self, rng, monkeypatch, target):
        px = rng.standard_normal((self.NDIR, 64))
        real = _vectorized._mc_self_sums

        def failing(a, q, buf):
            if a[0, 0] == px[self.WIDTH, 0]:  # the self-sum of px's second chunk
                raise FloatingPointError("second chunk")
            return real(a, q, buf)

        monkeypatch.setattr(_vectorized, "_mc_self_sums", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="second chunk"):
            if target == "sample":
                _vectorized.mc_pair_values(px, px + 0.5, 0.35)
            else:
                _vectorized.mc_normal_values(px, 0.35)
        assert threading.active_count() == before

    def test_threads_never_outnumber_cpus(self, rng, monkeypatch):
        started = []
        seen = []
        real_thread = threading.Thread
        real_sums = _vectorized._mc_self_sums

        def counting_thread(*args, **kwargs):
            started.append(1)
            return real_thread(*args, **kwargs)

        def watching(a, q, buf):
            seen.append(threading.active_count())
            return real_sums(a, q, buf)

        monkeypatch.setattr(threading, "Thread", counting_thread)
        monkeypatch.setattr(_vectorized, "_mc_self_sums", watching)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        before = threading.active_count()
        _vectorized.mc_normal_values(rng.standard_normal((self.NDIR, 64)), 0.35)
        assert len(started) == min(cpus, 4) - 1
        assert max(seen) <= before + cpus - 1
        assert threading.active_count() == before

    def test_one_chunk_starts_no_thread(self, rng, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-chunk call started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        px = rng.standard_normal((self.WIDTH, 64))
        _vectorized.mc_pair_values(px, px + 0.5, 0.35)
        _vectorized.mc_normal_values(px, 0.35)
        assert l2_smoothed_1d(px[0], px[1], 0.35) > 0.0

    def test_each_chunk_is_taken_once_under_fast_switching(self, monkeypatch):
        # eight threads on fewer cores, switching every microsecond: every
        # chunk start is handed out exactly once
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        ran = []
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _vectorized._each_chunk(ran.append, 6000, 3)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(0, 6000, 3))
        assert threading.active_count() == before
