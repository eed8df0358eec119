"""Property tests of the closed-form distances in every profile mode, and of
Mardia skewness.

Each sample of the swap, copy, pre_clamp and single-point properties is a
box of unit-scale points whose rows are stretched by their own factor between
0 and 50, so one sample holds near and far pairs: in exact mode the pair
arguments s = |x - y|^2 / (4 gamma) fall both in the series branch (s <= 40
or s < D) and in the large-argument expansion (s >= max(D, 40)).  About one
row in eight is stretched by 0, so coincident points stay covered.

The invariance properties draw samples on a dyadic grid (entries k/8 with
|k| <= 64) of equal power-of-two sizes, and shifts in multiples of 1/8 up to
1e7, so that every shift, centring and Gram product is exact.  A general
rotation, or a tile side other than 128, is not exact on any grid: those
properties take the stretched boxes and hold to a rounding budget.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cramerwold import _vectorized, cw2_sample_normal, cw2_sample_sample, mardia, phi

MODE_DIMS = {"exact": (2, 3, 5, 8, 20, 64), "asymptotic": (3, 5, 20, 64), "bessel2": (2,)}
SETTINGS = settings(max_examples=60, deadline=None)


def stretched(seed, rows, dim):
    rng = np.random.default_rng(seed)
    stretch = rng.uniform(0.0, 50.0, (rows, 1))
    stretch[rng.random((rows, 1)) < 0.125] = 0.0
    return rng.uniform(-1.0, 1.0, (rows, dim)) * stretch


def sample(rows, dim):
    # Seeded NumPy draws, as in dyadic below: hypothesis arrays would fill most
    # of a large box with one value.
    return st.integers(0, 2**32 - 1).map(lambda seed: stretched(seed, rows, dim))


# Small samples, and sizes at the edges of the 128 x 128 pair tiles
SIZES = st.one_of(st.integers(1, 8), st.sampled_from([127, 128, 129, 259]))


@st.composite
def sample_pair(draw, dims):
    dim = draw(st.sampled_from(dims))
    n, k = draw(SIZES), draw(SIZES)
    return draw(sample(n, dim)), draw(sample(k, dim))


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_swapping_the_samples_keeps_every_bit(mode, data):
    x, y = data.draw(sample_pair(MODE_DIMS[mode]))
    forward = cw2_sample_sample(x, y, mode=mode).pre_clamp
    backward = cw2_sample_sample(y, x, mode=mode).pre_clamp
    assert np.float64(forward).tobytes() == np.float64(backward).tobytes()


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_a_copy_is_at_distance_zero(mode, data):
    x, _ = data.draw(sample_pair(MODE_DIMS[mode]))
    assert cw2_sample_sample(x, x.copy(), mode=mode).pre_clamp == 0.0


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_pre_clamp_is_negative_by_rounding_only(mode, data):
    # y = x + noise of scale 1e-12 to 1 is a near-copy, where the pair sums cancel
    x, y = data.draw(sample_pair(MODE_DIMS[mode]))
    noise = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(x.shape)
    near = x + 10.0 ** data.draw(st.floats(-12.0, 0.0)) * noise
    for report in (cw2_sample_sample(x, y, mode=mode), cw2_sample_sample(x, near, mode=mode),
                   cw2_sample_normal(x, mode=mode)):
        assert report.pre_clamp >= -1e-13 / math.sqrt(math.pi * report.gamma)


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_single_points_follow_their_closed_forms(mode, data):
    # n = 1: the sample form (1 - phi(|x - y|^2 / (4 gamma))) / sqrt(pi gamma)
    # and the prior form (1/sqrt(gamma) + 1/sqrt(1 + gamma)
    # - 2 phi(|x|^2 / (2 + 4 gamma)) / sqrt(gamma + 1/2)) / (2 sqrt(pi)), to
    # 1e-13 relative, not bit for bit: the sums take their squared distances
    # from the Gram trick on centred points (measured within 2.1e-15 and
    # 2.5e-14 over 3,000 draws, the prior form's cancelling most at gamma = 4)
    dim = data.draw(st.sampled_from(MODE_DIMS[mode]))
    x, y = data.draw(sample(1, dim)), data.draw(sample(1, dim))
    gamma = data.draw(st.sampled_from([None, 0.05, 0.7, 4.0]))
    pair = cw2_sample_sample(x, y, gamma=gamma, mode=mode)
    g = pair.gamma
    expected = (1.0 - phi(dim, float(((x - y) ** 2).sum()) / (4.0 * g), mode)) / math.sqrt(math.pi * g)
    assert abs(pair.pre_clamp - expected) <= 1e-13 * abs(expected)
    prior = cw2_sample_normal(x, gamma=gamma, mode=mode)
    g = prior.gamma
    expected = (1.0 / math.sqrt(g) + 1.0 / math.sqrt(1.0 + g)
                - 2.0 * phi(dim, float((x * x).sum()) / (2.0 + 4.0 * g), mode) / math.sqrt(g + 0.5)
                ) / (2.0 * math.sqrt(math.pi))
    assert abs(prior.pre_clamp - expected) <= 1e-13 * abs(expected)


def rounding_budget(report):
    # The distance is a signed sum of profile means, each in [0, 1] and weighted
    # by at most 1/sqrt(pi gamma); a few hundred roundings of that unit, as for
    # shifts and permutations below.
    return 1e-13 / math.sqrt(math.pi * report.gamma)


def haar_orthogonal(seed, dim):
    # QR of a Gaussian matrix with each column's sign taken from R's diagonal
    # is Haar-distributed on O(D) (Mezzadri, Notices AMS 2007).
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def both_distances(x, y, mode):
    return cw2_sample_sample(x, y, mode=mode), cw2_sample_normal(x, mode=mode)


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_a_rotation_moves_both_distances_by_rounding_only(mode, data):
    x, y = data.draw(sample_pair(MODE_DIMS[mode]))
    turn = haar_orthogonal(data.draw(st.integers(0, 2**32 - 1)), x.shape[1])
    for before, after in zip(both_distances(x, y, mode), both_distances(x @ turn, y @ turn, mode)):
        assert abs(after.pre_clamp - before.pre_clamp) <= rounding_budget(before)


@pytest.mark.parametrize("mode", MODE_DIMS)
@pytest.mark.parametrize("tile", [32, 100, 256])
def test_the_tile_size_moves_both_distances_by_rounding_only(monkeypatch, mode, tile):
    # 259 x 131 pairs cut the tiles of every side off-centre; the reference
    # walks the shipped 128 x 128 tiles
    for seed, dim in enumerate(MODE_DIMS[mode] * 2):
        x, y = stretched(seed, 259, dim), stretched(seed + 100, 131, dim)
        reference = both_distances(x, y, mode)
        with monkeypatch.context() as patch:
            patch.setattr(_vectorized, "_TILE", tile)
            tiled = both_distances(x, y, mode)
        for before, after in zip(reference, tiled):
            assert abs(after.pre_clamp - before.pre_clamp) <= rounding_budget(before)


def dyadic(rows, dim):
    # Seeded NumPy draws: hypothesis builds a large array element by element,
    # and fills most of it with one value.
    seeds = st.integers(0, 2**32 - 1)
    return seeds.map(lambda seed: np.random.default_rng(seed).integers(-64, 65, (rows, dim)) / 8)


POWERS_OF_TWO = st.sampled_from([1, 2, 4, 8, 16, 128, 256])


def signed_permutation(data, dim):
    perm = data.draw(st.permutations(range(dim)))
    signs = data.draw(arrays(np.float64, dim, elements=st.sampled_from([-1.0, 1.0])))
    return lambda a: a[:, perm] * signs


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_shift_and_signed_permutation_move_the_distance_by_rounding_only(mode, data):
    # Not bit for bit: the argument order the distance fixes compares the
    # samples' bytes, which a shift or a permutation can flip.
    dim, n = data.draw(st.sampled_from(MODE_DIMS[mode])), data.draw(POWERS_OF_TWO)
    x, y = data.draw(dyadic(n, dim)), data.draw(dyadic(n, dim))
    shift = data.draw(arrays(np.float64, dim,
                             elements=st.integers(-8 * 10**7, 8 * 10**7).map(lambda j: j / 8)))
    turn = signed_permutation(data, dim)
    before = cw2_sample_sample(x, y, mode=mode)
    after = cw2_sample_sample(turn(x + shift), turn(y + shift), mode=mode)
    assert abs(after.pre_clamp - before.pre_clamp) <= rounding_budget(before)


@pytest.mark.parametrize("mode", MODE_DIMS)
@SETTINGS
@given(data=st.data())
def test_signed_permutation_keeps_every_bit_of_the_prior_distance(mode, data):
    dim, n = data.draw(st.sampled_from(MODE_DIMS[mode])), data.draw(POWERS_OF_TWO)
    x = data.draw(dyadic(n, dim))
    before = cw2_sample_normal(x, mode=mode).pre_clamp
    after = cw2_sample_normal(signed_permutation(data, dim)(x), mode=mode).pre_clamp
    assert np.float64(before).tobytes() == np.float64(after).tobytes()


@pytest.mark.parametrize("route", ["gram", "tensor"])
@SETTINGS
@given(data=st.data())
def test_mardia_skewness_is_not_negative(route, data):
    # The Gram route serves n <= D^2, the third-moment tensor route D^2 < n.
    dim = data.draw(st.integers(2, 6))
    sizes = st.integers(1, dim * dim) if route == "gram" else st.integers(dim * dim + 1, 3 * dim * dim)
    x = data.draw(dyadic(data.draw(sizes), dim))
    assert mardia(x).skewness >= 0.0
