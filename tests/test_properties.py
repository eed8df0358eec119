"""Property tests of the sample-sample distance in every profile mode.

Each sample is a box of unit-scale points whose rows are stretched by their
own factor between 0 and 50, so one sample holds near and far pairs: in exact
mode the pair arguments s = |x - y|^2 / (4 gamma) fall both in the series
branch (s <= 40 or s < D) and in the large-argument expansion
(s >= max(D, 40)).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cramerwold import cw2_sample_sample

MODE_DIMS = {"exact": (2, 3, 5, 8, 20, 64), "asymptotic": (3, 5, 20, 64), "bessel2": (2,)}
SETTINGS = settings(max_examples=60, deadline=None)


def sample(rows, dim):
    unit = arrays(np.float64, (rows, dim), elements=st.floats(-1.0, 1.0))
    stretch = arrays(np.float64, (rows, 1), elements=st.floats(0.0, 50.0))
    return st.tuples(unit, stretch).map(lambda us: us[0] * us[1])


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
