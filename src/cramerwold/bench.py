"""Micro-benchmark of the latent-distance + gradient work of a training step.

Runs the O(n^2) asymptotic-mode kernel a training step runs on its codes
(``cw_normal_asym_terms``: the pair and norm sums and the gradient in one
walk) over a list of batch sizes, and reports the growth ratio between
consecutive sizes.
A healthy quadratic kernel lands near 4 when the size doubles; the CLI gate
accepts [2.5, 6] for the doubling steps.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distance import silverman_gamma
from .phi import _at_least, resolve_mode

RATIO_LOW = 2.5
RATIO_HIGH = 6.0


@dataclass(frozen=True)
class BenchReport:
    dim: int
    sizes: tuple
    repeats: int
    warmup: int
    seconds: dict  # size -> mean seconds per call
    ratios: dict   # (n_small, n_big) -> time ratio, consecutive sizes

    def doubling_ok(self):
        """True when every exact-doubling step scales quadratically (ratio
        within [RATIO_LOW, RATIO_HIGH]); vacuously true when no consecutive
        pair doubles."""
        return all(
            RATIO_LOW <= ratio <= RATIO_HIGH
            for (small, big), ratio in self.ratios.items()
            if big == 2 * small
        )


def _workload(x, gamma):
    return lambda: kernels.cw_normal_asym_terms(x, gamma)


def _time_mean(fn, repeats, warmup):
    for _ in range(warmup):
        fn()
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def run_bench(dim=64, sizes=(128, 256), repeats=20, warmup=3, seed=0):
    """Time the kernels at each batch size; returns a BenchReport."""
    sizes = tuple(sizes)
    for name, value, low in [*(("a size", n, 2) for n in sizes),
                             ("repeats", repeats, 1), ("warmup", warmup, 0), ("seed", seed, 0)]:
        _at_least(name, value, low)
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be a non-empty strictly increasing list")
    resolve_mode(dim)  # checks the dimension
    rng = np.random.default_rng(seed)
    data = {n: np.ascontiguousarray(rng.standard_normal((n, dim))) for n in sizes}
    seconds = {n: _time_mean(_workload(data[n], silverman_gamma(n)), repeats, warmup) for n in sizes}
    return BenchReport(
        dim=dim,
        sizes=sizes,
        repeats=repeats,
        warmup=warmup,
        seconds=seconds,
        ratios={(a, b): seconds[b] / seconds[a] for a, b in zip(sizes, sizes[1:])},
    )
