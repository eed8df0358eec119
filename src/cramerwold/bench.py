"""Micro-benchmark of the normal-distance + gradient workload.

Runs the O(n^2) kernels behind ``cw2_sample_normal`` and its latent gradient
over a list of batch sizes, and reports the growth ratio between consecutive
sizes.  A healthy quadratic kernel lands near 4 when the size doubles; the
CLI gate accepts [2.5, 6] for the doubling steps.  Results are keyed by
``kernels.BACKEND``, the name of the one kernel implementation.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .distance import silverman_gamma
from .phi import resolve_mode

RATIO_LOW = 2.5
RATIO_HIGH = 6.0


@dataclass(frozen=True)
class BenchReport:
    dim: int
    sizes: tuple
    repeats: int
    warmup: int
    active_backend: str
    mean_seconds: dict   # backend -> {size: mean seconds per call}
    ratios: dict         # backend -> {(n_small, n_big): time ratio}, consecutive sizes

    def active_doubling_ok(self):
        """True when every exact-doubling step scales quadratically (ratio
        within [RATIO_LOW, RATIO_HIGH]); vacuously true when no consecutive
        pair doubles."""
        return all(
            RATIO_LOW <= ratio <= RATIO_HIGH
            for (small, big), ratio in self.ratios[self.active_backend].items()
            if big == 2 * small
        )


def _workload(x, gamma, mode):
    def run():
        kernels.sum_phi_cross(x, x, gamma, mode)
        kernels.sum_phi_norms(x, gamma, mode)
        kernels.cw_normal_asym_grad(x, gamma)

    return run


def _time_mean(fn, repeats, warmup):
    for _ in range(warmup):
        fn()
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def run_bench(dim=64, sizes=(128, 256), repeats=20, warmup=3, seed=0, mode=None):
    """Time the kernels at each batch size; returns a BenchReport."""
    sizes = tuple(sizes)
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be a non-empty strictly increasing list")
    if any(n < 2 for n in sizes):
        raise ValueError("batch sizes must be >= 2")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    mode = resolve_mode(dim, mode)
    rng = np.random.default_rng(seed)
    data = {n: np.ascontiguousarray(rng.standard_normal((n, dim))) for n in sizes}
    per_size = {
        n: _time_mean(_workload(data[n], silverman_gamma(n), mode), repeats, warmup)
        for n in sizes
    }
    backend = kernels.BACKEND
    return BenchReport(
        dim=dim,
        sizes=sizes,
        repeats=repeats,
        warmup=warmup,
        active_backend=backend,
        mean_seconds={backend: per_size},
        ratios={backend: {(a, b): per_size[b] / per_size[a] for a, b in zip(sizes, sizes[1:])}},
    )
