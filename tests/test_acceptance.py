"""End-to-end acceptance criteria.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured numbers.  Every tolerance below is pinned;
none is tuned to the implementation.  Two criteria fail by design of the
underlying mathematics rather than by implementation error — the asymptotic
profile's worst relative deviation at D = 20 lands at 1.03e-2 against a
1e-2 bound, and the raw skewness statistic has mean D(D+2)(D+4)/n > 0 at
normal input, which a 3-standard-deviation band around zero cannot absorb.
The Tests section of README.md gives both derivations; the tests state
the criteria faithfully and are expected to stay red.
"""

import math
import time

import numpy as np
import pytest

from cramerwold import (
    SyntheticSpec,
    TrainConfig,
    cost_and_grad,
    cw2_monte_carlo,
    cw2_normal_monte_carlo,
    cw2_sample_normal,
    cw2_sample_sample,
    generate,
    mardia,
    mlp,
    phi_asymptotic,
    phi_bessel_d2,
    phi_exact,
    run_bench,
    silverman_gamma,
    train,
    train_valid_split,
)
from cramerwold.data import GAUSSIAN_MIXTURE
from cramerwold.phi import PhiMode

pytestmark = pytest.mark.acceptance

MC_DIRECTIONS = 200_000
Z_BAND = 3.0

# one formatted verdict line per criterion; conftest replays these in the
# terminal summary so they survive output capture
CRITERION_LINES = []


def report(num, name, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    CRITERION_LINES.append(line)
    print(line, flush=True)


def closed_mode(dim):
    """Highest-accuracy profile mode per dimension (the correctness claim
    concerns the closed form itself, not the large-D approximation)."""
    return PhiMode.BESSEL_D2 if dim == 2 else PhiMode.EXACT_SERIES


def test_criterion_1_closed_form_vs_monte_carlo():
    started = time.perf_counter()
    per_dim = {}
    worst_z = 0.0
    for dim in (2, 5, 20, 64):
        hits = 0
        for seed in range(10):
            r = np.random.default_rng(5000 + 97 * dim + seed)
            x = r.standard_normal((64, dim))
            y = r.standard_normal((64, dim)) * 1.25 + 0.3
            gamma = silverman_gamma(64)
            closed = cw2_sample_sample(
                x, y, gamma=gamma, mode=closed_mode(dim)
            ).squared_distance
            est = cw2_monte_carlo(x, y, MC_DIRECTIONS, seed, gamma=gamma)
            z = (closed - est.estimate) / est.std_error
            worst_z = max(worst_z, abs(z))
            hits += abs(z) <= Z_BAND
        per_dim[dim] = hits
    elapsed = time.perf_counter() - started
    ok = all(hits >= 9 for hits in per_dim.values()) and elapsed < 300.0
    report(
        1,
        "pairwise closed form vs Monte Carlo",
        ok,
        f"hits/10 per dim {per_dim}, max |z| {worst_z:.2f}, {elapsed:.0f}s",
    )
    for dim, hits in per_dim.items():
        assert hits >= 9, f"dim {dim}: only {hits}/10 within {Z_BAND} SE"
    assert elapsed < 300.0


def test_criterion_2_prior_distance_vs_monte_carlo():
    started = time.perf_counter()
    cells = {}
    worst_z = 0.0
    for dim in (5, 20):
        for n in (1, 16, 64):
            hits = 0
            for seed in range(10):
                r = np.random.default_rng(6000 + 131 * dim + 7 * n + seed)
                x = r.standard_normal((n, dim)) + 0.2
                gamma = 1.0 if n == 1 else silverman_gamma(n)
                closed = cw2_sample_normal(
                    x, gamma=gamma, mode=PhiMode.EXACT_SERIES
                ).squared_distance
                est = cw2_normal_monte_carlo(x, MC_DIRECTIONS, seed, gamma=gamma)
                z = (closed - est.estimate) / est.std_error
                worst_z = max(worst_z, abs(z))
                hits += abs(z) <= Z_BAND
            cells[(dim, n)] = hits
    hand = cw2_sample_normal(
        np.zeros((1, 20)), gamma=1.0, mode=PhiMode.EXACT_SERIES
    ).squared_distance
    hand_ok = round(hand, 4) == 0.0209
    elapsed = time.perf_counter() - started
    ok = all(hits >= 9 for hits in cells.values()) and hand_ok
    report(
        2,
        "prior distance vs Monte Carlo",
        ok,
        f"hits/10 per (dim, n) {cells}, max |z| {worst_z:.2f}, "
        f"hand value {hand:.6f}, {elapsed:.0f}s",
    )
    for cell, hits in cells.items():
        assert hits >= 9, f"{cell}: only {hits}/10 within {Z_BAND} SE"
    assert hand_ok, f"single-point hand value {hand} does not round to 0.0209"


def test_criterion_3_asymptotic_profile_fidelity():
    grid = np.linspace(0.0, 200.0, 100)

    def worst_deviation(dim):
        return max(
            abs(phi_asymptotic(dim, s) - phi_exact(dim, s)) / phi_exact(dim, s)
            for s in grid
        )

    dev20 = worst_deviation(20)
    dev5 = worst_deviation(5)
    ok = dev20 <= 1e-2 and dev5 > dev20
    report(
        3,
        "asymptotic profile fidelity",
        ok,
        f"max rel deviation D=20 {dev20:.6e} (bound 1e-2), D=5 {dev5:.6e} (reported)",
    )
    assert dev5 > dev20  # the low-dimensional deviation is measurably larger
    assert dev20 <= 1e-2, (
        f"worst relative deviation at D=20 is {dev20:.6e}; the profile curves "
        f"brush past the 1e-2 band near s=10"
    )


def test_criterion_4_two_dim_profile_approximation():
    def bessel_series(s, terms=200):
        x = 0.5 * s
        term = 1.0
        total = 1.0
        for k in range(1, terms):
            term *= (x / (2.0 * k)) ** 2
            total += term
            if term < 1e-18 * total:
                break
        return math.exp(-x) * total

    grid = np.linspace(0.0, 50.0, 501)
    worst = max(
        abs(phi_bessel_d2(s) - bessel_series(s)) / bessel_series(s) for s in grid
    )
    lo = phi_bessel_d2(7.5 - 1e-9)
    hi = phi_bessel_d2(7.5 + 1e-9)
    jump = abs(lo - hi)
    ok = worst <= 1e-5 and jump <= 1e-6
    report(
        4,
        "two-dimensional profile approximation",
        ok,
        f"max rel error vs Bessel series {worst:.3e} (bound 1e-5), "
        f"branch jump at 7.5 {jump:.3e} (bound 1e-6)",
    )
    assert worst <= 1e-5
    assert jump <= 1e-6


def test_criterion_5_identity_and_invariance():
    rng = np.random.default_rng(51)
    x = rng.standard_normal((40, 8))
    y = rng.standard_normal((30, 8)) * 1.3 + 0.4
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    gamma = 0.5

    self_dist = cw2_sample_sample(x, x.copy(), gamma=gamma, mode=PhiMode.EXACT_SERIES)
    pair = cw2_sample_sample(x, y, gamma=gamma, mode=PhiMode.EXACT_SERIES)
    pair_rot = cw2_sample_sample(x @ q, y @ q, gamma=gamma, mode=PhiMode.EXACT_SERIES)
    prior = cw2_sample_normal(x, gamma=gamma, mode=PhiMode.EXACT_SERIES)
    prior_rot = cw2_sample_normal(x @ q, gamma=gamma, mode=PhiMode.EXACT_SERIES)
    pair_dev = abs(pair_rot.squared_distance - pair.squared_distance) / pair.squared_distance
    prior_dev = abs(prior_rot.squared_distance - prior.squared_distance) / prior.squared_distance

    base = mardia(x)
    rot = mardia(x @ q)
    skew_dev = abs(rot.skewness - base.skewness) / abs(base.skewness)
    kurt_dev = abs(rot.kurtosis - base.kurtosis) / base.kurtosis

    ok = (
        self_dist.squared_distance <= 1e-10
        and pair_dev <= 1e-10
        and prior_dev <= 1e-10
        and skew_dev <= 1e-9
        and kurt_dev <= 1e-9
    )
    report(
        5,
        "identity and orthogonal invariance",
        ok,
        f"self distance {self_dist.squared_distance:.1e}, rotation deviations "
        f"pair {pair_dev:.1e} prior {prior_dev:.1e} (bounds 1e-10), "
        f"mardia {max(skew_dev, kurt_dev):.1e} (bound 1e-9)",
    )
    assert self_dist.squared_distance <= 1e-10
    assert pair_dev <= 1e-10
    assert prior_dev <= 1e-10
    assert skew_dev <= 1e-9
    assert kurt_dev <= 1e-9


def test_criterion_6_gradient_correctness():
    h = 1e-5
    worst = {}
    for objective in ("cwae", "plain_ae"):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((16, 4))
        # three weight layers per stack; biases nudged off the exact ReLU
        # kinks that zero-initialization creates
        params = mlp.init_mlp(4, 2, (8, 8), (8, 8), "identity", rng)
        params = params.like(params.flat + 0.01 * rng.standard_normal(params.flat.size))
        grad, _ = cost_and_grad(x, params, objective=objective)
        dir_rng = np.random.default_rng(62)
        worst_rel = 0.0
        for _ in range(20):
            d = dir_rng.standard_normal(params.flat.size)
            d /= np.linalg.norm(d)
            analytic = float(grad @ d)
            plus = params.like(params.flat + h * d)
            minus = params.like(params.flat - h * d)
            _, cp = cost_and_grad(x, plus, objective=objective)
            _, cm = cost_and_grad(x, minus, objective=objective)
            fd = (cp.total - cm.total) / (2.0 * h)
            worst_rel = max(worst_rel, abs(analytic - fd) / abs(fd))
        worst[objective] = worst_rel
    ok = all(v <= 1e-4 for v in worst.values())
    report(
        6,
        "analytic gradients vs finite differences",
        ok,
        f"worst relative error over 20 directions: "
        f"cwae {worst['cwae']:.2e}, plain_ae {worst['plain_ae']:.2e} (bound 1e-4)",
    )
    for objective, rel in worst.items():
        assert rel <= 1e-4, f"{objective}: worst direction off by {rel:.3e}"


def test_criterion_7_latent_regularization_effect():
    started = time.perf_counter()
    mixture = dict(
        kind=GAUSSIAN_MIXTURE,
        dim=2,
        count=2048,
        means=((2.0, 0.5), (-1.0, 1.5), (0.5, -1.5)),
        variances=(0.6, 0.6, 0.6),
        weights=(0.5, 0.3, 0.2),
    )
    wins = 0
    rows = []
    for seed in range(5):
        dataset = generate(SyntheticSpec(seed=100 + seed, **mixture))
        train_set, valid_set = train_valid_split(dataset, valid_fraction=0.25, seed=seed)
        last = {}
        for objective in ("cwae", "plain_ae"):
            config = TrainConfig(
                latent_dim=2,
                batch_size=16,
                epochs=200,
                objective=objective,
                seed=seed,
                output_activation="sigmoid",
                encoder_hidden=(64, 64),
                decoder_hidden=(64, 64),
            )
            _, records = train(config, train_set.points, valid_set.points)
            last[objective] = records[-1]
        cw, pl = last["cwae"], last["plain_ae"]
        win = (
            abs(cw.normalized_kurtosis) < abs(pl.normalized_kurtosis)
            and cw.skewness < pl.skewness
            and cw.rec_error <= 1.15 * pl.rec_error
        )
        wins += win
        rows.append(
            f"seed {seed}: rec ratio {cw.rec_error / pl.rec_error:.3f}, "
            f"skew {cw.skewness:.2f} vs {pl.skewness:.0f}, "
            f"|kurt| {abs(cw.normalized_kurtosis):.2f} vs {abs(pl.normalized_kurtosis):.0f}"
            f" -> {'win' if win else 'loss'}"
        )
    elapsed = time.perf_counter() - started
    ok = wins >= 4 and elapsed < 600.0
    report(
        7,
        "latent regularization vs plain autoencoder",
        ok,
        f"{wins}/5 seeds, {elapsed:.0f}s; " + "; ".join(rows),
    )
    assert wins >= 4, f"only {wins}/5 seeds satisfied all three clauses"
    assert elapsed < 600.0


def test_criterion_8_mardia_sanity_at_normal_input():
    skews = np.empty(20)
    kurts = np.empty(20)
    for seed in range(20):
        x = np.random.default_rng(9000 + seed).standard_normal((10_000, 20))
        stats = mardia(x)
        skews[seed] = stats.skewness
        kurts[seed] = stats.normalized_kurtosis
    skew_ok = abs(skews.mean()) <= 3.0 * skews.std(ddof=1)
    kurt_ok = abs(kurts.mean()) <= 3.0 * kurts.std(ddof=1)
    report(
        8,
        "mardia statistics centred at normal input",
        skew_ok and kurt_ok,
        f"skewness mean {skews.mean():.4f} vs band {3.0 * skews.std(ddof=1):.4f} "
        f"({'ok' if skew_ok else 'outside'}), "
        f"normalized kurtosis mean {kurts.mean():.4f} vs band "
        f"{3.0 * kurts.std(ddof=1):.4f} ({'ok' if kurt_ok else 'outside'})",
    )
    assert kurt_ok
    assert skew_ok, (
        f"the raw skewness statistic concentrates at D(D+2)(D+4)/n = "
        f"{20 * 22 * 24 / 10_000} rather than 0; measured mean {skews.mean():.4f} "
        f"with 3-sigma band {3.0 * skews.std(ddof=1):.4f}"
    )


def test_criterion_9_quadratic_batch_scaling():
    bench = run_bench(dim=64, sizes=(128, 256), repeats=20, warmup=3, seed=0)
    ratios = bench.ratios[bench.active_backend]
    ratio = ratios[(128, 256)]
    ok = 2.5 <= ratio <= 6.0
    report(
        9,
        "pairwise kernel batch scaling",
        ok,
        f"{bench.active_backend} backend: 256/128 time ratio {ratio:.2f} "
        f"(window [2.5, 6])",
    )
    assert ok, f"doubling ratio {ratio:.2f} outside [2.5, 6]"
