"""The three workloads: seeded inputs, one cycle of ops, and output checks.

Each workload writes its inputs from the seed during set-up and then only
hands the program those files or arrays. An op returns what the program
printed or returned; ``check`` turns that into ``None`` (correct) or a reason.
References that do not change between ops (library results, independent
recomputations) are made once, in ``warmup``, and every later op is compared
against them.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from cramerwold import cli, cw2_sample_normal, cw2_sample_sample, training

# Tolerance of the independent recomputation, as a share of the sum of the
# magnitudes of the closed form's terms. The bessel2 mode is a polynomial fit
# of I0 with relative error below 2e-7; the other modes should agree to
# rounding.
REFERENCE_TOL = {"exact": 1e-10, "asymptotic": 1e-12, "bessel2": 1e-6}
# scipy's profile against mpmath at 30 digits, relative, per sampled pair.
MPMATH_TOL = 1e-12
MPMATH_SAMPLES = 16


def _silverman(n):
    return (4.0 / (3.0 * n)) ** 0.4


def _write_csv(path, points):
    np.savetxt(path, points, fmt="%.17g", delimiter=",")


def _run_cli(span, argv):
    buf = io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _parse(text):
    try:
        return json.loads(text), None
    except ValueError:
        return None, f"unparseable output {text[:80]!r}"


# --- dist -------------------------------------------------------------------

# (input set, target, --mode). "swapped" runs the sample target with the two
# files exchanged; its printed value must equal the forward library result
# bit for bit.
DIST_PANEL = (
    ("d2", "sample", "auto"), ("d2", "swapped", "auto"), ("d2", "normal", "auto"),
    ("d5", "sample", "auto"), ("d5", "swapped", "auto"), ("d5", "normal", "auto"),
    ("d64", "sample", "auto"), ("d64", "swapped", "auto"), ("d64", "normal", "auto"),
    ("d64_cluster", "sample", "exact"), ("d64_cluster", "swapped", "exact"),
    ("d64_cluster", "normal", "exact"),
    ("d64_wide", "sample", "exact"), ("d64_wide", "swapped", "exact"),
    ("d64_wide", "normal", "exact"),
)


def _dist_inputs(rng):
    def normal(n, dim, scale=1.0, shift=0.0):
        return rng.standard_normal((n, dim)) * scale + shift

    def two_clusters(n, dim, scale, shift):
        return np.vstack([normal(n // 2, dim, scale, shift), normal(n - n // 2, dim, 1.0, 4.0)])

    # Within-cluster pair distances put s = d^2 / (4 gamma) near 51, inside
    # the quadrature window 40 < s < 64 of the exact profile at dim 64.
    sigma = math.sqrt(51.0 * 4.0 * _silverman(96) / (2.0 * 64))
    return {
        "d2": (normal(512, 2), normal(512, 2, 1.2, 0.1)),
        # Two far-apart clusters: series within, expansion across.
        "d5": (two_clusters(256, 5, 1.0, 0.0), two_clusters(256, 5, 1.1, 0.2)),
        "d64": (normal(512, 64), normal(512, 64, 1.1)),
        "d64_cluster": (normal(96, 64, sigma), normal(96, 64, sigma)),
        "d64_wide": (normal(256, 64), normal(256, 64, 1.1, 0.05)),
    }


class Dist:
    """In-process ``cramerwold dist`` over a cycled panel of CSV inputs."""

    def __init__(self, directory, seed):
        self.seed = seed
        self.arrays = _dist_inputs(np.random.default_rng([seed, 1]))
        self.paths = {}
        for name, (x, y) in self.arrays.items():
            px, py = directory / f"{name}_x.csv", directory / f"{name}_y.csv"
            _write_csv(px, x)
            _write_csv(py, y)
            self.paths[name] = (str(px), str(py))
        self.labels = [f"{name}/{target}/{mode}" for name, target, mode in DIST_PANEL]
        self.expected = [None] * len(DIST_PANEL)

    def op(self, index, span):
        name, target, mode = DIST_PANEL[index]
        px, py = self.paths[name]
        if target == "swapped":
            px, py = py, px
        argv = ["dist", px] + (["--y", py] if target != "normal" else []) + ["--mode", mode, "--json"]
        return _run_cli(span, argv)

    def warmup(self, span):
        failures = []
        for index, (name, target, mode) in enumerate(DIST_PANEL):
            x, y = self.arrays[name]
            if target == "normal":
                report = cw2_sample_normal(x, mode=mode)
            else:
                report = cw2_sample_sample(x, y, mode=mode)
            problem = _independent_check(report, x, None if target == "normal" else y,
                                         np.random.default_rng([self.seed, 2, index]))
            self.expected[index] = (report.squared_distance, problem)
            problem = self.check(index, self.op(index, span))
            if problem:
                failures.append(f"{self.labels[index]}: {problem}")
        return failures

    def check(self, index, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        out, problem = _parse(text)
        if problem:
            return problem
        expected, reference_problem = self.expected[index]
        got = out.get("squared_distance")
        if not isinstance(got, float) or got.hex() != expected.hex():
            return f"printed {got!r}, library gives {expected!r}"
        return reference_problem

    def describe(self):
        return "panel: " + ", ".join(self.labels)


def _independent_check(report, x, y, rng):
    """Recompute the closed form with exact pair differences and a scipy
    profile, after checking that profile against mpmath on sampled pairs."""
    import mpmath
    from scipy import special
    from scipy.spatial.distance import cdist

    dim = x.shape[1]
    mode = report.mode.value
    gamma = _silverman(x.shape[0] if y is None else min(x.shape[0], y.shape[0]))
    if report.gamma != gamma:
        return f"gamma {report.gamma!r} is not the Silverman value {gamma!r}"

    def profile(s):
        if mode == "asymptotic":
            return 1.0 / np.sqrt(1.0 + 4.0 * s / (2.0 * dim - 3.0))
        if mode == "bessel2":
            return special.i0e(0.5 * s)
        return special.hyp1f1(0.5, 0.5 * dim, -s)

    def profile_mp(s):
        s = mpmath.mpf(s)
        if mode == "asymptotic":
            return (1 + 4 * s / (2 * dim - 3)) ** mpmath.mpf(-0.5)
        return mpmath.hyp1f1(mpmath.mpf(1) / 2, mpmath.mpf(dim) / 2, -s)

    q = 1.0 / (4.0 * gamma)
    if y is None:
        s_sets = [q * cdist(x, x, "sqeuclidean"),
                  np.einsum("ij,ij->i", x, x) / (2.0 + 4.0 * gamma)]
    else:
        s_sets = [q * cdist(a, b, "sqeuclidean") for a, b in ((x, x), (y, y), (x, y))]
    pool = np.concatenate([s.ravel() for s in s_sets])
    with mpmath.workdps(30):
        for s in rng.choice(pool, size=MPMATH_SAMPLES, replace=False):
            ref = float(profile_mp(s))
            if abs(float(profile(np.array([s]))[0]) / ref - 1.0) > MPMATH_TOL:
                return f"scipy profile disagrees with mpmath at s={s!r}"
    sums = [float(profile(s).sum()) for s in s_sets]
    n = x.shape[0]
    if y is None:
        pair, norm = sums
        parts = (pair / math.sqrt(gamma), n * n / math.sqrt(1.0 + gamma),
                 -(2.0 * n / math.sqrt(gamma + 0.5)) * norm)
        denom = 2.0 * n * n * math.sqrt(math.pi)
    else:
        k = y.shape[0]
        parts = (sums[0] / (n * n), sums[1] / (k * k), -2.0 * sums[2] / (n * k))
        denom = 2.0 * math.sqrt(math.pi * gamma)
    value = max(sum(parts) / denom, 0.0)
    scale = sum(abs(p) for p in parts) / denom
    tol = REFERENCE_TOL[mode]
    if abs(value - report.squared_distance) > tol * scale:
        return (f"{mode} value {report.squared_distance!r} differs from the independent "
                f"{value!r} by more than {tol} of the term scale {scale!r}")
    return None


# --- oracle -----------------------------------------------------------------

ORACLE_N = 64
ORACLE_DIRECTIONS = 4000
ORACLE_PANEL = (("d5", "sample"), ("d5", "normal"), ("d64", "sample"), ("d64", "normal"))


class Oracle:
    """In-process ``cramerwold oracle-validate``, exact mode, n = 64."""

    def __init__(self, directory, seed):
        rng = np.random.default_rng([seed, 3])
        self.paths = {}
        for name, dim in (("d5", 5), ("d64", 64)):
            # The criterion-1 pair shape and the criterion-2 prior shape.
            x = rng.standard_normal((ORACLE_N, dim))
            y = rng.standard_normal((ORACLE_N, dim)) * 1.25 + 0.3
            p = rng.standard_normal((ORACLE_N, dim)) + 0.2
            files = []
            for tag, arr in (("x", x), ("y", y), ("p", p)):
                path = directory / f"oracle_{name}_{tag}.csv"
                _write_csv(path, arr)
                files.append(str(path))
            self.paths[name] = files
        self.mc_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(ORACLE_PANEL))]
        self.labels = [f"{name}/{target}" for name, target in ORACLE_PANEL]

    def op(self, index, span):
        name, target = ORACLE_PANEL[index]
        x, y, p = self.paths[name]
        files = [x, "--y", y] if target == "sample" else [p]
        argv = ["oracle-validate", *files, "--mode", "exact",
                "--directions", str(ORACLE_DIRECTIONS), "--seed", str(self.mc_seeds[index]), "--json"]
        return _run_cli(span, argv)

    def warmup(self, span):
        return [f"{self.labels[i]}: {problem}" for i in range(len(ORACLE_PANEL))
                if (problem := self.check(i, self.op(i, span)))]

    def check(self, index, output):
        code, text = output
        if code not in (0, 1):
            return f"exit code {code}"
        out, problem = _parse(text)
        if problem:
            return problem
        if code != 0 or out.get("verdict") != "ok":
            return f"closed form off the Monte Carlo estimate, z = {out.get('z_score')!r}"
        return None

    def describe(self):
        return f"panel: {', '.join(self.labels)}; {ORACLE_DIRECTIONS} directions"


# --- train ------------------------------------------------------------------

TRAIN_ROWS = 4096
VALID_ROWS = 3072
INPUT_DIM = 64
COMPONENTS = 8


class Train:
    """One CWAE epoch plus its validation record per op (library ``train``)."""

    def __init__(self, directory, seed):
        rng = np.random.default_rng([seed, 4])
        means = rng.standard_normal((COMPONENTS, INPUT_DIM)) * 2.0
        spread = rng.uniform(0.5, 1.5, size=COMPONENTS)
        rows = TRAIN_ROWS + VALID_ROWS
        which = rng.integers(0, COMPONENTS, size=rows)
        points = means[which] + spread[which, None] * rng.standard_normal((rows, INPUT_DIM))
        np.save(directory / "train.npy", points[:TRAIN_ROWS])
        np.save(directory / "valid.npy", points[TRAIN_ROWS:])
        self.train_x = np.load(directory / "train.npy")
        self.valid_x = np.load(directory / "valid.npy")
        # The step configuration: input 64, latent 8, hidden 200x3, batch 128.
        self.config = training.TrainConfig(
            latent_dim=8, batch_size=128, epochs=1, seed=int(rng.integers(0, 2**31)),
            encoder_hidden=(200, 200, 200), decoder_hidden=(200, 200, 200),
        )
        self.labels = ["epoch"]

    def op(self, index, span):
        with span("training.train"):
            return training.train(self.config, self.train_x, self.valid_x)[1]

    def warmup(self, span):
        problem = self.check(0, self.op(0, span))
        return [f"epoch: {problem}"] if problem else []

    def check(self, index, records):
        if len(records) != 1:
            return f"{len(records)} records for one epoch"
        bad = [k for k, v in vars(records[0]).items() if not math.isfinite(v)]
        return f"non-finite record fields {bad}" if bad else None

    def describe(self):
        return (f"{TRAIN_ROWS} training rows, {VALID_ROWS} validation rows, "
                f"{COMPONENTS}-component mixture, config seed {self.config.seed}")


WORKLOADS = {"dist": Dist, "oracle": Oracle, "train": Train}


def prepare(name, directory, seed):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](directory, seed)
