"""Command-line interface.

Subcommands:
  dist             closed-form squared distance between two samples; with
                   --y omitted, against the standard normal prior
  oracle-validate  closed form vs the Monte-Carlo estimator; exits 1 when
                   the z-score of the discrepancy exceeds 4
  normality        multivariate skewness/kurtosis summary of a sample
  train            fit an autoencoder, write checkpoint + training curves
  bench            time a training step's distance and gradient kernels; exits
                   1 when a batch-size doubling step scales outside [2.5, 6]

Each command returns its report as (key, value) pairs and an exit code;
``main`` alone appends the library version and wall-clock time, formats the
report as ``key=value`` lines (``str`` of a float is its round-trip repr, so
a value equals the library call's result bit for bit) or, with --json, as one
JSON object, prints it and mirrors it to --out (``<out>/report.txt`` for
train).  Exit codes: 0 success, 1 validation failure, 2 usage or I/O errors.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

from . import __version__, bench, data, oracle, training
from .distance import cw2_sample_normal, cw2_sample_sample
from .normality import mardia
from .phi import PhiMode

MODE_CHOICES = ("auto", *(m.value for m in PhiMode))
Z_LIMIT = 4.0


def _closed_form(args):
    """(x, y, report) for the sample and --y; the distance layer defaults gamma."""
    x = data.load_csv(args.sample).points
    if args.y is None:
        return x, None, cw2_sample_normal(x, gamma=args.gamma, mode=args.mode)
    y = data.load_csv(args.y).points
    return x, y, cw2_sample_sample(x, y, gamma=args.gamma, mode=args.mode)


def _cmd_dist(args):
    _, y, report = _closed_form(args)
    sizes = [("n", report.n)] if y is None else [("n", report.n), ("k", report.k)]
    return [
        ("command", "dist"),
        ("target", "normal" if y is None else "sample"),
        *sizes,
        ("dim", report.dim),
        ("gamma", report.gamma),
        ("mode", report.mode.value),
        ("squared_distance", report.squared_distance),
    ], 0


def _cmd_oracle_validate(args):
    x, y, report = _closed_form(args)
    if y is None:
        estimate = oracle.cw2_normal_monte_carlo(x, args.directions, args.seed, gamma=report.gamma)
    else:
        estimate = oracle.cw2_monte_carlo(x, y, args.directions, args.seed, gamma=report.gamma)
    closed = report.squared_distance
    if estimate.std_error == 0.0:
        z = 0.0 if closed == estimate.estimate else math.inf
    else:
        z = (closed - estimate.estimate) / estimate.std_error
    ok = abs(z) <= Z_LIMIT
    return [
        ("command", "oracle-validate"),
        ("target", "normal" if y is None else "sample"),
        ("closed_form", closed),
        ("mc_estimate", estimate.estimate),
        ("mc_std_error", estimate.std_error),
        ("z_score", z),
        ("directions", args.directions),
        ("seed", args.seed),
        ("gamma", report.gamma),
        ("mode", report.mode.value),
        ("verdict", "ok" if ok else "deviates"),
    ], 0 if ok else 1


def _cmd_normality(args):
    stats = mardia(data.load_csv(args.sample).points)
    return [
        ("command", "normality"),
        ("n", stats.n),
        ("dim", stats.dim),
        ("skewness", stats.skewness),
        ("kurtosis", stats.kurtosis),
        ("reference_kurtosis", float(stats.dim * (stats.dim + 2))),
        ("normalized_kurtosis", stats.normalized_kurtosis),
    ], 0


def _cmd_train(args):
    with open(args.config) as fh:
        config, extras = training.config_from_text(fh.read(), extra_keys=("valid_fraction",))
    if args.seed is not None:
        config.seed = args.seed
    training.validate_config(config)
    valid_fraction = extras.get("valid_fraction", "0.1")
    try:
        valid_fraction = float(valid_fraction)
    except ValueError:
        raise ValueError(f"field 'valid_fraction': could not parse {valid_fraction!r}") from None
    os.makedirs(args.out, exist_ok=True)  # before a run that an unwritable --out would waste
    dataset = data.load_csv(args.data)
    train_set, valid_set = data.train_valid_split(
        dataset, valid_fraction=valid_fraction, seed=config.seed
    )
    params, records = training.train(config, train_set.points, valid_set.points)
    ckpt_path = os.path.join(args.out, "checkpoint.cwae")
    curves_path = os.path.join(args.out, "curves.csv")
    training.save_checkpoint(ckpt_path, params, config)
    training.records_to_csv(records, curves_path)
    return [
        ("command", "train"),
        ("objective", config.objective),
        ("epochs", config.epochs),
        ("seed", config.seed),
        ("n_train", train_set.n),
        ("n_valid", valid_set.n),
        *((f"final_{name}", getattr(records[-1], name)) for name in training.CSV_COLUMNS),
        ("checkpoint", ckpt_path),
        ("curves", curves_path),
    ], 0


def _parse_sizes(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise ValueError(f"--sizes: could not parse {text!r}") from None


def _cmd_bench(args):
    report = bench.run_bench(
        dim=args.dim,
        sizes=_parse_sizes(args.sizes),
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
    )
    ok = report.doubling_ok()
    return [
        ("command", "bench"),
        ("dim", report.dim),
        ("sizes", ",".join(str(n) for n in report.sizes)),
        ("repeats", report.repeats),
        ("warmup", report.warmup),
        *((f"seconds_{size}", seconds) for size, seconds in report.seconds.items()),
        *((f"ratio_{small}_{big}", ratio) for (small, big), ratio in report.ratios.items()),
        ("ratio_window", f"{bench.RATIO_LOW},{bench.RATIO_HIGH}"),
        ("verdict", "ok" if ok else "out_of_window"),
    ], 0 if ok else 1


@functools.cache  # one parser per process: building it costs about 1.5 ms
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cramerwold",
        description="Cramer-Wold distance tools: distances, validation, "
                    "normality statistics, autoencoder training, benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # each argument that several subcommands take is declared once, in a parent
    shared = functools.partial(argparse.ArgumentParser, add_help=False)
    sample = shared()
    sample.add_argument("sample", help="CSV sample (rows = points)")
    closed_form = shared()
    closed_form.add_argument("--y", default=None,
                             help="second CSV sample; omit to compare against N(0, I)")
    closed_form.add_argument("--gamma", type=float, default=None,
                             help="smoothing scale (default: Silverman rule)")
    closed_form.add_argument("--mode", choices=MODE_CHOICES, default="auto",
                             help="kernel evaluation mode")
    as_json = shared()
    as_json.add_argument("--json", action="store_true",
                         help="emit one JSON object instead of key=value lines")
    mirror = shared()
    mirror.add_argument("--out", default=None, help="also write the report here")
    seed = shared()
    seed.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("dist", parents=[sample, closed_form, as_json, mirror],
                       help="closed-form squared distance")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("oracle-validate", parents=[sample, closed_form, as_json, mirror, seed],
                       help="cross-check closed form against Monte Carlo")
    p.add_argument("--directions", type=int, default=10_000,
                   help="Monte-Carlo projection count")
    p.set_defaults(func=_cmd_oracle_validate)

    p = sub.add_parser("normality", parents=[sample, as_json, mirror],
                       help="multivariate skewness/kurtosis")
    p.set_defaults(func=_cmd_normality)

    p = sub.add_parser("train", parents=[as_json], help="fit an autoencoder on a CSV dataset")
    p.add_argument("data", help="CSV dataset (rows = points)")
    p.add_argument("--config", required=True,
                   help="key=value config file (see training.TrainConfig)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", parents=[as_json, mirror, seed], help="time the pairwise kernels")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--sizes", default="128,256",
                   help="comma-separated batch sizes (default 128,256)")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage message already
        return int(exc.code or 0)
    try:
        pairs, code = args.func(args)
        pairs += [("elapsed_seconds", time.perf_counter() - started), ("version", __version__)]
        text = (json.dumps(dict(pairs)) if args.json
                else "\n".join(f"{key}={value}" for key, value in pairs))
        print(text)
        if args.out:
            path = os.path.join(args.out, "report.txt") if args.subcommand == "train" else args.out
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
