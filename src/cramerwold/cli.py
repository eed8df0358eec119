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

Reports are ``key=value`` lines (floats via repr, so they round-trip
bit-for-bit and equal the library call's result exactly) or a single JSON
object with --json; every report carries the library version and wall-clock
time.  Exit codes: 0 success, 1 validation failure, 2 usage or I/O errors.
"""

import argparse
import functools
import json
import math
import os
import sys
import time

from . import bench, data, oracle, training
from .distance import cw2_sample_normal, cw2_sample_sample
from .normality import mardia
from .phi import PhiMode

MODE_CHOICES = ("auto", *(m.value for m in PhiMode))
Z_LIMIT = 4.0


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(pairs, args, started, out_override=None):
    from . import __version__

    pairs = list(pairs)
    pairs.append(("elapsed_seconds", time.perf_counter() - started))
    pairs.append(("version", __version__))
    if getattr(args, "json", False):
        text = json.dumps(dict(pairs))
    else:
        text = "\n".join(f"{key}={_format_value(value)}" for key, value in pairs)
    print(text)
    out = out_override if out_override is not None else getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _load_points(path):
    return data.load_csv(path).points


def _closed_form(args):
    """(x, y, report) for the sample and --y; the distance layer defaults gamma."""
    x = _load_points(args.sample)
    if args.y is None:
        return x, None, cw2_sample_normal(x, gamma=args.gamma, mode=args.mode)
    y = _load_points(args.y)
    return x, y, cw2_sample_sample(x, y, gamma=args.gamma, mode=args.mode)


def _cmd_dist(args, started):
    _, y, report = _closed_form(args)
    pairs = [("command", "dist")]
    if y is None:
        pairs.extend([("target", "normal"), ("n", report.n)])
    else:
        pairs.extend([("target", "sample"), ("n", report.n), ("k", report.k)])
    pairs.extend([
        ("dim", report.dim),
        ("gamma", report.gamma),
        ("mode", report.mode.value),
        ("squared_distance", report.squared_distance),
    ])
    _emit(pairs, args, started)
    return 0


def _cmd_oracle_validate(args, started):
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
    _emit(
        [
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
        ],
        args,
        started,
    )
    return 0 if ok else 1


def _cmd_normality(args, started):
    x = _load_points(args.sample)
    stats = mardia(x)
    _emit(
        [
            ("command", "normality"),
            ("n", stats.n),
            ("dim", stats.dim),
            ("skewness", stats.skewness),
            ("kurtosis", stats.kurtosis),
            ("reference_kurtosis", float(stats.dim * (stats.dim + 2))),
            ("normalized_kurtosis", stats.normalized_kurtosis),
        ],
        args,
        started,
    )
    return 0


def _cmd_train(args, started):
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
    dataset = data.load_csv(args.data)
    train_set, valid_set = data.train_valid_split(
        dataset, valid_fraction=valid_fraction, seed=config.seed
    )
    params, records = training.train(config, train_set.points, valid_set.points)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.cwae")
    curves_path = os.path.join(args.out, "curves.csv")
    training.save_checkpoint(ckpt_path, params, config)
    training.records_to_csv(records, curves_path)
    _emit(
        [
            ("command", "train"),
            ("objective", config.objective),
            ("epochs", config.epochs),
            ("seed", config.seed),
            ("n_train", train_set.n),
            ("n_valid", valid_set.n),
            *((f"final_{name}", getattr(records[-1], name)) for name in training.CSV_COLUMNS),
            ("checkpoint", ckpt_path),
            ("curves", curves_path),
        ],
        args,
        started,
        out_override=os.path.join(args.out, "report.txt"),
    )
    return 0


def _parse_sizes(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise ValueError(f"--sizes: could not parse {text!r}") from None


def _cmd_bench(args, started):
    report = bench.run_bench(
        dim=args.dim,
        sizes=_parse_sizes(args.sizes),
        repeats=args.repeats,
        warmup=args.warmup,
        seed=args.seed,
    )
    pairs = [
        ("command", "bench"),
        ("dim", report.dim),
        ("sizes", ",".join(str(n) for n in report.sizes)),
        ("repeats", report.repeats),
        ("warmup", report.warmup),
    ]
    pairs += [(f"seconds_{size}", seconds) for size, seconds in report.seconds.items()]
    pairs += [(f"ratio_{small}_{big}", ratio) for (small, big), ratio in report.ratios.items()]
    ok = report.doubling_ok()
    pairs.append(("ratio_window", f"{bench.RATIO_LOW},{bench.RATIO_HIGH}"))
    pairs.append(("verdict", "ok" if ok else "out_of_window"))
    _emit(pairs, args, started)
    return 0 if ok else 1


def _add_common(parser, gamma=False, mode=False, directions=False, seed=None):
    if gamma:
        parser.add_argument("--gamma", type=float, default=None,
                            help="smoothing scale (default: Silverman rule)")
    if mode:
        parser.add_argument("--mode", choices=MODE_CHOICES, default="auto",
                            help="kernel evaluation mode")
    if directions:
        parser.add_argument("--directions", type=int, default=10_000,
                            help="Monte-Carlo projection count")
    if seed is not None:
        parser.add_argument("--seed", type=int, default=seed, help="RNG seed")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON object instead of key=value lines")


@functools.cache  # one parser per process: building it costs about 1.5 ms
def build_parser():
    parser = argparse.ArgumentParser(
        prog="cramerwold",
        description="Cramer-Wold distance tools: distances, validation, "
                    "normality statistics, autoencoder training, benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("dist", help="closed-form squared distance")
    p.add_argument("sample", help="CSV sample (rows = points)")
    p.add_argument("--y", default=None,
                   help="second CSV sample; omit to compare against N(0, I)")
    _add_common(p, gamma=True, mode=True)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("oracle-validate",
                       help="cross-check closed form against Monte Carlo")
    p.add_argument("sample", help="CSV sample (rows = points)")
    p.add_argument("--y", default=None,
                   help="second CSV sample; omit to compare against N(0, I)")
    _add_common(p, gamma=True, mode=True, directions=True, seed=0)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=_cmd_oracle_validate)

    p = sub.add_parser("normality", help="multivariate skewness/kurtosis")
    p.add_argument("sample", help="CSV sample (rows = points)")
    _add_common(p)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=_cmd_normality)

    p = sub.add_parser("train", help="fit an autoencoder on a CSV dataset")
    p.add_argument("data", help="CSV dataset (rows = points)")
    p.add_argument("--config", required=True,
                   help="key=value config file (see training.TrainConfig)")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, seed=None)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="time the pairwise kernels")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--sizes", default="128,256",
                   help="comma-separated batch sizes (default 128,256)")
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    _add_common(p, seed=0)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed the usage message already
        return int(exc.code or 0)
    try:
        return args.func(args, started)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
