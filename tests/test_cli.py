"""Tests for the command-line interface.

Commands run in-process through ``cli.main``; reports are parsed back from
the key=value output and compared against direct library calls — the repr
float format means equality is exact, not approximate.
"""

import csv
import json
import re

import numpy as np
import pytest

from cramerwold import (
    __version__,
    cli,
    cw2_monte_carlo,
    cw2_normal_monte_carlo,
    load_checkpoint,
    mardia,
    run_bench,
    silverman_gamma,
)
from cramerwold.data import save_csv
from cramerwold.distance import cw2_sample_normal, cw2_sample_sample


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_report(text):
    return dict(line.split("=", 1) for line in text.strip().splitlines())


@pytest.fixture
def sample_csv(rng, tmp_path):
    x = rng.standard_normal((16, 5))
    path = tmp_path / "x.csv"
    save_csv(path, x)
    return path, x


@pytest.fixture
def second_csv(rng, tmp_path):
    rng.standard_normal((16, 5))  # advance past the first fixture's draw
    y = rng.standard_normal((16, 5)) * 1.5 + 1.0
    path = tmp_path / "y.csv"
    save_csv(path, y)
    return path, y


class TestDist:
    def test_normal_target_matches_library_exactly(self, capsys, sample_csv):
        path, x = sample_csv
        code, out, _ = run_cli(capsys, "dist", str(path))
        assert code == 0
        report = parse_report(out)
        expected = cw2_sample_normal(x, gamma=silverman_gamma(16))
        assert report["target"] == "normal"
        assert float(report["squared_distance"]) == expected.squared_distance
        assert float(report["gamma"]) == expected.gamma
        assert report["mode"] == expected.mode.value
        assert int(report["n"]) == 16
        assert int(report["dim"]) == 5

    def test_sample_target_matches_library_exactly(self, capsys, sample_csv, second_csv):
        xp, x = sample_csv
        yp, y = second_csv
        code, out, _ = run_cli(capsys, "dist", str(xp), "--y", str(yp), "--mode", "exact")
        assert code == 0
        report = parse_report(out)
        expected = cw2_sample_sample(x, y, gamma=silverman_gamma(16), mode="exact")
        assert float(report["squared_distance"]) == expected.squared_distance
        assert report["target"] == "sample"
        assert int(report["k"]) == 16

    def test_same_file_twice_gives_zero(self, capsys, sample_csv):
        path, _ = sample_csv
        code, out, _ = run_cli(capsys, "dist", str(path), "--y", str(path))
        assert code == 0
        assert float(parse_report(out)["squared_distance"]) == 0.0

    def test_explicit_gamma_is_used(self, capsys, sample_csv):
        path, x = sample_csv
        code, out, _ = run_cli(capsys, "dist", str(path), "--gamma", "0.25")
        report = parse_report(out)
        assert float(report["gamma"]) == 0.25
        assert (
            float(report["squared_distance"])
            == cw2_sample_normal(x, gamma=0.25).squared_distance
        )

    def test_json_output(self, capsys, sample_csv):
        path, x = sample_csv
        code, out, _ = run_cli(capsys, "dist", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        expected = cw2_sample_normal(x, gamma=silverman_gamma(16))
        assert report["squared_distance"] == expected.squared_distance
        assert report["version"] == __version__

    def test_out_file_mirrors_stdout(self, capsys, sample_csv, tmp_path):
        path, _ = sample_csv
        out_path = tmp_path / "report.txt"
        _, out, _ = run_cli(capsys, "dist", str(path), "--out", str(out_path))
        assert out_path.read_text() == out

    def test_report_carries_version_and_timing(self, capsys, sample_csv):
        path, _ = sample_csv
        _, out, _ = run_cli(capsys, "dist", str(path))
        report = parse_report(out)
        assert report["version"] == __version__
        assert float(report["elapsed_seconds"]) >= 0.0

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "dist", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error:" in err

    def test_malformed_csv_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        code, _, err = run_cli(capsys, "dist", str(path))
        assert code == 2
        assert "row 2" in err

    def test_empty_csv_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, _, err = run_cli(capsys, "dist", str(path))
        assert code == 2
        assert "no data rows" in err


class TestOracleValidate:
    def test_identical_samples_agree_with_zero_z(self, capsys, sample_csv):
        path, _ = sample_csv
        code, out, _ = run_cli(
            capsys, "oracle-validate", str(path), "--y", str(path), "--directions", "100"
        )
        assert code == 0
        report = parse_report(out)
        assert float(report["z_score"]) == 0.0
        assert report["verdict"] == "ok"

    def test_healthy_sample_passes(self, capsys, sample_csv):
        path, _ = sample_csv
        code, out, _ = run_cli(
            capsys, "oracle-validate", str(path), "--directions", "5000", "--seed", "1"
        )
        assert code == 0
        assert parse_report(out)["verdict"] == "ok"

    def test_starved_estimator_fails_the_gate(self, tmp_path, capsys):
        # two directions cannot resolve the distance between these clouds:
        # the measured z-score is ~9, far past the limit of 4
        r = np.random.default_rng(42)
        x = r.standard_normal((16, 5))
        y = r.standard_normal((16, 5)) * 1.5 + 1.0
        xp = tmp_path / "x.csv"
        yp = tmp_path / "y.csv"
        save_csv(xp, x)
        save_csv(yp, y)
        code, out, _ = run_cli(
            capsys,
            "oracle-validate",
            str(xp),
            "--y",
            str(yp),
            "--directions",
            "2",
            "--seed",
            "0",
            "--mode",
            "exact",
        )
        assert code == 1
        report = parse_report(out)
        assert report["verdict"] == "deviates"
        assert abs(float(report["z_score"])) > cli.Z_LIMIT

    @pytest.mark.parametrize("target", ["normal", "sample"])
    @pytest.mark.parametrize("gamma", [None, 0.3])
    def test_report_matches_library_exactly(self, capsys, sample_csv, tmp_path, target, gamma):
        # the default gamma is the Silverman rule at min(n, k): 16 and 11 here
        path, x = sample_csv
        argv = ["oracle-validate", str(path), "--directions", "300", "--seed", "4"]
        if target == "sample":
            y = np.random.default_rng(8).standard_normal((11, 5)) * 1.2 + 0.3
            save_csv(tmp_path / "y11.csv", y)
            argv += ["--y", str(tmp_path / "y11.csv")]
        if gamma is not None:
            argv += ["--gamma", repr(gamma)]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        report = parse_report(out)
        if target == "normal":
            g = silverman_gamma(16) if gamma is None else gamma
            closed = cw2_sample_normal(x, gamma=g)
            estimate = cw2_normal_monte_carlo(x, 300, 4, gamma=g)
        else:
            g = silverman_gamma(11) if gamma is None else gamma
            closed = cw2_sample_sample(x, y, gamma=g)
            estimate = cw2_monte_carlo(x, y, 300, 4, gamma=g)
        assert report["target"] == target
        assert float(report["closed_form"]) == closed.squared_distance
        assert float(report["mc_estimate"]) == estimate.estimate
        assert float(report["mc_std_error"]) == estimate.std_error
        assert float(report["gamma"]) == g == closed.gamma
        assert report["mode"] == closed.mode.value

    def test_too_few_directions_is_a_usage_error(self, capsys, sample_csv):
        path, _ = sample_csv
        code, _, err = run_cli(
            capsys, "oracle-validate", str(path), "--directions", "0"
        )
        assert code == 2
        assert "num_directions" in err

    def test_negative_seed_is_a_usage_error(self, capsys, sample_csv):
        path, _ = sample_csv
        code, _, err = run_cli(
            capsys, "oracle-validate", str(path), "--directions", "10", "--seed", "-1"
        )
        assert code == 2
        assert "seed" in err


class TestNormality:
    def test_matches_library_exactly(self, capsys, sample_csv):
        path, x = sample_csv
        code, out, _ = run_cli(capsys, "normality", str(path))
        assert code == 0
        report = parse_report(out)
        stats = mardia(x)
        assert float(report["skewness"]) == stats.skewness
        assert float(report["kurtosis"]) == stats.kurtosis
        assert float(report["normalized_kurtosis"]) == stats.normalized_kurtosis
        assert float(report["reference_kurtosis"]) == 35.0


class TestTrain:
    def write_inputs(self, rng, tmp_path, epochs=5):
        data_path = tmp_path / "data.csv"
        save_csv(data_path, rng.standard_normal((48, 3)) * 0.5)
        config_path = tmp_path / "train.cfg"
        config_path.write_text(
            "latent_dim=2\n"
            "batch_size=8\n"
            f"epochs={epochs}\n"
            "encoder_hidden=8\n"
            "decoder_hidden=8\n"
            "valid_fraction=0.25\n"
        )
        return data_path, config_path

    def test_smoke_run_writes_artifacts(self, rng, tmp_path, capsys):
        data_path, config_path = self.write_inputs(rng, tmp_path)
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(out_dir),
        )
        assert code == 0
        report = parse_report(out)
        assert report["objective"] == "cwae"
        assert int(report["final_epoch"]) == 5
        assert int(report["n_train"]) == 36
        assert int(report["n_valid"]) == 12
        curves = (out_dir / "curves.csv").read_text().strip().splitlines()
        assert len(curves) == 1 + 5
        params, _ = load_checkpoint(out_dir / "checkpoint.cwae")
        assert params.encoder[0][0].shape == (3, 8)
        assert (out_dir / "report.txt").read_text() == out

    def test_seed_override_is_reported(self, rng, tmp_path, capsys):
        data_path, config_path = self.write_inputs(rng, tmp_path, epochs=1)
        code, out, _ = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(tmp_path / "run"), "--seed", "9",
        )
        assert code == 0
        assert int(parse_report(out)["seed"]) == 9

    def test_out_is_made_before_training(self, rng, tmp_path, capsys, monkeypatch):
        # an --out under a regular file cannot be made: that ends the run before it trains
        def no_training(*args, **kwargs):
            raise AssertionError("trained before making --out")

        monkeypatch.setattr(cli.training, "train", no_training)
        data_path, config_path = self.write_inputs(rng, tmp_path, epochs=1)
        code, _, err = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(data_path / "run"),
        )
        assert code == 2
        assert "error:" in err

    def test_bad_config_value_is_a_usage_error(self, rng, tmp_path, capsys):
        data_path, _ = self.write_inputs(rng, tmp_path)
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("latent_dim=two\nbatch_size=8\nepochs=1\n")
        code, _, err = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "latent_dim" in err

    def test_negative_seed_is_a_usage_error(self, rng, tmp_path, capsys):
        # the seed is checked by name before the train/validation split uses it
        data_path, config_path = self.write_inputs(rng, tmp_path)
        code, _, err = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(tmp_path / "run"), "--seed", "-1",
        )
        assert code == 2
        assert "seed" in err

    def test_final_lines_equal_the_last_curves_row(self, rng, tmp_path, capsys):
        data_path, config_path = self.write_inputs(rng, tmp_path, epochs=3)
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(out_dir),
        )
        assert code == 0
        report = parse_report(out)
        with open(out_dir / "curves.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        finals = {k: v for k, v in report.items() if k.startswith("final_")}
        assert finals == {f"final_{name}": value for name, value in zip(rows[0], rows[-1])}

    def test_unparseable_valid_fraction_is_named(self, rng, tmp_path, capsys):
        data_path, config_path = self.write_inputs(rng, tmp_path)
        config_path.write_text(
            config_path.read_text().replace("valid_fraction=0.25", "valid_fraction=a quarter")
        )
        code, _, err = run_cli(
            capsys, "train", str(data_path), "--config", str(config_path),
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "valid_fraction" in err and "'a quarter'" in err


class TestBench:
    def test_single_size_omits_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--dim", "5", "--sizes", "32",
            "--repeats", "2", "--warmup", "1",
        )
        assert code == 0
        report = parse_report(out)
        assert report["verdict"] == "ok"
        assert not [k for k in report if re.fullmatch(r"ratio_\d+_\d+", k)]
        assert float(report["seconds_32"]) > 0.0
        assert report["ratio_window"] == "2.5,6.0"
        assert "active_backend" not in report

    def test_two_sizes_print_seconds_and_the_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--dim", "5", "--sizes", "16,32",
            "--repeats", "1", "--warmup", "0",
        )
        report = parse_report(out)
        assert {"seconds_16", "seconds_32", "ratio_16_32"} <= set(report)
        seconds = float(report["seconds_32"]) / float(report["seconds_16"])
        assert float(report["ratio_16_32"]) == seconds
        assert code == (0 if report["verdict"] == "ok" else 1)

    def test_mode_option_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--sizes", "32", "--mode", "exact")
        assert code == 2
        assert "--mode" in err

    def test_run_bench_takes_numpy_integers(self):
        report = run_bench(dim=np.int64(8), sizes=np.array([16, 32]), repeats=1, warmup=0)
        assert list(report.ratios) == [(16, 32)]
        assert report.ratios[(16, 32)] == report.seconds[32] / report.seconds[16]

    def test_zero_repeats_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--sizes", "32", "--repeats", "0"
        )
        assert code == 2
        assert "repeats" in err

    def test_unsorted_sizes_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--sizes", "64,32")
        assert code == 2
        assert "increasing" in err

    def test_negative_seed_is_named(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--sizes", "32", "--seed", "-1")
        assert code == 2
        assert "seed must be >= 0, got -1" in err

    def test_run_bench_rejects_a_negative_seed_by_name(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_bench(dim=5, sizes=(32,), repeats=1, warmup=0, seed=-1)

    @pytest.mark.parametrize("option, message", [
        ({"sizes": (1, 32)}, "a size must be >= 2, got 1"),
        ({"warmup": -1}, "warmup must be >= 0, got -1"),
    ])
    def test_run_bench_rejects_an_out_of_range_option(self, option, message):
        kwargs = {"dim": 5, "sizes": (16, 32), "repeats": 1, "warmup": 0, **option}
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bench(**kwargs)

    def test_unparseable_sizes_are_named(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--sizes", "128,x")
        assert code == 2
        assert "--sizes: could not parse '128,x'" in err

    @pytest.mark.parametrize("option, message", [
        ({"sizes": (16.0, 32.0)}, "a size must be an integer, got 16.0"),
        ({"sizes": (16, 32.5)}, "a size must be an integer, got 32.5"),
        ({"repeats": 1.5}, "repeats must be an integer, got 1.5"),
        ({"warmup": 0.5}, "warmup must be an integer, got 0.5"),
        ({"warmup": True}, "warmup must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"repeats": None}, "repeats must be an integer, got None"),
        ({"dim": 5.0}, "dimension must be an integer, got 5.0"),
        ({"dim": None}, "dimension must be an integer, got None"),
    ])
    def test_run_bench_names_a_non_integer_option(self, option, message):
        kwargs = {"dim": 5, "sizes": (16, 32), "repeats": 1, "warmup": 0, **option}
        with pytest.raises(ValueError, match=re.escape(message)):
            run_bench(**kwargs)


class TestUsage:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_one_parser_serves_every_call(self, capsys, sample_csv, second_csv):
        # the parser is built once per process; calls with different
        # subcommands, and a usage error between them, still parse as a
        # freshly built parser does and print what the library gives
        (xp, x), (yp, y) = sample_csv, second_csv
        calls = [["dist", str(xp), "--y", str(yp), "--mode", "exact"],
                 ["normality", str(xp), "--json"], ["dist", str(xp), "--gamma", "0.25"]]
        assert cli.build_parser() is cli.build_parser()
        for argv in calls:
            fresh = cli.build_parser.__wrapped__().parse_args(argv)
            assert vars(cli.build_parser().parse_args(argv)) == vars(fresh)
        code, out, _ = run_cli(capsys, *calls[0])
        assert code == 0
        expected = cw2_sample_sample(x, y, gamma=silverman_gamma(16), mode="exact")
        assert float(parse_report(out)["squared_distance"]) == expected.squared_distance
        assert run_cli(capsys, "dist", str(xp), "--mode", "bogus")[0] == 2
        code, out, _ = run_cli(capsys, *calls[1])
        assert code == 0
        assert json.loads(out)["skewness"] == mardia(x).skewness
        code, out, _ = run_cli(capsys, *calls[2])
        assert code == 0
        report = parse_report(out)
        assert report["command"] == "dist" and report["target"] == "normal"
        assert float(report["squared_distance"]) == cw2_sample_normal(x, gamma=0.25).squared_distance
        assert run_cli(capsys, "frobnicate")[0] == 2


def report_argv(command, rng, tmp_path, xp, yp):
    """A tiny run of ``command``; train's still needs its --out directory."""
    if command == "train":
        data_path, config_path = TestTrain().write_inputs(rng, tmp_path, epochs=1)
        return ["train", str(data_path), "--config", str(config_path)]
    return {
        "dist": ["dist", str(xp), "--y", str(yp)],
        "oracle-validate": ["oracle-validate", str(xp), "--y", str(xp), "--directions", "50"],
        "normality": ["normality", str(xp)],
        "bench": ["bench", "--dim", "3", "--sizes", "16", "--repeats", "1", "--warmup", "0"],
    }[command]


class TestReportPath:
    """Every subcommand's report takes one path: printed, mirrored to --out
    (``<out>/report.txt`` for train), and with --json one object of the same keys."""

    COMMANDS = ["dist", "oracle-validate", "normality", "bench", "train"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_mirrors_stdout_and_json_carries_the_same_keys(
        self, capsys, rng, tmp_path, sample_csv, second_csv, command
    ):
        argv = report_argv(command, rng, tmp_path, sample_csv[0], second_csv[0])
        if command == "train":
            out, mirror = tmp_path / "run", tmp_path / "run" / "report.txt"
        else:
            out = mirror = tmp_path / "report.txt"
        code, text, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0
        assert mirror.read_text() == text
        code, as_json, _ = run_cli(capsys, *argv, "--out", str(out), "--json")
        assert code == 0
        assert mirror.read_text() == as_json
        assert list(json.loads(as_json)) == list(parse_report(text))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_that_cannot_be_written_is_a_usage_error(
        self, capsys, rng, tmp_path, sample_csv, second_csv, command
    ):
        # train makes its --out directory, so it fails under a regular file instead
        argv = report_argv(command, rng, tmp_path, sample_csv[0], second_csv[0])
        parent = sample_csv[0] if command == "train" else tmp_path / "missing"
        code, _, err = run_cli(capsys, *argv, "--out", str(parent / "report.txt"))
        assert code == 2
        assert "error:" in err
