"""Tests for the CWAE objective, its gradients, and the training loop."""

import csv
import math
import struct

import numpy as np
import pytest

from cramerwold import (
    TrainConfig,
    cost_and_grad,
    cw2_sample_normal,
    cwae_cost,
    load_checkpoint,
    save_checkpoint,
    silverman_gamma,
    train,
)
from cramerwold import mlp
from cramerwold.phi import PhiMode
from cramerwold.training import (
    CSV_COLUMNS,
    _clip_grads,
    config_from_text,
    config_to_text,
    records_to_csv,
    validate_config,
)


def small_net(rng, activation="identity"):
    x = rng.standard_normal((16, 4))
    if activation == "sigmoid":
        x = 1.0 / (1.0 + np.exp(-x))
    params = mlp.init_mlp(4, 2, (8, 8), (8, 8), activation, rng)
    return x, params


def nudged(params, rng, scale=0.01):
    """Move parameters off the zero-bias init point.

    At init every bias is exactly zero, so a ReLU unit whose active inputs
    all vanish has its preactivation sitting exactly on the kink; central
    differences there measure the average of the one-sided slopes rather
    than the subgradient backprop reports.  A small generic offset removes
    the degeneracy.
    """
    return params.like(params.flat + scale * rng.standard_normal(params.flat.size))


class TestCostBreakdown:
    def test_total_combines_terms(self, rng):
        x, params = small_net(rng)
        cost = cwae_cost(x, params, gamma=0.5, eps_log=1e-12, cw_weight=1.0)
        assert cost.total == cost.cw_log + cost.mse
        assert cost.cw_log == math.log(max(cost.cw_squared, 1e-12))

    def test_cw_term_is_the_library_distance(self, rng):
        # single source of truth: the cost must reuse the closed-form
        # distance bit for bit, not reimplement it
        x, params = small_net(rng)
        cost = cwae_cost(x, params)
        z = mlp.encode(params, x)
        report = cw2_sample_normal(z, gamma=silverman_gamma(16), mode=PhiMode.ASYMPTOTIC)
        assert cost.cw_squared == report.squared_distance

    def test_explicit_gamma_passes_through(self, rng):
        x, params = small_net(rng)
        z = mlp.encode(params, x)
        cost = cwae_cost(x, params, gamma=0.25)
        report = cw2_sample_normal(z, gamma=0.25, mode=PhiMode.ASYMPTOTIC)
        assert cost.cw_squared == report.squared_distance

    def test_weight_scales_only_the_log_term(self, rng):
        x, params = small_net(rng)
        base = cwae_cost(x, params, cw_weight=1.0)
        doubled = cwae_cost(x, params, cw_weight=2.0)
        assert doubled.mse == base.mse
        assert doubled.total == 2.0 * base.cw_log + base.mse

    def test_floor_kicks_in_for_large_eps(self, rng):
        # with a floor far above the actual squared distance the log term
        # freezes, and no distance gradient flows at all
        x, params = small_net(rng)
        cost = cwae_cost(x, params, eps_log=10.0)
        assert cost.cw_squared < 10.0
        assert cost.cw_log == math.log(10.0)
        floored, _ = cost_and_grad(x, params, objective="cwae", eps_log=10.0)
        plain, _ = cost_and_grad(x, params, objective="plain_ae")
        assert np.array_equal(floored, plain)

    def test_cost_and_grad_matches_cwae_cost(self, rng):
        x, params = small_net(rng)
        _, cost = cost_and_grad(x, params, objective="cwae")
        direct = cwae_cost(x, params)
        assert cost.total == direct.total
        assert cost.mse == direct.mse
        assert cost.cw_squared == direct.cw_squared

    def test_plain_objective_drops_log_term(self, rng):
        x, params = small_net(rng)
        _, cost = cost_and_grad(x, params, objective="plain_ae")
        assert cost.total == cost.mse

    def test_rejects_unknown_objective(self, rng):
        x, params = small_net(rng)
        with pytest.raises(ValueError):
            cost_and_grad(x, params, objective="vae")


class TestGradients:
    @pytest.mark.parametrize("objective", ["cwae", "plain_ae"])
    @pytest.mark.parametrize("activation", ["identity", "sigmoid"])
    def test_directional_derivatives(self, objective, activation):
        # analytic gradient vs central differences along 20 random
        # directions; measured agreement is ~1e-7, asserted at 1e-4
        rng = np.random.default_rng(2024)
        x, params = small_net(rng, activation)
        params = nudged(params, rng)
        grad, _ = cost_and_grad(x, params, objective=objective)
        h = 1e-5
        dir_rng = np.random.default_rng(2025)
        for _ in range(20):
            d = dir_rng.standard_normal(params.flat.size)
            d /= np.linalg.norm(d)
            analytic = float(grad @ d)
            plus = params.like(params.flat + h * d)
            minus = params.like(params.flat - h * d)
            _, cp = cost_and_grad(x, plus, objective=objective)
            _, cm = cost_and_grad(x, minus, objective=objective)
            fd = (cp.total - cm.total) / (2.0 * h)
            assert analytic == pytest.approx(fd, rel=1e-4)

    def test_clip_disabled_returns_same_list(self, rng):
        grad = rng.standard_normal(9)
        assert _clip_grads(grad, 0.0) is grad

    def test_clip_rescales_to_requested_norm(self, rng):
        grad = rng.standard_normal(30)
        snapshot = grad.copy()
        clipped = _clip_grads(grad, 1e-3)
        assert np.linalg.norm(clipped) == pytest.approx(1e-3, rel=1e-12)
        assert np.array_equal(grad, snapshot)  # a new array, the input untouched

    def test_clip_leaves_small_gradients_alone(self, rng):
        grad = rng.standard_normal(9) * 1e-6
        assert _clip_grads(grad, 100.0) is grad


class TestTrainLoop:
    def make_data(self, rng, n=64, dim=3):
        return rng.standard_normal((n, dim)) * 0.7 + 0.2

    def small_config(self, **overrides):
        base = dict(
            latent_dim=2,
            batch_size=8,
            epochs=2,
            encoder_hidden=(8,),
            decoder_hidden=(8,),
            seed=3,
        )
        base.update(overrides)
        return TrainConfig(**base)

    def test_zero_epochs_emits_baseline_record(self, rng):
        data = self.make_data(rng)
        params, records = train(self.small_config(epochs=0), data, data[:16])
        assert len(records) == 1
        assert records[0].epoch == 0
        # parameters are exactly the seeded initialization
        ref = mlp.init_mlp(3, 2, (8,), (8,), "identity", np.random.default_rng(3))
        assert np.array_equal(params.flat, ref.flat)

    def test_records_cover_every_epoch(self, rng):
        data = self.make_data(rng)
        _, records = train(self.small_config(epochs=3), data, data[:16])
        assert [r.epoch for r in records] == [1, 2, 3]
        for r in records:
            assert math.isfinite(r.rec_error) and r.rec_error >= 0.0
            assert math.isfinite(r.cw_pre_log) and r.cw_pre_log >= 0.0
            assert math.isfinite(r.skewness)

    def test_repeat_runs_are_bit_identical(self, rng):
        data = self.make_data(rng)
        p1, r1 = train(self.small_config(), data, data[:16])
        p2, r2 = train(self.small_config(), data, data[:16])
        assert r1 == r2
        assert np.array_equal(p1.flat, p2.flat)

    def test_singleton_tail_batch_is_skipped(self, rng):
        # 5 points with batch 2 leaves a tail of one; the distance term
        # needs at least two codes, so that batch contributes nothing
        data = self.make_data(rng, n=5)
        _, records = train(self.small_config(batch_size=2, epochs=1), data, data)
        assert len(records) == 1

    def test_plain_objective_trains(self, rng):
        data = self.make_data(rng)
        _, records = train(self.small_config(objective="plain_ae", epochs=2), data, data[:16])
        assert len(records) == 2

    def test_reconstruction_improves_from_baseline(self, rng):
        data = self.make_data(rng, n=128)
        _, base = train(self.small_config(epochs=0, objective="plain_ae"), data, data)
        _, trained = train(
            self.small_config(epochs=20, objective="plain_ae", learning_rate=0.01),
            data,
            data,
        )
        assert trained[-1].rec_error < base[0].rec_error

    def test_validation_cap_limits_record_input(self, rng):
        data = self.make_data(rng)
        cfg = self.small_config(epochs=0, valid_cap=10)
        _, capped = train(cfg, data, data)
        _, manual = train(self.small_config(epochs=0), data, data[:10])
        assert capped[0] == manual[0]

    def test_rejects_undersized_training_set(self, rng):
        data = self.make_data(rng, n=4)
        with pytest.raises(ValueError):
            train(self.small_config(batch_size=8), data, data)

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            train(self.small_config(), rng.standard_normal((32, 3)), rng.standard_normal((8, 4)))

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_rejects_non_finite_data_naming_set_and_row(self, rng, which):
        data = self.make_data(rng)
        bad = data.copy()
        bad[5, 1] = np.nan
        bad[9, 0] = np.inf
        args = (bad, data[:16]) if which == "training" else (data, bad[:16])
        with pytest.raises(ValueError, match=f"^{which} data has a non-finite value in row 5$"):
            train(self.small_config(), *args)

    def test_rejects_empty_validation_set_by_name(self, rng):
        data = self.make_data(rng)
        # rejected before NumPy warns "Mean of empty slice": a warning fails the test
        with pytest.raises(ValueError, match="^validation set is empty$"):
            train(self.small_config(), data, data[:0])

    @pytest.mark.parametrize("field, value", [("learning_rate", math.nan), ("beta2", 1.0)])
    def test_bad_config_fails_before_training(self, rng, field, value):
        data = self.make_data(rng)
        with pytest.raises(ValueError, match=f"^{field} must"):
            train(self.small_config(**{field: value}), data, data[:16])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_diverging_run_stops_naming_epoch_and_step(self, rng):
        data = self.make_data(rng)
        with pytest.raises(ValueError, match=r"^training diverged at epoch 1, step 2: "):
            train(self.small_config(learning_rate=1e300), data, data[:16])
        # with one step per epoch the epoch's record is the first to see it
        with pytest.raises(ValueError, match=r"^training diverged at epoch 1: "):
            train(self.small_config(learning_rate=1e300, batch_size=64), data, data[:16])


# Values that used to pass validation: a negative cap silently dropped the
# last validation row, a zero cap failed in the distance layer, and the
# rest surfaced as a diverging run.
NAMED_REJECTIONS = [
    ("valid_cap", 0),
    ("valid_cap", -1),
    ("beta1", 1.0),
    ("beta1", -0.1),
    ("beta1", math.nan),
    ("beta2", 1.0),
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
    ("eps_log", math.nan),
    ("adam_epsilon", 0.0),
    ("adam_epsilon", math.nan),
    ("cw_weight", math.nan),
    ("cw_weight", -math.inf),
    ("grad_clip_norm", math.nan),
    ("seed", -1),
    ("encoder_hidden", (0,)),
    ("decoder_hidden", (8, -2)),
]


class TestConfigValidation:
    def good(self, **overrides):
        base = dict(latent_dim=2, batch_size=8, epochs=1)
        base.update(overrides)
        return TrainConfig(**base)

    def test_defaults_are_valid(self):
        validate_config(self.good())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"objective": "vae"},
            {"latent_dim": 1},
            {"batch_size": 1},
            {"epochs": -1},
            {"beta2": -0.1},
            {"output_activation": "tanh"},
            {"learning_rate": 0.0},
            {"eps_log": 0.0},
            {"grad_clip_norm": -1.0},
            *({field: value} for field, value in NAMED_REJECTIONS),
        ],
    )
    def test_rejections(self, overrides):
        with pytest.raises(ValueError):
            validate_config(self.good(**overrides))

    @pytest.mark.parametrize("field, value", NAMED_REJECTIONS)
    def test_rejection_names_the_field(self, field, value):
        # a bad value is a config error, not a run that diverges at step 1 or 2
        with pytest.raises(ValueError, match=f"^{field} must"):
            validate_config(self.good(**{field: value}))


class TestConfigText:
    def test_round_trip(self):
        cfg = TrainConfig(
            latent_dim=3,
            batch_size=32,
            epochs=7,
            objective="plain_ae",
            learning_rate=0.002,
            encoder_hidden=(10, 20),
            decoder_hidden=(5,),
            output_activation="sigmoid",
            grad_clip_norm=100.0,
        )
        back, extras = config_from_text(config_to_text(cfg))
        assert back == cfg
        assert extras == {}

    def test_comments_and_blanks_are_ignored(self):
        text = "# a comment\n\nlatent_dim=2\nbatch_size=4\nepochs=1\n"
        cfg, _ = config_from_text(text)
        assert (cfg.latent_dim, cfg.batch_size, cfg.epochs) == (2, 4, 1)

    def test_extra_keys_are_collected(self):
        text = "latent_dim=2\nbatch_size=4\nepochs=1\ndata=train.csv\n"
        cfg, extras = config_from_text(text, extra_keys=("data",))
        assert extras == {"data": "train.csv"}

    def test_missing_equals_names_line(self):
        text = "latent_dim=2\nbatch_size 4\n"
        with pytest.raises(ValueError, match="line 2"):
            config_from_text(text)

    def test_unknown_key_names_line(self):
        # the latent term is always asymptotic, so phi_mode names no field
        for key, value in (("learningrate", "0.1"), ("phi_mode", "asymptotic")):
            text = f"latent_dim=2\nbatch_size=4\nepochs=1\n{key}={value}\n"
            with pytest.raises(ValueError, match=f"line 4: unknown config field '{key}'"):
                config_from_text(text)

    def test_bad_value_names_field(self):
        text = "latent_dim=two\nbatch_size=4\nepochs=1\n"
        with pytest.raises(ValueError, match="latent_dim"):
            config_from_text(text)

    def test_missing_required_fields_are_listed(self):
        with pytest.raises(ValueError, match="latent_dim"):
            config_from_text("batch_size=4\nepochs=1\n")


class TestCsvExport:
    def test_header_and_exact_round_trip(self, rng, tmp_path):
        data = rng.standard_normal((32, 3))
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=2,
                          encoder_hidden=(8,), decoder_hidden=(8,))
        _, records = train(cfg, data, data)
        path = tmp_path / "curve.csv"
        records_to_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(records)
        for row, rec in zip(rows[1:], records):
            assert int(row[0]) == rec.epoch
            assert float(row[1]) == rec.rec_error  # repr round-trips exactly
            assert float(row[3]) == rec.cw_post_log


    def test_header_is_the_fixed_column_order(self, rng, tmp_path):
        # the file format: it follows the field order of TrainRecord
        header = ("epoch", "rec_error", "cw_pre_log", "cw_post_log",
                  "skewness", "kurtosis", "normalized_kurtosis")
        assert CSV_COLUMNS == header
        data = rng.standard_normal((32, 3))
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=0,
                          encoder_hidden=(8,), decoder_hidden=(8,))
        _, records = train(cfg, data, data)
        path = tmp_path / "curve.csv"
        records_to_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == header
        assert rows[1] == [str(records[0].epoch)] + [repr(getattr(records[0], c))
                                                     for c in header[1:]]


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        params = mlp.init_mlp(4, 2, (6, 5), (5, 6), "sigmoid", rng)
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=1, output_activation="sigmoid")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, cfg_text = load_checkpoint(path)
        assert loaded.output_activation == "sigmoid"
        assert cfg_text == config_to_text(cfg)
        assert np.array_equal(loaded.flat, params.flat)
        assert [w.shape for w, _ in loaded.decoder] == [w.shape for w, _ in params.decoder]

    def test_unknown_activation_is_rejected(self, rng, tmp_path):
        params = mlp.init_mlp(4, 2, (6,), (6,), "sigmoid", rng)
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=1, output_activation="sigmoid")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        assert blob.endswith(b"sigmoid")
        path.write_bytes(blob[:-1] + b"x")
        with pytest.raises(ValueError, match="'sigmoix'"):
            load_checkpoint(path)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation_names_missing_section(self, rng, tmp_path):
        params = mlp.init_mlp(4, 2, (6,), (6,), "identity", rng)
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(clipped)

    def test_oversized_layer_shape_is_a_value_error(self, rng, tmp_path):
        params = mlp.init_mlp(4, 2, (6,), (6,), "identity", rng)
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        shape_at = len(b"CWAECKPT") + 8 + len(config_to_text(cfg).encode()) + 4
        assert struct.unpack("<II", blob[shape_at:shape_at + 8]) == (4, 6)
        path.write_bytes(blob[:shape_at] + b"\xff" * 8 + blob[shape_at + 8:])
        with pytest.raises(ValueError, match=rf"truncated checkpoint: expected {8 * 0xFFFFFFFF ** 2} "
                                             r"bytes for encoder\[0\] weights"):
            load_checkpoint(path)

    @pytest.mark.parametrize("encoder, decoder, layer", [
        ([(4, 3), (5, 2)], [(2, 4)], r"encoder\[1\] takes 5 inputs, but encoder\[0\] gives 3"),
        ([(4, 2)], [(3, 4)], r"decoder\[0\] takes 3 inputs, but encoder\[0\] gives 2"),
        ([(4, 2)], [(2, 5)], r"encoder\[0\] takes 4 inputs, but decoder\[0\] gives 5"),
        ([], [(2, 2)], "checkpoint encoder has no layers"),
        ([(4, 2)], [], "checkpoint decoder has no layers"),
    ], ids=["within-encoder", "encoder-to-decoder", "decoder-to-input", "no-encoder", "no-decoder"])
    def test_layers_that_do_not_chain_are_named(self, rng, tmp_path, encoder, decoder, layer):
        # written through the file format: params_from_flat lays any shapes out
        shapes = encoder + decoder
        flat = rng.standard_normal(sum(r * c + c for r, c in shapes))
        params = mlp.params_from_flat(flat, encoder, decoder)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(latent_dim=2, batch_size=8, epochs=1))
        with pytest.raises(ValueError, match=layer):
            load_checkpoint(path)

    def test_truncated_header_names_config(self, rng, tmp_path):
        params = mlp.init_mlp(4, 2, (6,), (6,), "identity", rng)
        cfg = TrainConfig(latent_dim=2, batch_size=8, epochs=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        blob = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(blob[:20])
        with pytest.raises(ValueError, match="config"):
            load_checkpoint(clipped)
