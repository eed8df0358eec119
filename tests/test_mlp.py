"""Tests for the feedforward autoencoder building blocks."""

import numpy as np
import pytest

from cramerwold import load_checkpoint, save_checkpoint
from cramerwold.mlp import (
    adam_step,
    decode,
    encode,
    init_adam,
    init_mlp,
    mse,
    params_from_flat,
    reconstruct,
)
from cramerwold.training import TrainConfig


def one_layer_params(w_enc, w_dec, output_activation="identity"):
    dim = w_enc.shape[0]
    flat = np.concatenate([w_enc.ravel(), np.zeros(dim), w_dec.ravel(), np.zeros(dim)])
    return params_from_flat(flat, [(dim, dim)], [(dim, dim)], output_activation)


def identity_params(dim):
    return one_layer_params(np.eye(dim), np.eye(dim))


class TestForward:
    def test_identity_network_reconstructs_exactly(self, rng):
        x = rng.standard_normal((16, 4))
        params = identity_params(4)
        assert np.array_equal(reconstruct(params, x), x)
        assert mse(x, reconstruct(params, x)) == 0.0

    def test_zero_decoder_mse_is_mean_squared_norm(self, rng):
        x = rng.standard_normal((16, 4))
        params = identity_params(4)
        params.decoder[0][0][...] = 0.0
        assert mse(x, reconstruct(params, x)) == pytest.approx(
            float((x**2).sum(axis=1).mean()), rel=1e-15
        )

    def test_matches_manual_forward_pass(self, rng):
        # replay the relu stack by hand and compare bit for bit
        params = init_mlp(5, 2, (7, 6), (6, 7), "identity", rng)
        x = rng.standard_normal((9, 5))

        h = x
        for w, b in params.encoder[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = params.encoder[-1]
        z_manual = h @ w + b
        assert np.array_equal(encode(params, x), z_manual)

        h = z_manual
        for w, b in params.decoder[:-1]:
            h = np.maximum(h @ w + b, 0.0)
        w, b = params.decoder[-1]
        assert np.array_equal(decode(params, z_manual), h @ w + b)

    def test_sigmoid_output_stays_in_unit_interval(self, rng):
        params = init_mlp(5, 2, (8,), (8,), "sigmoid", rng)
        z = rng.standard_normal((50, 2)) * 10.0
        xhat = decode(params, z)
        assert np.all(xhat > 0.0)
        assert np.all(xhat < 1.0)

    def test_sigmoid_is_stable_for_extreme_inputs(self):
        params = one_layer_params(np.eye(2), np.eye(2) * 500.0, "sigmoid")
        out = decode(params, np.array([[-100.0, 100.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-300)
        assert out[0, 1] == pytest.approx(1.0)


class TestInit:
    def test_shapes_follow_layer_spec(self, rng):
        params = init_mlp(5, 2, (7, 6), (4,), "identity", rng)
        enc_shapes = [w.shape for w, _ in params.encoder]
        dec_shapes = [w.shape for w, _ in params.decoder]
        assert enc_shapes == [(5, 7), (7, 6), (6, 2)]
        assert dec_shapes == [(2, 4), (4, 5)]

    def test_weights_within_fan_in_bound_biases_zero(self, rng):
        params = init_mlp(9, 3, (16,), (16,), "identity", rng)
        for w, b in params.encoder + params.decoder:
            bound = 1.0 / np.sqrt(w.shape[0])
            assert np.abs(w).max() <= bound
            assert np.array_equal(b, np.zeros_like(b))

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            init_mlp(5, 2, (4,), (4,), "tanh", rng)

    def test_rejects_nonpositive_dims(self, rng):
        with pytest.raises(ValueError):
            init_mlp(0, 2, (4,), (4,), "identity", rng)


class TestFlatLayout:
    def views_share_flat(self, params):
        return all(
            np.shares_memory(a, params.flat)
            for layer in params.encoder + params.decoder
            for a in layer
        )

    def test_init_and_checkpoint_lay_views_over_flat(self, rng, tmp_path):
        params = init_mlp(5, 2, (7, 6), (6,), "sigmoid", rng)
        sizes = [(5, 7), (7, 6), (6, 2), (2, 6), (6, 5)]
        assert params.flat.size == sum(fan_in * fan_out + fan_out for fan_in, fan_out in sizes)
        assert self.views_share_flat(params)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(latent_dim=2, batch_size=8, epochs=1))
        loaded, _ = load_checkpoint(path)
        assert self.views_share_flat(loaded)
        assert np.array_equal(loaded.flat, params.flat)

    def test_adam_step_moves_the_views_in_place(self, rng):
        params = init_mlp(5, 2, (7,), (6,), "identity", rng)
        views = [a for layer in params.encoder + params.decoder for a in layer]
        before = [a.copy() for a in views]
        adam_step(params.flat, rng.standard_normal(params.flat.size), init_adam(params.flat))
        for a, old in zip(views, before):
            assert not np.array_equal(a, old)
        # the views still cover the buffer, layer after layer
        assert np.array_equal(np.concatenate([a.ravel() for a in views]), params.flat)

    def test_like_lays_the_same_shapes_over_another_buffer(self, rng):
        params = init_mlp(3, 2, (4,), (4,), "identity", rng)
        grad = params.like(np.arange(params.flat.size, dtype=np.float64))
        assert [w.shape for w, _ in grad.encoder] == [w.shape for w, _ in params.encoder]
        assert grad.encoder[0][1][0] == 3 * 4  # the first bias follows the first W
        assert grad.output_activation == "identity"

    def test_rejects_a_buffer_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="need 12"):
            params_from_flat(np.zeros(11), [(2, 2)], [(2, 2)])


class TestAdam:
    def test_zero_gradient_leaves_arrays_unchanged(self, rng):
        flat = rng.standard_normal(16)
        snapshot = flat.copy()
        state = init_adam(flat)
        adam_step(flat, np.zeros(16), state)
        assert state.t == 1
        assert np.array_equal(flat, snapshot)

    def test_first_step_mirrors_update_rule(self, rng):
        a = rng.standard_normal(16)
        g = rng.standard_normal(16)
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        flat = a.copy()
        state = init_adam(flat)
        adam_step(flat, g, state, lr, b1, b2, eps)
        m = (1.0 - b1) * g
        v = (1.0 - b2) * (g * g)
        expected = a - lr * (m / (1.0 - b1)) / (np.sqrt(v / (1.0 - b2)) + eps)
        assert np.array_equal(flat, expected)
        assert np.array_equal(state.m, m)
        assert np.array_equal(state.v, v)
        # far from zero-gradient points, the first step has size ~ lr
        assert np.abs(a - flat).max() == pytest.approx(lr, rel=1e-4)

    def test_minimizes_quadratic_bowl(self):
        flat = np.array([3.0, -2.0, 0.5])
        state = init_adam(flat)
        for _ in range(600):
            adam_step(flat, 2.0 * flat, state, learning_rate=0.05)
        assert np.abs(flat).max() < 1e-4
