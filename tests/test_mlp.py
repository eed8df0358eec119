"""Tests for the feedforward autoencoder building blocks."""

import numpy as np
import pytest

from cramerwold import load_checkpoint, save_checkpoint
from cramerwold.mlp import (
    _backward_stack,
    _forward_stack,
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

    @pytest.mark.parametrize("output_activation", ["identity", "sigmoid"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 3072])
    def test_row_blocks_keep_the_bits_of_one_pass(self, rng, n, output_activation):
        # encode/decode split the rows into blocks; 257 rows would leave a
        # one-row tail, which a matmul rounds differently from a long block
        params = init_mlp(64, 8, (200, 200), (200, 200), output_activation, rng)
        x = rng.standard_normal((n, 64))
        z, _ = _forward_stack(params.encoder, x, "identity")
        xhat, _ = _forward_stack(params.decoder, z, output_activation)
        assert np.array_equal(encode(params, x), z)
        assert np.array_equal(decode(params, z), xhat)
        assert np.array_equal(reconstruct(params, x), xhat)

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

    @pytest.mark.parametrize("flat", [np.zeros(12, dtype=np.float32), np.zeros(24)[::2]],
                             ids=["float32", "strided"])
    def test_rejects_a_buffer_that_views_cannot_share(self, flat):
        with pytest.raises(ValueError, match="^flat must be a 1-D contiguous float64 array$"):
            params_from_flat(flat, [(2, 2)], [(2, 2)])

    def test_mse_rejects_a_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^shape mismatch: \(3, 2\) vs \(2, 3\)$"):
            mse(np.zeros((3, 2)), np.zeros((2, 3)))


class TestBackward:
    def test_skipping_the_input_gradient_leaves_the_layer_gradients(self, rng):
        params = init_mlp(6, 3, (5, 4), (4,), "identity", rng)
        x = rng.standard_normal((7, 6))
        out, caches = _forward_stack(params.encoder, x, "identity")
        dout = rng.standard_normal(out.shape)
        full = params.like(np.zeros_like(params.flat))
        dx = _backward_stack(params.encoder, caches, "identity", out, dout, full.encoder)
        assert dx.shape == x.shape
        part = params.like(np.zeros_like(params.flat))
        skipped = _backward_stack(
            params.encoder, caches, "identity", out, dout, part.encoder, input_grad=False
        )
        assert skipped is None
        assert np.array_equal(part.flat, full.flat)


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

    @pytest.mark.parametrize("size", [1, 2**14 - 1, 2**14, 2**14 + 1, 190_072])
    def test_blocks_keep_the_bits_of_one_pass(self, rng, size):
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        flat = rng.standard_normal(size)
        ref, m, v = flat.copy(), np.zeros(size), np.zeros(size)
        state = init_adam(flat)
        for t in range(1, 6):
            g = rng.standard_normal(size)
            adam_step(flat, g, state, lr, b1, b2, eps)
            # the update as one whole-array pass per statement
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            ref -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert state.t == t
            assert np.array_equal(flat, ref)
            assert np.array_equal(state.m, m)
            assert np.array_equal(state.v, v)

    @pytest.mark.parametrize("short", ["grad", "m", "v"])
    def test_a_size_mismatch_moves_nothing(self, rng, short):
        size = 2**14 + 5  # two blocks, so a check made late would move the first
        flat = rng.standard_normal(size)
        state = init_adam(flat)
        adam_step(flat, rng.standard_normal(size), state)
        grad = rng.standard_normal(size)
        if short == "grad":
            grad = grad[:-1]
        else:
            setattr(state, short, getattr(state, short)[:-1].copy())
        before = [flat.copy(), state.m.copy(), state.v.copy()]
        name = short if short == "grad" else f"state.{short}"
        match = rf"^{name} has shape \({size - 1},\), flat \({size},\)$"
        with pytest.raises(ValueError, match=match):
            adam_step(flat, grad, state)
        assert state.t == 1
        for after, old in zip([flat, state.m, state.v], before):
            assert np.array_equal(after, old)

    def test_minimizes_quadratic_bowl(self):
        flat = np.array([3.0, -2.0, 0.5])
        state = init_adam(flat)
        for _ in range(600):
            adam_step(flat, 2.0 * flat, state, learning_rate=0.05)
        assert np.abs(flat).max() < 1e-4
