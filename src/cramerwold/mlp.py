"""Feedforward autoencoder with manual backprop.

Encoder and decoder are ReLU stacks with linear output layers (the decoder
optionally ends in a sigmoid for image data).  Weights initialize to
fan-in-scaled uniform noise, biases to zero.  Every parameter lives in one
float64 buffer, ``MlpParams.flat``: each layer's row-major ``W`` and then its
``b``, encoder layers first, the order checkpoints store them in.  The
``[W, b]`` entries are views into that buffer, a gradient is one array with
the same layout, and Adam updates the buffer in place.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class MlpParams:
    flat: np.ndarray  # every parameter, in layer order
    encoder: list  # [W (fan_in, fan_out), b (fan_out,)] per layer, views into flat
    decoder: list
    output_activation: str = "identity"

    def like(self, flat):
        """The same layer layout over another buffer, such as a gradient."""
        shapes = ([w.shape for w, _ in stack] for stack in (self.encoder, self.decoder))
        return params_from_flat(flat, *shapes, self.output_activation)


@dataclass
class AdamState:
    m: np.ndarray  # moment estimates, laid out like MlpParams.flat
    v: np.ndarray
    t: int = 0


def params_from_flat(flat, encoder_shapes, decoder_shapes, output_activation="identity"):
    """MlpParams whose ``[W, b]`` entries are views into ``flat``.

    Each stack lists its layers' ``(fan_in, fan_out)``; ``flat`` is a 1-D
    contiguous float64 array holding exactly their parameters.
    """
    if flat.dtype != np.float64 or flat.ndim != 1 or not flat.flags.c_contiguous:
        raise ValueError("flat must be a 1-D contiguous float64 array")
    stacks = []
    offset = 0
    for shapes in (encoder_shapes, decoder_shapes):
        layers = []
        for fan_in, fan_out in shapes:
            end = offset + fan_in * fan_out
            layers.append([flat[offset:end].reshape(fan_in, fan_out), flat[end:end + fan_out]])
            offset = end + fan_out
        stacks.append(layers)
    if offset != flat.size:
        raise ValueError(f"flat holds {flat.size} values; the layers need {offset}")
    return MlpParams(flat, stacks[0], stacks[1], output_activation)


def init_mlp(input_dim, latent_dim, encoder_hidden, decoder_hidden, output_activation, rng):
    if output_activation not in ("identity", "sigmoid"):
        raise ValueError(f"unknown output activation {output_activation!r}")
    if input_dim < 1 or latent_dim < 1:
        raise ValueError("input_dim and latent_dim must be positive")
    enc = [input_dim, *encoder_hidden, latent_dim]
    dec = [latent_dim, *decoder_hidden, input_dim]
    enc_shapes, dec_shapes = list(zip(enc[:-1], enc[1:])), list(zip(dec[:-1], dec[1:]))
    size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in enc_shapes + dec_shapes)
    params = params_from_flat(np.zeros(size), enc_shapes, dec_shapes, output_activation)
    for w, _ in params.encoder + params.decoder:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _forward_stack(layers, h, final_activation):
    """Returns (output, caches); caches hold (layer input, preactivation)."""
    caches = []
    for idx, (w, b) in enumerate(layers):
        pre = h @ w + b
        caches.append((h, pre))
        if idx < len(layers) - 1:
            h = np.maximum(pre, 0.0)
        elif final_activation == "sigmoid":
            h = _sigmoid(pre)
        else:
            h = pre
    return h, caches


def _backward_stack(layers, caches, final_activation, output, dout, grads):
    """Backprop through a stack, writing each layer's gradient into the
    ``[dW, db]`` views of ``grads``; returns the gradient at the input."""
    dh = dout
    for idx in range(len(layers) - 1, -1, -1):
        h_in, pre = caches[idx]
        if idx == len(layers) - 1:
            dpre = dh * output * (1.0 - output) if final_activation == "sigmoid" else dh
        else:
            dpre = dh * (pre > 0.0)
        gw, gb = grads[idx]
        np.matmul(h_in.T, dpre, out=gw)
        dpre.sum(axis=0, out=gb)
        dh = dpre @ layers[idx][0].T
    return dh


def encode(params, x):
    z, _ = _forward_stack(params.encoder, x, "identity")
    return z


def decode(params, z):
    xhat, _ = _forward_stack(params.decoder, z, params.output_activation)
    return xhat


def reconstruct(params, x):
    return decode(params, encode(params, x))


def mse(x, xhat):
    """Mean over points of the squared reconstruction norm (not per-element)."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    diff = x - xhat
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def init_adam(flat):
    return AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat), t=0)


def adam_step(flat, grad, state, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One bias-corrected Adam update of ``flat``, ``state.m`` and ``state.v``, in place."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    state.m *= beta1
    state.m += (1.0 - beta1) * grad
    state.v *= beta2
    state.v += (1.0 - beta2) * (grad * grad)
    flat -= learning_rate * (state.m / bc1) / (np.sqrt(state.v / bc2) + epsilon)
