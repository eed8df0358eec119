"""Feedforward autoencoder with manual backprop.

Encoder and decoder are ReLU stacks with linear output layers (the decoder
optionally ends in a sigmoid for image data).  Weights initialize to
fan-in-scaled uniform noise, biases to zero.  Every parameter lives in one
float64 buffer, ``MlpParams.flat``: each layer's row-major ``W`` and then its
``b``, encoder layers first, the order checkpoints store them in.  The
``[W, b]`` entries are views into that buffer, a gradient is one array with
the same layout, and Adam updates the buffer in place.  Adam, ``encode`` and
``decode`` run in blocks that stay in a 2 MiB L2 and give the bits of one
whole-array pass; ``encode`` and ``decode`` keep no layer caches.  A training
pass caches only each layer's input, the one array per layer its backward
pass reads: the ReLU mask is taken from the next layer's input.
"""

from dataclasses import dataclass

import numpy as np

from .phi import _at_least

_BLOCK = 1 << 14  # Adam's elements per block: 128 KiB of each of its four arrays
_ROWS = 256  # rows per encode/decode block


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
    if output_activation not in ("identity", "sigmoid"):
        raise ValueError(f"unknown output activation {output_activation!r}")
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
    _at_least("input_dim", input_dim, 1)
    _at_least("latent_dim", latent_dim, 1)
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
    """Returns (output, caches); caches are the layer inputs, all backprop reads
    (a ReLU output is positive exactly where its preactivation is)."""
    caches = []
    for idx, (w, b) in enumerate(layers):
        caches.append(h)
        pre = h @ w
        pre += b
        if idx < len(layers) - 1:
            h = np.maximum(pre, 0.0, out=pre)
        elif final_activation == "sigmoid":
            h = _sigmoid(pre)
        else:
            h = pre
    return h, caches


def _backward_stack(layers, caches, final_activation, output, dout, grads, input_grad=True):
    """Backprop through a stack, writing each layer's gradient into the
    ``[dW, db]`` views of ``grads``; returns the gradient at the input, or
    None without computing it when ``input_grad`` is false."""
    dh = dout
    for idx in range(len(layers) - 1, -1, -1):
        if idx == len(layers) - 1:
            dpre = dh * output * (1.0 - output) if final_activation == "sigmoid" else dh
        else:
            dpre = dh * (caches[idx + 1] > 0.0)
        gw, gb = grads[idx]
        np.matmul(caches[idx].T, dpre, out=gw)
        dpre.sum(axis=0, out=gb)
        if idx == 0 and not input_grad:
            return None
        dh = dpre @ layers[idx][0].T
    return dh


def row_blocks(*arrays):
    """Tuples of aligned blocks of the arrays' rows: near-equal, at most ``_ROWS`` rows each,
    the partition ``encode`` and ``decode`` work on.  No block is short: a matmul of 6 rows
    or fewer rounds differently on OpenBLAS, so a short tail would not keep the bits of one
    whole call."""
    return zip(*(np.array_split(a, -(-len(arrays[0]) // _ROWS) or 1) for a in arrays))


def _forward_rows(layers, x, final_activation):
    """The stack's output, computed one ``row_blocks`` block at a time."""
    return np.concatenate([_forward_stack(layers, b, final_activation)[0] for b, in row_blocks(x)])


def encode(params, x):
    return _forward_rows(params.encoder, x, "identity")


def decode(params, z):
    return _forward_rows(params.decoder, z, params.output_activation)


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
    """One bias-corrected Adam update of ``flat``, ``state.m`` and ``state.v``, in place,
    ``_BLOCK`` elements at a time; nothing moves if a size does not match."""
    for name, a in (("grad", grad), ("state.m", state.m), ("state.v", state.v)):
        if a.shape != flat.shape:
            raise ValueError(f"{name} has shape {a.shape}, flat {flat.shape}")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for lo in range(0, flat.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        p, g, m, v = flat[block], grad[block], state.m[block], state.v[block]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + epsilon)
