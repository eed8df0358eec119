"""CWAE training: objective, gradients, loop, checkpoints and curve export.

The CWAE objective on a batch X with latent codes Z = encode(X) is

    cost = cw_weight * log(max(cw2(Z), eps_log)) + mse(X, decode(Z))

where cw2 is the closed-form squared Cramer-Wold distance between the codes
and N(0, I) in asymptotic mode (the only mode with a closed-form derivative,
which is what the manual backward pass uses).  The smoothing gamma follows
the Silverman rule at the actual batch size.  ``objective="plain_ae"`` drops
the log term and trains on reconstruction alone.
"""

import csv
import io
import math
import os
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import kernels, mlp
from .distance import cw2_sample_normal
from .normality import mardia
from .phi import PhiMode

OBJECTIVES = ("cwae", "plain_ae")


@dataclass
class TrainConfig:
    latent_dim: int
    batch_size: int
    epochs: int
    objective: str = "cwae"
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    encoder_hidden: tuple = (200, 200, 200)
    decoder_hidden: tuple = (200, 200, 200)
    output_activation: str = "identity"
    eps_log: float = 1e-12
    cw_weight: float = 1.0
    grad_clip_norm: float = 0.0
    valid_cap: int = 10_000


def validate_config(config):
    if config.objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {config.objective!r}")
    if config.latent_dim < 2:
        raise ValueError(f"latent_dim must be >= 2, got {config.latent_dim}")
    if config.epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {config.epochs}")
    if config.batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {config.batch_size}")
    if config.seed < 0:
        raise ValueError(f"seed must be >= 0, got {config.seed}")
    for name in ("encoder_hidden", "decoder_hidden"):
        if min(getattr(config, name), default=1) < 1:
            raise ValueError(f"{name} must hold widths >= 1, got {getattr(config, name)!r}")
    if config.output_activation not in ("identity", "sigmoid"):
        raise ValueError(f"unknown output activation {config.output_activation!r}")
    for name in ("learning_rate", "eps_log", "adam_epsilon"):
        value = getattr(config, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    for name in ("beta1", "beta2"):
        value = getattr(config, name)
        if not 0.0 <= value < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {value!r}")
    if not math.isfinite(config.cw_weight):
        raise ValueError(f"cw_weight must be finite, got {config.cw_weight!r}")
    if not config.grad_clip_norm >= 0:
        raise ValueError("grad_clip_norm must be >= 0 (0 disables clipping)")
    if config.valid_cap < 1:
        raise ValueError(f"valid_cap must be >= 1, got {config.valid_cap}")


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    rec_error: float
    cw_pre_log: float
    cw_post_log: float
    skewness: float
    kurtosis: float
    normalized_kurtosis: float


CSV_COLUMNS = tuple(f.name for f in fields(TrainRecord))


class CwaeCost(NamedTuple):
    total: float
    mse: float
    cw_log: float
    cw_squared: float


def _forward_cost(x, params, gamma, eps_log, cw_weight):
    """Forward pass and CWAE cost of one batch: (cost, what backprop needs).

    Latent codes that are not finite (a diverged run) give a NaN distance, so
    ``train`` can name the epoch and step instead of the distance layer raising.
    """
    z, enc_caches = mlp._forward_stack(params.encoder, x, "identity")
    xhat, dec_caches = mlp._forward_stack(params.decoder, z, params.output_activation)
    rec = mlp.mse(x, xhat)
    cw_sq = math.nan
    if np.isfinite(z).all():
        report = cw2_sample_normal(z, gamma=gamma, mode=PhiMode.ASYMPTOTIC)
        cw_sq, gamma = report.squared_distance, report.gamma
    cw_log = math.log(max(cw_sq, eps_log))  # a NaN distance stays NaN
    cost = CwaeCost(total=cw_weight * cw_log + rec, mse=rec, cw_log=cw_log, cw_squared=cw_sq)
    return cost, (z, enc_caches, xhat, dec_caches, gamma)


def cwae_cost(x, params, gamma=None, eps_log=1e-12, cw_weight=1.0):
    """Total / reconstruction / log-distance breakdown of the CWAE objective.

    Latent codes that are not finite give a NaN distance and a NaN total.
    """
    return _forward_cost(np.asarray(x, dtype=np.float64), params, gamma, eps_log, cw_weight)[0]


def cost_and_grad(x, params, objective="cwae", gamma=None, eps_log=1e-12, cw_weight=1.0):
    """Objective value and parameter gradient for one batch.

    Returns (gradient, CwaeCost).  The gradient is one float64 array laid out
    like ``params.flat``; ``params.like(gradient)`` shows it per layer.  For
    ``plain_ae`` the cost breakdown still reports the distance of the codes
    to N(0, I) as a diagnostic, but no gradient flows from it.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    x = np.asarray(x, dtype=np.float64)
    cost, (z, enc_caches, xhat, dec_caches, gamma) = _forward_cost(
        x, params, gamma, eps_log, cw_weight
    )
    grad = params.like(np.empty_like(params.flat))
    dxhat = (2.0 / x.shape[0]) * (xhat - x)
    dz = mlp._backward_stack(
        params.decoder, dec_caches, params.output_activation, xhat, dxhat, grad.decoder
    )
    if objective == "cwae" and cost.cw_squared > eps_log:
        dz = dz + (cw_weight / cost.cw_squared) * kernels.cw_normal_asym_grad(z, gamma)
    mlp._backward_stack(
        params.encoder, enc_caches, "identity", z, dz, grad.encoder, input_grad=False
    )
    if objective != "cwae":
        cost = cost._replace(total=cost.mse)
    return grad.flat, cost


def _clip_grads(grad, max_norm):
    """``grad`` itself, or a rescaled copy when its norm exceeds ``max_norm`` > 0."""
    if max_norm <= 0:
        return grad
    total = math.sqrt(float((grad * grad).sum()))
    return grad * (max_norm / total) if total > max_norm else grad


def _record(epoch, params, valid, config):
    z = mlp.encode(params, valid)
    if not np.isfinite(z).all():
        raise ValueError(f"training diverged at epoch {epoch}: the validation codes are not finite")
    rec = mlp.mse(valid, mlp.decode(params, z))
    report = cw2_sample_normal(z, mode=PhiMode.ASYMPTOTIC)
    stats = mardia(z)
    return TrainRecord(
        epoch=epoch,
        rec_error=rec,
        cw_pre_log=report.squared_distance,
        cw_post_log=math.log(max(report.squared_distance, config.eps_log)),
        skewness=stats.skewness,
        kurtosis=stats.kurtosis,
        normalized_kurtosis=stats.normalized_kurtosis,
    )


def train(config, train_data, valid_data):
    """Run the training loop; returns (trained params, per-epoch records).

    Records are evaluated on the validation set (capped at
    ``config.valid_cap`` rows) after each epoch; a zero-epoch run emits a
    single baseline record.  Identical (config, data) inputs reproduce the
    exact same record stream.
    """
    validate_config(config)
    train_x = np.ascontiguousarray(np.asarray(train_data, dtype=np.float64))
    valid_x = np.ascontiguousarray(np.asarray(valid_data, dtype=np.float64))
    if train_x.ndim != 2 or valid_x.ndim != 2:
        raise ValueError("train and validation data must be 2-D arrays")
    if train_x.shape[1] != valid_x.shape[1]:
        raise ValueError("train/validation dimension mismatch")
    if train_x.shape[0] < config.batch_size:
        raise ValueError("training set smaller than one batch")
    if valid_x.shape[0] == 0:
        raise ValueError("validation set is empty")
    for name, data in (("training", train_x), ("validation", valid_x)):
        bad = ~np.isfinite(data).all(axis=1)
        if bad.any():
            raise ValueError(f"{name} data has a non-finite value in row {int(bad.argmax())}")
    valid_x = valid_x[: config.valid_cap]

    rng = np.random.default_rng(config.seed)
    params = mlp.init_mlp(
        input_dim=train_x.shape[1],
        latent_dim=config.latent_dim,
        encoder_hidden=config.encoder_hidden,
        decoder_hidden=config.decoder_hidden,
        output_activation=config.output_activation,
        rng=rng,
    )
    state = mlp.init_adam(params.flat)

    if config.epochs == 0:
        return params, [_record(0, params, valid_x, config)]

    records = []
    n = train_x.shape[0]
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        for step, lo in enumerate(range(0, n, config.batch_size), start=1):
            batch = train_x[perm[lo:lo + config.batch_size]]
            if batch.shape[0] < 2 and config.objective == "cwae":
                continue  # a singleton tail batch has no pairwise structure
            grad, cost = cost_and_grad(
                batch,
                params,
                objective=config.objective,
                eps_log=config.eps_log,
                cw_weight=config.cw_weight,
            )
            if not (math.isfinite(cost.total) and np.isfinite(grad).all()):
                raise ValueError(
                    f"training diverged at epoch {epoch}, step {step}: "
                    f"the loss or its gradient is not finite (loss {cost.total!r})"
                )
            mlp.adam_step(
                params.flat,
                _clip_grads(grad, config.grad_clip_norm),
                state,
                learning_rate=config.learning_rate,
                beta1=config.beta1,
                beta2=config.beta2,
                epsilon=config.adam_epsilon,
            )
        records.append(_record(epoch, params, valid_x, config))
    return params, records


def records_to_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([rec.epoch, *(repr(getattr(rec, c)) for c in CSV_COLUMNS[1:])])


# --- flat key=value config text (train command input, checkpoint echo) ---

_TUPLE_FIELDS = ("encoder_hidden", "decoder_hidden")


def config_to_text(config):
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name in _TUPLE_FIELDS:
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def config_from_text(text, extra_keys=()):
    """Parse flat key=value lines into (TrainConfig, extras dict).

    Unknown keys not listed in ``extra_keys`` raise; malformed values raise
    naming the field.
    """
    known = {f.name: f for f in fields(TrainConfig)}
    raw = {}
    extras = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in extra_keys:
            extras[key] = value
        elif key in known:
            raw[key] = value
        else:
            raise ValueError(f"line {lineno}: unknown config field {key!r}")
    kwargs = {}
    for key, value in raw.items():
        try:
            if key in _TUPLE_FIELDS:
                kwargs[key] = tuple(int(v) for v in value.split(",") if v != "")
            else:
                kwargs[key] = known[key].type(value)
        except ValueError:
            raise ValueError(f"field {key!r}: could not parse {value!r}") from None
    missing = [name for name in ("latent_dim", "batch_size", "epochs") if name not in kwargs]
    if missing:
        raise ValueError(f"missing required config fields: {', '.join(missing)}")
    return TrainConfig(**kwargs), extras


# --- checkpoint container ---

_MAGIC = b"CWAECKPT"
_VERSION = 1


def save_checkpoint(path, params, config):
    """Versioned binary dump: shapes + row-major float64 blocks + config text."""
    cfg_text = config_to_text(config).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    buf.write(struct.pack("<I", len(cfg_text)))
    buf.write(cfg_text)
    for stack in (params.encoder, params.decoder):
        buf.write(struct.pack("<I", len(stack)))
        for w, b in stack:
            buf.write(struct.pack("<II", w.shape[0], w.shape[1]))
            buf.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            buf.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
    act = params.output_activation.encode("utf-8")
    buf.write(struct.pack("<I", len(act)))
    buf.write(act)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exactly(fh, count, what):
    # A size read from the file is checked against the bytes left before any read.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    data = fh.read(count) if count <= left else b""
    if len(data) != count:
        raise ValueError(f"truncated checkpoint: expected {count} bytes for {what}")
    return data


def load_checkpoint(path):
    """Returns (MlpParams, config text echoed at save time)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exactly(fh, 4, "version"))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exactly(fh, 4, "config length"))
        cfg_text = _read_exactly(fh, cfg_len, "config text").decode("utf-8")
        shapes = ([], [])
        blocks = []
        for name, stack in zip(("encoder", "decoder"), shapes):
            (count,) = struct.unpack("<I", _read_exactly(fh, 4, f"{name} layer count"))
            if count == 0:
                raise ValueError(f"checkpoint {name} has no layers")
            for idx in range(count):
                rows, cols = struct.unpack("<II", _read_exactly(fh, 8, f"{name}[{idx}] shape"))
                blocks.append(_read_exactly(fh, 8 * rows * cols, f"{name}[{idx}] weights"))
                blocks.append(_read_exactly(fh, 8 * cols, f"{name}[{idx}] bias"))
                stack.append((rows, cols))
        (act_len,) = struct.unpack("<I", _read_exactly(fh, 4, "activation length"))
        act = _read_exactly(fh, act_len, "activation").decode("utf-8")
    # Each layer's inputs are the previous layer's outputs; the encoder's
    # outputs feed the decoder, and the decoder's outputs match the encoder's inputs.
    layers = [(f"{name}[{idx}]", shape) for name, stack in zip(("encoder", "decoder"), shapes)
              for idx, shape in enumerate(stack)]
    for (prev, (_, width)), (layer, (rows, _)) in zip(layers, layers[1:] + layers[:1]):
        if rows != width:
            raise ValueError(f"checkpoint layer {layer} takes {rows} inputs, but {prev} gives {width}")
    # The weight and bias blocks, in file order, are exactly MlpParams.flat.
    flat = np.frombuffer(b"".join(blocks), dtype="<f8").astype(np.float64)
    return mlp.params_from_flat(flat, *shapes, act), cfg_text
