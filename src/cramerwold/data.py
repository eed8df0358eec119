"""Dataset containers, CSV / IDX readers, and synthetic generators."""

import gzip
import math
import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .phi import _at_least, _real


@dataclass(frozen=True)
class Dataset:
    points: np.ndarray                # (n, dim) float64
    labels: np.ndarray | None = None  # (n,) int64 or None
    source: str = ""

    def __post_init__(self):
        if self.labels is not None and self.labels.shape[0] != self.points.shape[0]:
            raise ValueError(
                f"labels length {self.labels.shape[0]} != point count {self.points.shape[0]}"
            )

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


# A cell NumPy's reader takes: float()'s syntax less '_' separators and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)", re.A | re.I)


def load_csv(path, has_header=False):
    """Numeric CSV -> Dataset; ``has_header`` skips the first line.

    Cells are comma-separated decimals, parsed by NumPy's C reader to the
    bits ``float()`` gives; blank lines are skipped.  Ragged rows and bad
    cells (``1_000`` too) raise ValueError naming the 1-based row and column.
    """
    with open(path, "r") as fh:  # universal newlines: CRLF and CR end lines too
        lines = fh.read().split("\n")
    if has_header:
        lines[0] = ""
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    try:
        points = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        raise ValueError(_first_bad_cell(lines) or f"{path}: {err}") from None
    return Dataset(points=points, source=str(path))


def _first_bad_cell(lines):
    width = None
    for lineno, line in enumerate(lines, start=1):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        width = width or len(cells)
        if len(cells) != width:
            return f"row {lineno}: expected {width} columns, found {len(cells)}"
        for col, cell in enumerate(cells, start=1):
            if not _DECIMAL.fullmatch(cell.strip()):
                return f"row {lineno}, column {col}: could not parse {cell.strip()!r}"


def save_csv(path, points):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("expected a 2-D array")
    np.savetxt(path, points, fmt="%.17g", delimiter=",")


# IDX kind -> (big-endian magic, payload noun); the magic's low byte counts the dims.
_IDX = {"image": (0x00000803, "pixel"), "label": (0x00000801, "label")}


def _read_idx(path, kind):
    """(dims, u8 payload) of a plain or gzipped IDX file of ``kind``.  The size
    the dims declare is an exact integer, checked against the bytes present."""
    magic, noun = _IDX[kind]
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
    try:
        with (gzip.open if gzipped else open)(path, "rb") as fh:
            header = fh.read(4 + 4 * (magic & 0xFF))
            if len(header) != 4 + 4 * (magic & 0xFF):
                raise ValueError(f"{path}: truncated IDX header")
            found, *dims = struct.unpack(f">{len(header) // 4}I", header)
            if found != magic:
                raise ValueError(f"{path}: bad IDX {kind} magic {found:#010x}")
            raw = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:  # truncated, corrupt, bad CRC
        raise ValueError(f"{path}: damaged gzip stream ({exc})") from None
    size = math.prod(dims)
    if len(raw) < size:
        raise ValueError(f"{path}: expected {size} {noun} bytes, found {len(raw)}")
    return dims, np.frombuffer(raw, dtype=np.uint8, count=size)


def load_idx_images(path):
    """IDX u8 image file -> (n, rows*cols) float64 scaled to [0, 1]."""
    (count, rows, cols), pixels = _read_idx(path, "image")
    return (pixels.astype(np.float64) / 255.0).reshape(count, rows * cols)


def load_idx_labels(path):
    return _read_idx(path, "label")[1].astype(np.int64)


def load_idx(images_path, labels_path=None):
    points = load_idx_images(images_path)
    labels = None
    if labels_path is not None:
        labels = load_idx_labels(labels_path)
        if labels.shape[0] != points.shape[0]:
            raise ValueError(
                f"image/label count mismatch: {points.shape[0]} images, "
                f"{labels.shape[0]} labels"
            )
    return Dataset(points=points, labels=labels, source=str(images_path))


GAUSSIAN_MIXTURE = "gaussian_mixture"
UNIFORM_CUBE = "uniform_cube"


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str                  # GAUSSIAN_MIXTURE or UNIFORM_CUBE
    dim: int
    count: int
    seed: int = 0
    means: tuple = ()          # per component, length-dim each (mixture only)
    variances: tuple = ()      # per component (mixture only)
    weights: tuple = ()        # per component, positive, sum to 1 (mixture only)


def generate(spec):
    """Seeded synthetic Dataset from a SyntheticSpec.

    Gaussian mixtures draw a component per point, then the point; labels
    carry the component index.  The uniform cube fills [-1, 1]^dim.
    """
    for name, low in (("count", 1), ("dim", 1), ("seed", 0)):
        _at_least(name, getattr(spec, name), low)
    rng = np.random.default_rng(spec.seed)
    if spec.kind == UNIFORM_CUBE:
        points = rng.uniform(-1.0, 1.0, size=(spec.count, spec.dim))
        return Dataset(points=points, source=f"{spec.kind}(dim={spec.dim})")
    if spec.kind != GAUSSIAN_MIXTURE:
        raise ValueError(f"unknown synthetic kind {spec.kind!r}")
    means = np.asarray(spec.means, dtype=np.float64)
    variances = np.asarray(spec.variances, dtype=np.float64)
    weights = np.asarray(spec.weights, dtype=np.float64)
    if means.ndim != 2 or means.shape[1] != spec.dim:
        raise ValueError("means must be a (components, dim) array")
    if variances.shape != (means.shape[0],) or weights.shape != (means.shape[0],):
        raise ValueError("variances and weights must have one entry per component")
    if np.any(variances <= 0):
        raise ValueError("variances must be positive")
    if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be positive and sum to 1")
    which = rng.choice(means.shape[0], size=spec.count, p=weights)
    noise = rng.standard_normal((spec.count, spec.dim))
    points = means[which] + np.sqrt(variances)[which, None] * noise
    return Dataset(
        points=points,
        labels=which.astype(np.int64),
        source=f"{spec.kind}(components={means.shape[0]}, dim={spec.dim})",
    )


def train_valid_split(dataset, valid_fraction=0.1, seed=0):
    """Shuffled split into (train, valid) Datasets; valid gets the tail."""
    valid_fraction = _real("valid_fraction", valid_fraction)
    if not 0.0 < valid_fraction < 1.0:
        raise ValueError("valid_fraction must lie strictly between 0 and 1")
    _at_least("seed", seed, 0)
    n = dataset.n
    n_valid = max(1, int(round(n * valid_fraction)))
    if n_valid >= n:
        raise ValueError("split leaves no training rows")
    perm = np.random.default_rng(seed).permutation(n)
    tr, va = perm[:-n_valid], perm[-n_valid:]
    labels = dataset.labels
    return (
        Dataset(points=dataset.points[tr],
                labels=None if labels is None else labels[tr],
                source=dataset.source),
        Dataset(points=dataset.points[va],
                labels=None if labels is None else labels[va],
                source=dataset.source),
    )
