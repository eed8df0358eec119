"""Cramer-Wold distance between samples, and autoencoders regularized by it.

The squared distance compares Gaussian-smoothed one-dimensional projections
of two point clouds (or of a cloud and the standard normal), averaged over
all projection directions.  Closed-form evaluators live in
:mod:`cramerwold.distance`, Monte-Carlo cross-checks in
:mod:`cramerwold.oracle`, and the autoencoder built on top in
:mod:`cramerwold.training`.
"""

from .bench import BenchReport, run_bench
from .data import (
    Dataset,
    SyntheticSpec,
    generate,
    load_csv,
    load_idx,
    save_csv,
    train_valid_split,
)
from .distance import (
    CwReport,
    RadialGaussian,
    cw2_sample_normal,
    cw2_sample_sample,
    cw_scalar_product_radial,
    silverman_gamma,
)
from .kernels import BACKEND
from .normality import MardiaStats, mardia
from .oracle import (
    McEstimate,
    cw2_monte_carlo,
    cw2_normal_monte_carlo,
    radial_product_monte_carlo,
    sample_directions,
)
from .phi import (
    PhiMode,
    phi,
    phi_asymptotic,
    phi_asymptotic_derivative,
    phi_bessel_d2,
    phi_exact,
    resolve_mode,
)
from .training import (
    CwaeCost,
    TrainConfig,
    TrainRecord,
    cost_and_grad,
    cwae_cost,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BenchReport",
    "run_bench",
    "Dataset",
    "SyntheticSpec",
    "generate",
    "load_csv",
    "load_idx",
    "save_csv",
    "train_valid_split",
    "CwReport",
    "RadialGaussian",
    "cw2_sample_normal",
    "cw2_sample_sample",
    "cw_scalar_product_radial",
    "silverman_gamma",
    "MardiaStats",
    "mardia",
    "McEstimate",
    "cw2_monte_carlo",
    "cw2_normal_monte_carlo",
    "radial_product_monte_carlo",
    "sample_directions",
    "PhiMode",
    "phi",
    "phi_asymptotic",
    "phi_asymptotic_derivative",
    "phi_bessel_d2",
    "phi_exact",
    "resolve_mode",
    "CwaeCost",
    "TrainConfig",
    "TrainRecord",
    "cost_and_grad",
    "cwae_cost",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "__version__",
]
