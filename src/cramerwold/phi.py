"""Smoothing-kernel profile function of the Cramer-Wold distance.

``phi(D, s)`` is the confluent hypergeometric value 1F1(1/2; D/2; -s), the
radial profile that turns squared point distances into sphere-averaged
products of Gaussian-smoothed projections.  Three evaluation modes:

* ``PhiMode.EXACT_SERIES``  - all-positive Kummer series for s <= 40 or s < D,
  large-argument expansion elsewhere; within 5e-15 relative of mpmath up to
  D = 784 and 1.2e-14 at D = 3072 (default for 3 <= D < 20);
* ``PhiMode.ASYMPTOTIC``    - ``(1 + 4s/(2D-3))**-0.5`` (default for D >= 20);
* ``PhiMode.BESSEL_D2``     - ``exp(-s/2) I0(s/2)`` via the Abramowitz-Stegun
  polynomial fit (D = 2 only; the default there).
"""

import enum
import math

import numpy as np

from . import _vectorized


class PhiMode(enum.Enum):
    EXACT_SERIES = "exact"
    ASYMPTOTIC = "asymptotic"
    BESSEL_D2 = "bessel2"


_MODE_CODES = {
    PhiMode.EXACT_SERIES: _vectorized.MODE_EXACT,
    PhiMode.ASYMPTOTIC: _vectorized.MODE_ASYMPTOTIC,
    PhiMode.BESSEL_D2: _vectorized.MODE_BESSEL2,
}


def _check_dim(dim):
    if not isinstance(dim, (int,)) or isinstance(dim, bool):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return dim


def _check_s(s):
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"s must be finite and >= 0, got {s!r}")
    return s


def resolve_mode(dim, mode=None):
    """Pick the evaluation mode for dimension ``dim``.

    ``None`` (or the string ``"auto"``) selects the default policy: Bessel
    fit at D = 2, stabilized series for 3 <= D < 20, asymptotic closed form
    for D >= 20.  Strings matching the mode values are also accepted.
    """
    _check_dim(dim)
    if mode is None or mode == "auto":
        if dim == 2:
            return PhiMode.BESSEL_D2
        if dim < 20:
            return PhiMode.EXACT_SERIES
        return PhiMode.ASYMPTOTIC
    if isinstance(mode, str):
        try:
            mode = PhiMode(mode)
        except ValueError:
            raise ValueError(f"unknown phi mode {mode!r}") from None
    if mode is PhiMode.BESSEL_D2 and dim != 2:
        raise ValueError(f"bessel2 mode is only valid for dimension 2, got {dim}")
    return mode


def mode_code(mode):
    """Integer code used by the kernels for a PhiMode."""
    return _MODE_CODES[mode]


def _value(dim, s, code):
    return float(_vectorized.phi_values(dim, np.array([s]), code)[0])


def phi_exact(dim, s):
    """1F1(1/2; dim/2; -s): within 5e-15 relative up to dim = 784, 1.2e-14 at 3072."""
    _check_dim(dim)
    return _value(dim, _check_s(s), _vectorized.MODE_EXACT)


def phi_asymptotic(dim, s):
    """Large-D closed form (1 + 4s/(2*dim-3))**-0.5."""
    _check_dim(dim)
    return _value(dim, _check_s(s), _vectorized.MODE_ASYMPTOTIC)


def phi_asymptotic_derivative(dim, s):
    """d/ds of phi_asymptotic: -(2/(2*dim-3)) (1 + 4s/(2*dim-3))**-1.5."""
    _check_dim(dim)
    s = np.array([_check_s(s)])
    return float(_vectorized.phi_asymptotic_derivative_values(dim, s)[0])


def phi_bessel_d2(s):
    """exp(-s/2) I0(s/2): the dim = 2 profile via the two-branch polynomial fit."""
    return _value(2, _check_s(s), _vectorized.MODE_BESSEL2)


def phi(dim, s, mode=None):
    """Profile function with mode dispatch (``mode=None`` picks by dimension)."""
    resolved = resolve_mode(dim, mode)
    return _value(dim, _check_s(s), mode_code(resolved))
