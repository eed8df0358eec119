"""The hot kernels behind the distances, the gradient, Mardia and the oracle.

Callers look the kernels up through this module, so a caller-side wrapper
(a tracer, say) can replace one name here.
"""

from ._vectorized import (
    cw_normal_asym_terms,
    mardia_sums,
    mc_normal_values,
    mc_pair_values,
    sum_phi_cross,
    sum_phi_norms,
)

# Name of the one kernel implementation, exported as cramerwold.BACKEND.
BACKEND = "numpy"
