"""Exact bound states of the trigonometric Rosen-Morse potential.

The closed forms (polynomials, spectra, wave functions, normalization and the
factorization ladder) are exact over rational parameters; the `numerics`
module provides independent quadrature and finite-difference oracles used to
verify every one of them.
"""

__version__ = "0.1.0"

from .polycore import Polynomial
from .rodrigues import (
    RodriguesResult,
    WeightSpec,
    arccot_weight,
    chebyshev1_weight,
    chebyshev2_weight,
    gegenbauer_weight,
    hermite_weight,
    jacobi_weight,
    laguerre_weight,
    legendre_weight,
    rodrigues_generate,
    sturm_liouville_residual,
    table1_presets,
)
from .trm import (
    TrmLevel,
    TrmParams,
    TrmSolution,
    trm_knorm,
    trm_level,
    trm_polynomial,
    trm_potential,
    trm_solution,
    trm_spectrum,
    trm_wavefunction,
)
from .eckart import (
    EckartLevel,
    EckartParams,
    EckartSolution,
    eckart_normalization,
    eckart_potential,
    eckart_solution,
    eckart_spectrum,
    eckart_wavefunction,
    jacobi_polynomial,
)
from .susy import Superpotential, apply_ladder, superpotential_from_gst
from .numerics import (
    IntegralEstimate,
    QuadratureSpec,
    SampledFunction,
    TridiagonalOperator,
    eigenvalues_sturm,
    eigenvector_inverse_iteration,
    fdm_eigenvalues,
    fdm_hamiltonian,
    integrate,
    interior_grid,
    safe_grid,
)
