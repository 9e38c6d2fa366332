"""Thermodynamics and collective spectrum of the generalized Dicke model.

The package computes the finite-temperature phase structure (critical
temperature, convergence bound, order parameter), the log partition-function
ratio, and the collective bosonic excitation spectrum of N two-level atoms
coupled to a single bosonic mode through separate rotating (g1) and
counter-rotating (g2) couplings.  Analytic results are cross-checked by an
auxiliary-fermion trace identity and a dense exact-diagonalization oracle on
small instances: the real matrix of ``build_hamiltonian`` with
``exact_diag.thermal_solve``.
"""

from dicketherm.operators import (
    HamiltonianKind,
    HermitianOperator,
    ModelParams,
    build_hamiltonian,
)

__all__ = [
    "HamiltonianKind",
    "HermitianOperator",
    "ModelParams",
    "build_hamiltonian",
]

__version__ = "0.1.0"
