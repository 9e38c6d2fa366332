"""Auxiliary-fermion representation of the qubit register.

Each two-level atom is traded for a pair of fermionic modes (alpha, beta),
so the register lives in a 4^N space whose per-site basis is
{|0,0>, |1,0>, |0,1>, |1,1>} in (n_alpha, n_beta) occupation labels.  The
physical sector is the per-site single-occupancy subspace; the imaginary
chemical potential i*pi/(2*beta) per fermion makes the doubly and
unoccupied sites cancel in the phased trace, which ties the fermion
partition function back to the spin one.

Jordan-Wigner ordering: modes are flattened as [alpha_0, beta_0, alpha_1,
beta_1, ...], little-endian (mode k is bit k of the occupation index).
Composite operators follow the package convention (fermion register) x
(Fock), register most significant.
"""

from __future__ import annotations

import numpy as np

from dicketherm.operators import (
    BosonSpace,
    DimensionLimitError,
    HermitianOperator,
    ModelParams,
    make_boson_ops,
)

__all__ = [
    "DEFAULT_MAX_ATOMS",
    "build_fermion_dicke",
    "fermion_mode_ops",
    "fermion_number_diagonal",
    "physical_projector",
    "verify_trace_identity",
]

DEFAULT_MAX_ATOMS = 3

_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SIGN = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _jw_annihilator(mode: int, n_modes: int) -> np.ndarray:
    """Jordan-Wigner annihilator for one mode, sign string on lower bits."""
    op = np.eye(1, dtype=complex)
    for position in range(n_modes - 1, -1, -1):
        if position > mode:
            factor = np.eye(2, dtype=complex)
        elif position == mode:
            factor = _LOWER
        else:
            factor = _SIGN
        op = np.kron(op, factor)
    return op


def fermion_mode_ops(n_atoms: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-site (alpha_i, beta_i) annihilators on the 4^N register space."""
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    n_modes = 2 * n_atoms
    return [
        (_jw_annihilator(2 * i, n_modes), _jw_annihilator(2 * i + 1, n_modes))
        for i in range(n_atoms)
    ]


def fermion_number_diagonal(n_atoms: int) -> np.ndarray:
    """Diagonal of the total fermion number sum_i (n_alpha,i + n_beta,i)."""
    states = np.arange(4**n_atoms)
    number = np.zeros(states.shape, dtype=float)
    for mode in range(2 * n_atoms):
        number += (states >> mode) & 1
    return number


def _physical_diagonal(n_atoms: int) -> np.ndarray:
    """1.0 on register states with one fermion per site, else 0.0."""
    states = np.arange(4**n_atoms)
    # a site is singly occupied when its alpha and beta bits differ; the
    # mask holds the alpha bit of every site
    alpha_bits = (4**n_atoms - 1) // 3
    return (((states ^ (states >> 1)) & alpha_bits) == alpha_bits).astype(float)


def physical_projector(n_atoms: int, n_max: int) -> HermitianOperator:
    """Diagonal 0/1 projector onto per-site occupancy n_alpha + n_beta = 1.

    Idempotent with rank 2^N * (n_max + 1) on the composite space.
    """
    diag = np.repeat(_physical_diagonal(n_atoms), n_max + 1)
    return HermitianOperator(np.diag(diag.astype(complex)))


def build_fermion_dicke(
    params: ModelParams,
    n_atoms: int,
    n_max: int,
    *,
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> HermitianOperator:
    """Fermionized two-coupling Dicke Hamiltonian on the 4^N x Fock space.

    Substitutions: sz -> alpha'alpha - beta'beta, s+ -> alpha'beta,
    s- -> beta'alpha, applied to the generalized Hamiltonian with rotating
    coupling g1 and counter-rotating coupling g2.  Commutes with the total
    fermion number; restricted to the physical subspace it is unitarily
    equivalent to the spin builder.
    """
    if n_atoms > max_atoms:
        raise DimensionLimitError(
            f"fermion register for N={n_atoms} atoms exceeds the configured "
            f"limit of {max_atoms} (dimension 4^N grows too fast for dense work)"
        )
    if n_max < 2:
        raise ValueError("n_max must be at least 2")

    space = BosonSpace(n_max)
    annihilator, creator = make_boson_ops(space)
    number = creator @ annihilator
    dim_f = 4**n_atoms
    eye_f = np.eye(dim_f, dtype=complex)
    eye_b = np.eye(space.dimension, dtype=complex)

    hamiltonian = params.omega0 * np.kron(eye_f, number)
    scale = 1.0 / np.sqrt(n_atoms)
    for alpha, beta in fermion_mode_ops(n_atoms):
        sz_f = alpha.conj().T @ alpha - beta.conj().T @ beta
        splus_f = alpha.conj().T @ beta
        hamiltonian += 0.5 * params.Omega * np.kron(sz_f, eye_b)
        rotating = np.kron(splus_f, annihilator)
        counter = np.kron(splus_f, creator)
        hamiltonian += params.g1 * scale * (rotating + rotating.conj().T)
        hamiltonian += params.g2 * scale * (counter + counter.conj().T)
    return HermitianOperator(hamiltonian)


def verify_trace_identity(
    params: ModelParams, n_atoms: int, n_max: int, beta: float | np.ndarray
) -> float | np.ndarray:
    """Relative residual of the phased-trace identity.

    Computes |LHS - RHS| / |RHS| with
    LHS = i^N * Tr[exp(-beta H_F) exp(-i pi Nhat / 2)] over the full space,
    RHS = Tr_phys[exp(-beta H_F)].
    The unoccupied and doubly occupied site states carry zero qubit energy
    and opposite phases, so they cancel; the residual is numerical noise.
    ``beta`` is a float or an array; the residual has its shape, and all
    betas share one eigensolve of H_F.
    """
    betas = np.asarray(beta, dtype=float)
    if not np.all(betas > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    matrix = build_fermion_dicke(params, n_atoms, n_max).matrix
    # every entry is real, so eigh takes the real symmetric path
    if not np.any(matrix.imag):
        matrix = matrix.real
    eigvals, eigvecs = np.linalg.eigh(matrix)
    # one row of Boltzmann weights per beta; each row sums on its own
    weights = np.exp(-betas[..., None] * (eigvals - eigvals[0]))

    number_diag = np.repeat(fermion_number_diagonal(n_atoms), n_max + 1)
    phases = np.exp(-0.5j * np.pi * number_diag)
    phys_diag = np.repeat(_physical_diagonal(n_atoms), n_max + 1)

    # <v_k| D |v_k> for diagonal D, vectorized over the eigenbasis
    amp2 = np.abs(eigvecs) ** 2
    phased = (1j**n_atoms) * np.sum(weights * (phases @ amp2), axis=-1)
    physical = np.sum(weights * (phys_diag @ amp2), axis=-1)
    residual = np.abs(phased - physical) / np.abs(physical)
    return float(residual) if residual.ndim == 0 else residual
