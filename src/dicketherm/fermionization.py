"""Auxiliary-fermion representation of the qubit register.

Each two-level atom is traded for a pair of fermionic modes (alpha, beta),
so the register lives in a 4^N space whose per-site basis is
{|0,0>, |1,0>, |0,1>, |1,1>} in (n_alpha, n_beta) occupation labels.  The
physical sector is the per-site single-occupancy subspace; the imaginary
chemical potential i*pi/(2*beta) per fermion makes the doubly and
unoccupied sites cancel in the phased trace, which ties the fermion
partition function back to the spin one.

Register layout: modes are flattened as [alpha_0, beta_0, alpha_1,
beta_1, ...], little-endian, so mode k is bit k of the register index:
site i holds alpha_i at bit 2i and beta_i at bit 2i + 1.  Composite
states follow the package convention (fermion register) x (Fock),
register most significant: index = s * (n_max + 1) + n.
``build_fermion_dicke`` writes the matrix by arithmetic on these
indices, from a parameter-free layout (``_layout``) cached per
(N, n_max): the spin diagonal, the flat positions of the rotating and
counter-rotating entries, and the sector blocks below.  The layout is
read-only, so a build only writes the params' values into a zero
matrix.  In the Jordan-Wigner ordering the hopping alpha_i' beta_i
takes a state with beta_i occupied and alpha_i empty to
s ^ (3 << 2i) with sign +1: the strings of the two modes differ only
on bit 2i, which is empty in the source state.

Every term of the Hamiltonian conserves each site's occupation
n_alpha,i + n_beta,i in {0, 1, 2}, so it splits into 3^N occupation
sectors, and both diagonals of the trace identity, the phase
exp(-i pi Nhat / 2) and the physical projector, are constant on each.
``verify_trace_identity`` therefore needs only the eigenvalues of the
sector blocks, never the eigenvectors of the whole matrix.  A sector
with k singly occupied sites has 2^k (n_max + 1) rows, so the blocks
come in N + 1 sizes, and the blocks of one size are solved together.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from dicketherm.operators import (
    DimensionLimitError,
    HermitianOperator,
    ModelParams,
    check_beta,
)

__all__ = [
    "MAX_ATOMS",
    "build_fermion_dicke",
    "fermion_number_diagonal",
    "verify_trace_identity",
]

# The 4^N register outgrows dense work fast; N = 3 is 64 register states.
MAX_ATOMS = 3


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


class _Layout(NamedTuple):
    """Parameter-free layout of one (N, n_max) register, all read-only.

    ``spin`` holds sum_i (n_alpha,i - n_beta,i) per register state.
    ``rotating`` and ``counter`` hold the flat positions, in the
    composite matrix, of the rotating and counter-rotating entries and
    then of their transposes, and ``roots`` the sqrt(n) of each of them.
    ``blocks`` holds one array per occupation-sector block size, most
    singly occupied sites first: the flat positions of that size's
    blocks stacked as (B, S, S), each block keeping its rows in matrix
    order.  Per eigenvalue of the stacks in that order, ``phases`` holds
    the sector's exp(-i pi Nhat / 2) and ``projector`` its
    physical-projector value.
    """

    spin: np.ndarray
    rotating: np.ndarray
    counter: np.ndarray
    roots: np.ndarray
    blocks: tuple[np.ndarray, ...]
    phases: np.ndarray
    projector: np.ndarray


@lru_cache(maxsize=8)
def _layout(n_atoms: int, n_max: int) -> _Layout:
    """The layout of the register; callers share it, so it is read-only."""
    levels = n_max + 1
    dimension = 4**n_atoms * levels
    states = np.arange(4**n_atoms)
    alphas = [(states >> 2 * site) & 1 for site in range(n_atoms)]
    betas = [(states >> (2 * site + 1)) & 1 for site in range(n_atoms)]
    spin = np.zeros(states.shape, dtype=float)
    for alpha, beta in zip(alphas, betas):
        spin += alpha - beta

    # for each site i, alpha_i' beta_i maps s (beta_i set, alpha_i empty)
    # to t = s ^ (3 << 2i); the rotating term is |t, n-1><s, n|, the
    # counter-rotating |t, n><s, n-1|, for n = 1 .. n_max
    n = np.arange(1, levels)
    rotating, counter = [], []
    for site in range(n_atoms):
        sources = states[(alphas[site] == 0) & (betas[site] == 1)][:, None]
        s, t = sources * levels, (sources ^ (3 << 2 * site)) * levels
        for entries, rows, cols in (
            (rotating, t + n - 1, s + n),
            (counter, t + n, s + n - 1),
        ):
            entries += [(rows * dimension + cols).ravel(), (cols * dimension + rows).ravel()]
    rotating, counter = np.concatenate(rotating), np.concatenate(counter)
    roots = np.tile(np.sqrt(n), len(rotating) // n_max)

    occupations = [alpha + beta for alpha, beta in zip(alphas, betas)]
    label = sum(3**site * occupation for site, occupation in enumerate(occupations))
    singles = sum(occupation == 1 for occupation in occupations)
    # stable: by singly occupied sites (descending), then by sector label
    order = np.lexsort((label, -singles))
    number = fermion_number_diagonal(n_atoms)
    physical = _physical_diagonal(n_atoms)
    blocks, phases, projector = [], [], []
    for k in range(n_atoms, -1, -1):
        register = order[singles[order] == k].reshape(-1, 2**k)
        rows = (register[:, :, None] * levels + np.arange(levels)).reshape(
            len(register), -1
        )
        blocks.append(rows[:, :, None] * dimension + rows[:, None, :])
        size = rows.shape[1]
        phases.append(np.repeat(np.exp(-0.5j * np.pi * number[register[:, 0]]), size))
        projector.append(np.repeat(physical[register[:, 0]], size))

    layout = _Layout(
        spin, rotating, counter, roots, tuple(blocks),
        np.concatenate(phases), np.concatenate(projector),
    )
    for field in layout:
        for array in field if isinstance(field, tuple) else (field,):
            array.setflags(write=False)
    return layout


def build_fermion_dicke(
    params: ModelParams, n_atoms: int, n_max: int
) -> HermitianOperator:
    """Fermionized two-coupling Dicke Hamiltonian on the 4^N x Fock space.

    Substitutions: sz -> alpha'alpha - beta'beta, s+ -> alpha'beta,
    s- -> beta'alpha, applied to the generalized Hamiltonian with rotating
    coupling g1 and counter-rotating coupling g2.  Commutes with the total
    fermion number; restricted to the physical subspace it is unitarily
    equivalent to the spin builder.

    Written entry by entry on the indices of the module docstring, all
    real, from the register's cached layout (``_layout``).  The diagonal
    is omega0 n + (Omega/2) sum_i (n_alpha,i - n_beta,i).  For each site
    i, alpha_i' beta_i maps a register state s with beta_i set and
    alpha_i empty to t = s ^ (3 << 2i) with sign +1; the rotating term
    adds |t, n-1><s, n| sqrt(n), the counter-rotating term
    |t, n+1><s, n| sqrt(n+1), each scaled by 1/sqrt(N) and added with its
    transpose.

    Raises
    ------
    DimensionLimitError
        For N above ``MAX_ATOMS``.
    ValueError
        For N < 1 or n_max < 2.
    """
    if n_atoms > MAX_ATOMS:
        raise DimensionLimitError(
            f"fermion register for N={n_atoms} atoms exceeds the limit of "
            f"{MAX_ATOMS} (dimension 4^N grows too fast for dense work)"
        )
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")

    layout = _layout(n_atoms, n_max)
    dimension = len(layout.spin) * (n_max + 1)
    matrix = np.zeros(dimension * dimension)
    matrix[:: dimension + 1] = np.add.outer(
        0.5 * params.Omega * layout.spin, params.omega0 * np.arange(n_max + 1)
    ).ravel()
    scale = 1.0 / np.sqrt(n_atoms)
    matrix[layout.rotating] = params.g1 * scale * layout.roots
    matrix[layout.counter] = params.g2 * scale * layout.roots
    return HermitianOperator(matrix.reshape(dimension, dimension))


def verify_trace_identity(
    params: ModelParams, n_atoms: int, n_max: int, beta: float | np.ndarray
) -> float | np.ndarray:
    """Relative residual of the phased-trace identity.

    Computes |LHS - RHS| / |RHS| with
    LHS = i^N * Tr[exp(-beta H_F) exp(-i pi Nhat / 2)] over the full space,
    RHS = Tr_phys[exp(-beta H_F)].
    The unoccupied and doubly occupied site states carry zero qubit energy
    and opposite phases, so they cancel; the residual is numerical noise.

    Both traces are taken over the eigenvalues of the occupation sectors
    (module docstring), on which both diagonals are constant: one
    ``eigvalsh`` call per block size, no eigenvectors.  The split is
    checked, not assumed: any nonzero entry of H_F between two sectors
    breaks the identity's premise and gives the residual inf.  ``beta``
    is a float or an array; the residual has its shape, and all betas
    share the one set of eigenvalues.
    """
    check_beta(beta)
    betas = np.asarray(beta, dtype=float)
    matrix = build_fermion_dicke(params, n_atoms, n_max).matrix
    layout = _layout(n_atoms, n_max)
    blocks = [matrix.take(at) for at in layout.blocks]
    # the blocks hold each in-sector entry once, so a count short of the
    # matrix's is an entry between sectors
    if sum(map(np.count_nonzero, blocks)) != np.count_nonzero(matrix):
        residual = np.full(betas.shape, np.inf)
    else:
        eigvals = np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks])
        # one row of Boltzmann weights per beta; each row sums on its own
        weights = np.exp(-betas[..., None] * (eigvals - eigvals.min()))
        phased = (1j**n_atoms) * np.sum(weights * layout.phases, axis=-1)
        traced = np.sum(weights * layout.projector, axis=-1)
        residual = np.abs(phased - traced) / np.abs(traced)
    return float(residual) if residual.ndim == 0 else residual
