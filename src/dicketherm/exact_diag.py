"""Exact-diagonalization oracle at finite atom number N.

Desk-scale reference results: full spectra, partition functions, thermal
expectations, and the finite-N photon-density crossover that the
functional-integral order parameter predicts in the N -> infinity limit.

``thermal_solve`` diagonalizes one real dense Hamiltonian and takes
each observable as its diagonal in the same basis; with the matrix of
``build_hamiltonian`` it is the dense small-N oracle, and no ladder rung
uses either.  The photon-density ladder of ``photon_density_curve``
solves each rung on the spin blocks of ``operators.block_stacks``,
(2j + 1)(n_max + 1) rows with multiplicity d_j, whatever the kind,
split by the label the acting couplings conserve: with two, one batched
``eigh`` call per parity pair of a spin block, floor(N/2) + 1 a rung;
with one, a single call for the tridiagonal excitation-number blocks of
every j, so generalized Dicke at g2 = 0 is dicke-rwa.  A single-atom
kind is the N = 1 case, one spin block j = 1/2.

Each stack comes with each row's photon number, each block's true size
and each block's multiplicity.  The padded eigenpairs are dropped by
index, and one reduction sums d_j Tr over all blocks with one shared
ground-energy shift.  What does not depend on the parameters sits in
the structure cache of ``operators``, at most
``operators.STRUCTURE_CACHE_BYTES`` (32 MB) in all, and a rung of new
parameters only scales these read-only templates.  A parity pair's
spin block 2j recurs across the N of one ladder, but one ladder uses
each other stack (N, n_max) once; the nodes of a sweep, or later curves
in one process, reuse every stack.

The fixed ceiling ``operators.DIMENSION_LIMIT`` bounds the full spin
block, (N + 1)(n_max + 1) rows, although the eigensolves run on its
parts, and it bounds the dense matrix of ``thermal_solve``.  The ladder
stops with ``TruncationConvergenceError`` when the builder refuses its
next doubling.  Before solving any rung it refuses what
``check_ladder_inputs`` refuses: a nonzero g2 for a kind of one coupling,
which would ignore it, a single-atom kind at any N != 1, an N whose
first rung or its doubling is past the ceiling (N >= 352), and a
coupling whose amplitude grows like the photon number at
g sqrt(N) >= omega0, which has no thermal state.

At zero temperature ``excitation_gaps`` gives the lowest excitation
energies of the top spin block j = N/2 of generalized Dicke, the
finite-N counterpart of the normal-phase collective modes
(``thermo.mode_energies`` at beta = inf; Emary and Brandes, PRE 67,
066203, 2003), and ``richardson_in_inverse_n`` extrapolates a sequence
in N to N -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from dicketherm import operators
from dicketherm.operators import (
    COUPLINGS,
    DimensionLimitError,
    HamiltonianKind,
    HermitianOperator,
    ModelParams,
    block_stacks,
    build_hamiltonian,
    check_beta,
    check_couplings,
    check_spin_block_size,
)

__all__ = [
    "CurvePoint",
    "EDResult",
    "TruncationConvergenceError",
    "build_hamiltonian",  # with thermal_solve, the dense oracle pair
    "check_ladder_inputs",
    "excitation_gaps",
    "photon_density_curve",
    "richardson_in_inverse_n",
    "thermal_solve",
]


# First rung of the truncation ladder; it doubles from here.
_BASE_RUNG = 8


class TruncationConvergenceError(RuntimeError):
    """Doubling ladder hit the dimension ceiling before converging."""


@dataclass(frozen=True, eq=False)
class EDResult:
    """Thermal solution of one Hamiltonian at one temperature.

    ``Z`` is literally sum(exp(-beta * eigenvalues)); weights are
    evaluated with a ground-state shift internally so observables stay
    finite at large beta even when Z itself overflows.
    """

    eigenvalues: np.ndarray
    Z: float
    observables: dict[str, float]
    beta: float


@dataclass(frozen=True)
class CurvePoint:
    n_atoms: int
    n_max_used: int
    photons_per_atom: float
    truncation_error_estimate: float


def thermal_solve(
    H: HermitianOperator,
    beta: float,
    observables: Mapping[str, np.ndarray] | None = None,
) -> EDResult:
    """Full eigendecomposition plus Boltzmann-weighted expectations.

    Each observable is given by its diagonal in the basis of ``H``, one
    value per row, as the photon number and the parity are diagonal
    there; its expectation in an eigenstate is that diagonal weighted by
    the state's squared amplitudes.

    Raises ``DimensionLimitError`` for a matrix of more than
    ``operators.DIMENSION_LIMIT`` rows, and ``ValueError`` for an
    observable that is not one value per row, before diagonalizing.
    """
    check_beta(beta)
    if H.dimension > operators.DIMENSION_LIMIT:
        raise DimensionLimitError(
            f"dimension {H.dimension} exceeds limit {operators.DIMENSION_LIMIT}"
        )
    observables = observables or {}
    for name, diagonal in observables.items():
        if np.shape(diagonal) != (H.dimension,):
            raise ValueError(
                f"observable {name!r} must be a diagonal of {H.dimension} "
                f"values, got shape {np.shape(diagonal)}"
            )
    eigenvalues, eigenvectors = np.linalg.eigh(H.matrix)
    weights = np.exp(-beta * (eigenvalues - eigenvalues[0]))
    z_shifted = float(np.sum(weights))
    Z = float(np.exp(-beta * eigenvalues[0]) * z_shifted)

    expectations = {
        name: float(np.dot(weights, diagonal @ eigenvectors**2) / z_shifted)
        for name, diagonal in observables.items()
    }
    eigenvalues.setflags(write=False)
    return EDResult(eigenvalues=eigenvalues, Z=Z, observables=expectations, beta=beta)


def _photon_density(
    params: ModelParams,
    n_atoms: int,
    n_max: int,
    beta: float,
    kind: HamiltonianKind,
) -> float:
    """Thermal <b'b> at one truncation, one batched ``eigh`` per stack."""
    check_beta(beta)
    energies, photons, multiplicities = [], [], []
    stacks = block_stacks(kind, params, n_atoms, n_max)
    for blocks, number, size, multiplicity in stacks:
        eigenvalues, eigenvectors = np.linalg.eigh(blocks)
        kept = np.arange(blocks.shape[1]) < size[:, None]
        energies.append(eigenvalues[kept])
        photons.append((number[:, None, :] @ eigenvectors**2)[:, 0][kept])
        multiplicities.append(np.repeat(multiplicity, size))
    energies = np.concatenate(energies)
    weights = np.concatenate(multiplicities) * np.exp(
        -beta * (energies - energies.min())
    )
    return float(weights @ np.concatenate(photons)) / float(np.sum(weights))


def _ladder(
    params: ModelParams,
    n_atoms: int,
    beta: float,
    target_tol: float,
    kind: HamiltonianKind,
) -> tuple[int, float, float]:
    """First converged rung and the photon numbers at it and its doubling.

    Each rung is solved once; no result is kept beyond the call, only
    the builder's parameter-free structures.  The builder refuses a rung
    past the dimension ceiling before building it, which ends the ladder.
    """
    n_max = _BASE_RUNG
    prev = _photon_density(params, n_atoms, n_max, beta, kind)
    while True:
        doubled = 2 * n_max
        try:
            cur = _photon_density(params, n_atoms, doubled, beta, kind)
        except DimensionLimitError as refusal:
            raise TruncationConvergenceError(
                f"ladder exhausted at n_max={n_max} (N={n_atoms}): {refusal}; "
                f"last rung moved the photon number by more than {target_tol:.3e}"
            ) from refusal
        if abs(cur - prev) < target_tol:
            return n_max, prev, cur
        n_max, prev = doubled, cur


def check_ladder_inputs(
    params: ModelParams,
    beta: float,
    target_tol: float,
    kind: HamiltonianKind,
    N_list: Sequence[int],
) -> None:
    """Raise the ValueError the ladder would raise for these inputs.

    That includes the builder's ``DimensionLimitError`` for an N whose
    first rung, or that rung's doubling, is past
    ``operators.DIMENSION_LIMIT``: the ladder needs both to converge.
    Solves nothing, so a caller can refuse a curve before writing any of
    it.
    """
    if not target_tol > 0.0:
        raise ValueError(f"target_tol must be positive, got {target_tol}")
    check_beta(beta)
    check_couplings(params, kind)
    for n_atoms in N_list:
        if n_atoms < 1:
            raise ValueError(f"n_atoms must be at least 1, got {n_atoms}")
    for rung in (_BASE_RUNG, 2 * _BASE_RUNG):
        for n_atoms in N_list:
            # a single-atom kind at N != 1 is refused first; then the first
            # rung and its doubling must fit, or the ladder would solve
            # rungs, and write those of the earlier N, before it fails
            check_spin_block_size(kind, n_atoms, rung)
    # A coupling whose amplitude grows like the photon number n, two roots,
    # makes the ground energies fall like n (omega0 - g sqrt(N)) at large n,
    # and tend to a constant at equality: Z grows without bound.
    for name, g, op in zip(("g1", "g2"), (params.g1, params.g2), COUPLINGS[kind]):
        for n_atoms in N_list if len(op.roots) == 2 else ():
            coupling = g * math.sqrt(n_atoms)
            if coupling >= params.omega0:
                raise ValueError(
                    f"{kind.value} has no thermal state at N={n_atoms}: "
                    f"{name}*sqrt(N) = {coupling:.6g} >= "
                    f"omega0 = {params.omega0:.6g}, so the energy is not bounded "
                    f"below as the photon number grows"
                )


def photon_density_curve(
    params: ModelParams,
    beta: float,
    N_list: Sequence[int] = (2, 4, 6, 8),
    *,
    target_tol: float = 1e-6,
    kind: HamiltonianKind = HamiltonianKind.GENERALIZED_DICKE,
) -> list[CurvePoint]:
    """Photons per atom versus N at fixed beta, truncation-converged.

    For each N the ladder n_max = 8, 16, 32, ... stops at the first rung
    whose doubling moves <b'b> by less than ``target_tol``.  Each point
    reports that doubled (confirming) rung: its density is the more
    accurate of the converged pair and the difference between the pair
    is the recorded truncation error estimate.

    Raises
    ------
    ValueError
        Before any rung is solved, for any N of ``N_list``: a NaN or
        non-positive ``target_tol``, a non-finite or non-positive
        ``beta``, a nonzero g2 for a kind of one coupling, N < 1, a
        single-atom kind at N != 1, an N whose first rung or its
        doubling the builder refuses (``DimensionLimitError``: N >= 352,
        whose spin block at n_max = 16 has (N + 1) 17 > 6000 rows), or a
        coupling whose amplitude grows like the photon number at
        g sqrt(N) >= omega0, which has no thermal state.
    TruncationConvergenceError
        When the builder refuses the next doubling (see the module
        docstring) before the ladder converges, the expected outcome deep
        in the superradiant phase, where occupation scales with N.
    """
    check_ladder_inputs(params, beta, target_tol, kind, N_list)
    points = []
    for n_atoms in N_list:
        rung, lower, upper = _ladder(params, n_atoms, beta, target_tol, kind)
        points.append(
            CurvePoint(
                n_atoms=n_atoms,
                n_max_used=2 * rung,
                photons_per_atom=upper / n_atoms,
                truncation_error_estimate=abs(upper - lower),
            )
        )
    return points


def excitation_gaps(
    params: ModelParams, n_atoms: int, n_max: int, count: int
) -> np.ndarray:
    """The lowest ``count`` gaps E_k - E_0 of the top spin block, ascending.

    The block j = N/2 of generalized Dicke at zero temperature, from its
    parity pair, the first of ``operators.block_stacks``, by one
    ``np.linalg.eigvalsh`` call; its padded levels are dropped by index.
    Both couplings must act, as the parity pair needs.  Raises
    ValueError for a g of 0 or a ``count`` past the block's levels, and
    what the builder raises for the sizes.
    """
    if not (params.g1 > 0.0 and params.g2 > 0.0):
        raise ValueError(
            f"excitation_gaps needs g1 > 0 and g2 > 0 for a parity pair, got {params}"
        )
    stacked, _, size, _ = next(
        block_stacks(HamiltonianKind.GENERALIZED_DICKE, params, n_atoms, n_max)
    )
    levels = np.linalg.eigvalsh(stacked)
    energies = np.sort(np.concatenate([levels[half, : size[half]] for half in (0, 1)]))
    if not 1 <= count < energies.size:
        raise ValueError(f"count must be 1 to {energies.size - 1}, got {count}")
    return energies[1 : count + 1] - energies[0]


def richardson_in_inverse_n(
    sizes: Sequence[int], values: Sequence[float]
) -> tuple[float, float]:
    """Polynomial extrapolation in 1/N of values at ascending sizes to N -> inf.

    Neville's table in h = 1/N: each step removes the next power of h,
    and the last step uses every value.  Returns the extrapolant and
    its error estimate, the change between the last two steps: for two
    sizes N and 2N, 2 v(2N) - v(N) and its distance from v(2N).
    """
    if len(sizes) != len(values) or len(sizes) < 2:
        raise ValueError("richardson_in_inverse_n needs two or more sizes, one value each")
    h = [1.0 / n for n in sizes]
    row = [float(v) for v in values]
    steps = [row[-1]]
    for j in range(1, len(row)):
        row = [
            row[i] + (row[i] - row[i - 1]) * h[i + j - 1] / (h[i - 1] - h[i + j - 1])
            for i in range(1, len(row))
        ]
        steps.append(row[-1])
    return steps[-1], abs(steps[-1] - steps[-2])
