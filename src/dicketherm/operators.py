"""Hamiltonians of the qubit-boson family on truncated Fock spaces.

This module builds the single-mode Hamiltonians handled by the package:
the generalized Dicke model with separate rotating and counter-rotating
couplings, its rotating-wave restriction, the Jaynes-Cummings model and
its two-photon and intensity-dependent variants.  The dense builder,
``build_hamiltonian``, writes the real 2^N (n_max + 1) matrix from
Kronecker products into a ``HermitianOperator``, which holds real
matrices only; with ``exact_diag.thermal_solve`` it is the small-N
oracle.  The production solvers run on blocks of one total spin j,
(2j + 1)(n_max + 1) rows in the order |m> x |n>, and two builders write
them.  ``parity_pairs`` writes each spin block of a collective kind as
one parity pair: the two halves of the parity of (m + j + n), stacked,
for generalized Dicke.  Every other kind
conserves an excitation number K = s (m + j) + n, with s = 2 for
two-photon Jaynes-Cummings and 1 otherwise, and ``excitation_blocks``
builds the tridiagonal K-blocks of all its spin blocks as one stack
per truncation (``EXCITATION_KINDS``); a single-atom kind is the N = 1
case, whose one spin block is the whole space.  Both stack builders
return the stack, each row's photon number, each block's true size and
each block's multiplicity, and pad short blocks with decoupled rows
that sort last.  Every builder refuses, before building anything, a
matrix of more than ``DIMENSION_LIMIT`` rows: the spin block builders
count the full spin block, (N + 1)(n_max + 1) rows, whatever it is
split into; the dense builder counts 2^N (n_max + 1) without forming
2^N, so a register of any size is refused at once.

The spin block builders split their work in two.  What does not depend
on ``ModelParams`` is built once and cached: per (kind, 2j, n_max), a
spin block's unit amplitudes and the flat positions of its entries in
its parity pair; per (kind, N, n_max), the layout of the
``excitation_blocks`` stack and its unit couplings.  A call checks the
sizes, then only scales these read-only templates by omega0, Omega and
g / sqrt(N).  The cache drops its least recently used structures to
hold at most ``STRUCTURE_CACHE_BYTES`` (32 MB) in all; nothing selects
it on or off.  It pays only when a process asks for a key again: a call
that misses builds the structure and then scales it, a few microseconds
more than building the block outright.

Basis convention, fixed across the whole package: composite states are
ordered as (qubit register) x (Fock), qubit register little-endian (site 0
is the least significant bit), Fock occupation ascending.  A composite
index decomposes as ``index = q * (n_max + 1) + n`` with ``q`` the register
bit pattern and ``n`` the boson occupation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from math import comb, inf, sqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "COLLECTIVE_KINDS",
    "DIMENSION_LIMIT",
    "DimensionLimitError",
    "EXCITATION_KINDS",
    "HamiltonianKind",
    "HermitianOperator",
    "ModelParams",
    "NotHermitianError",
    "SINGLE_ATOM_KINDS",
    "build_hamiltonian",
    "check_beta",
    "check_spin_block_size",
    "excitation_blocks",
    "parity_pairs",
]

HERMITICITY_TOL = 1e-12

# Dense eigensolves above this size stop being desk-scale; the crossover
# study at eight atoms needs 2^8 * 17 = 4352.  The builders and
# exact_diag.thermal_solve read it at call time.
DIMENSION_LIMIT = 6000

# Bytes the cache of parameter-free block structures may hold in all.  The
# largest structure under DIMENSION_LIMIT, the excitation structure at
# N = 665 and n_max = 8, holds 25 MB; a spin block's at most 0.4 MB.
STRUCTURE_CACHE_BYTES = 32 * 2**20


class DimensionLimitError(ValueError):
    """Requested matrix or spin block exceeds ``DIMENSION_LIMIT`` rows."""


class NotHermitianError(ValueError):
    """Matrix failed the elementwise hermiticity check."""


def check_beta(beta: float | np.ndarray) -> None:
    """Refuse a beta, or an array holding one, that is not positive and finite."""
    # each comparison is False for NaN as well
    if isinstance(beta, float):
        ok = 0.0 < beta < inf
    else:
        betas = np.asarray(beta, dtype=float)
        ok = bool(np.all((betas > 0.0) & (betas < inf)))
    if not ok:
        raise ValueError(f"beta must be positive and finite, got {beta}")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the qubit-boson family, natural units.

    Attributes
    ----------
    omega0 : float
        Mode frequency, must be positive and finite.
    Omega : float
        Qubit energy gap, must be positive and finite.
    g1 : float
        Rotating (excitation-conserving) coupling, non-negative and finite.
    g2 : float
        Counter-rotating coupling, non-negative and finite.
    """

    omega0: float
    Omega: float
    g1: float = 0.0
    g2: float = 0.0

    def __post_init__(self) -> None:
        # each chained comparison is False for NaN as well
        if not 0.0 < self.omega0 < inf:
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if not 0.0 < self.Omega < inf:
            raise ValueError(f"Omega must be positive and finite, got {self.Omega}")
        if not 0.0 <= self.g1 < inf:
            raise ValueError(f"g1 must be non-negative and finite, got {self.g1}")
        if not 0.0 <= self.g2 < inf:
            raise ValueError(f"g2 must be non-negative and finite, got {self.g2}")


class HermitianOperator:
    """Real symmetric operator on the composite (qubit x Fock) space.

    Entries are stored as a read-only float64 matrix in the fixed basis
    described in the module docstring; every builder of the package
    writes a real matrix, and complex input is refused.  Construction
    verifies symmetry to ``HERMITICITY_TOL`` elementwise.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        if np.iscomplexobj(matrix):
            raise ValueError(f"operator matrix must be real, got {np.asarray(matrix).dtype}")
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        deviation = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
        if not deviation <= HERMITICITY_TOL:  # a NaN entry deviates too
            raise NotHermitianError(
                f"matrix deviates from self-adjointness by {deviation:.3e}"
            )
        mat.flags.writeable = False
        self.matrix = mat

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


class HamiltonianKind(Enum):
    """Which member of the single-mode Hamiltonian family to build."""

    GENERALIZED_DICKE = "generalized-dicke"
    DICKE_RWA = "dicke-rwa"
    JAYNES_CUMMINGS = "jaynes-cummings"
    TWO_PHOTON_JC = "two-photon-jc"
    INTENSITY_JC = "intensity-jc"
    INTENSITY_DICKE = "intensity-dicke"


SINGLE_ATOM_KINDS = frozenset(
    {
        HamiltonianKind.JAYNES_CUMMINGS,
        HamiltonianKind.TWO_PHOTON_JC,
        HamiltonianKind.INTENSITY_JC,
    }
)

# Kinds whose atoms enter only through the collective spin J = sum_i s_i / 2.
COLLECTIVE_KINDS = frozenset(
    {
        HamiltonianKind.GENERALIZED_DICKE,
        HamiltonianKind.DICKE_RWA,
        HamiltonianKind.INTENSITY_DICKE,
    }
)

# Kinds that conserve an excitation number K = s (m + j) + b'b.
EXCITATION_KINDS = frozenset(HamiltonianKind) - {HamiltonianKind.GENERALIZED_DICKE}


def _check_size(
    kind: HamiltonianKind, n_atoms: int, n_max: int, spin_rows: int | None
) -> None:
    """Refuse bad sizes, then a matrix of spin_rows (n_max + 1) rows past the ceiling.

    ``spin_rows`` None stands for the dense register's 2^N rows.  They
    are compared as n_max + 1 > DIMENSION_LIMIT >> N, and 2^N is written
    out only below 64 atoms, so no N takes long to refuse.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if kind in SINGLE_ATOM_KINDS and n_atoms != 1:
        raise ValueError(f"{kind.value} is a single-atom model, got N={n_atoms}")
    levels = n_max + 1
    if spin_rows is not None:
        if spin_rows * levels <= DIMENSION_LIMIT:
            return
        count = f"{spin_rows * levels}"
    elif levels <= DIMENSION_LIMIT >> n_atoms:
        return
    else:
        count = f"{levels << n_atoms}" if n_atoms < 64 else f"2^{n_atoms} x {levels}"
    raise DimensionLimitError(
        f"matrix of {count} rows exceeds limit {DIMENSION_LIMIT} "
        f"(N={n_atoms}, n_max={n_max})"
    )


def check_spin_block_size(kind: HamiltonianKind, n_atoms: int, n_max: int) -> None:
    """Refuse what the spin block builders refuse for these sizes, building nothing.

    The bound is the largest spin block, j = N/2: (N + 1)(n_max + 1) rows.
    """
    _check_size(kind, n_atoms, n_max, n_atoms + 1)


def build_hamiltonian(
    kind: HamiltonianKind,
    params: ModelParams,
    n_atoms: int,
    n_max: int,
) -> HermitianOperator:
    """Assemble one of the family Hamiltonians on the composite space.

    All kinds share the free part ``omega0 * b'b + (Omega/2) * sum_j sz_j``
    (zero of energy shifted per qubit).  The interaction depends on the
    kind:

    - GENERALIZED_DICKE: (g1/sqrt(N)) sum (b s+ + b' s-)
      + (g2/sqrt(N)) sum (b' s+ + b s-)
    - DICKE_RWA: (g1/sqrt(N)) sum (b s+ + b' s-)
    - JAYNES_CUMMINGS: g1 (b s+ + b' s-), single atom
    - TWO_PHOTON_JC: g1 (b^2 s+ + b'^2 s-), single atom
    - INTENSITY_JC: g1 (b (b'b)^(1/2) s+ + h.c.), single atom
    - INTENSITY_DICKE: (g1/sqrt(N)) sum (b (b'b)^(1/2) s+ + h.c.)

    Single-coupling kinds read ``params.g1`` and ignore ``g2``.  The
    intensity-dependent lowering factor is the adjoint pair
    ``b (b'b)^(1/2)`` / its conjugate transpose, which keeps the result
    self-adjoint on the truncated space.  The matrix is real (float64),
    in the basis of the module docstring.

    Raises
    ------
    DimensionLimitError
        If 2^N * (n_max + 1) exceeds ``DIMENSION_LIMIT``.
    ValueError
        For N < 1, n_max < 2, or a single-atom kind with N > 1.
    """
    _check_size(kind, n_atoms, n_max, None)
    # b |n> = sqrt(n) |n - 1>
    b = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
    if kind is HamiltonianKind.TWO_PHOTON_JC:
        lowering = b @ b
    elif kind in (HamiltonianKind.INTENSITY_JC, HamiltonianKind.INTENSITY_DICKE):
        lowering = b @ np.diag(np.sqrt(np.arange(n_max + 1.0)))
    else:
        lowering = b
    couplings = [(params.g1, lowering)]
    if kind is HamiltonianKind.GENERALIZED_DICKE:
        couplings.append((params.g2, b.T))

    # Register bit 1 is the excited state, so sz = diag(-1, +1) in bit order.
    sz = np.diag([-1.0, 1.0])
    splus = np.array([[0.0, 0.0], [1.0, 0.0]])

    def at_site(sigma: np.ndarray, site: int) -> np.ndarray:
        """``sigma`` on one site of the little-endian register."""
        left, right = np.eye(2 ** (n_atoms - 1 - site)), np.eye(2**site)
        return np.kron(left, np.kron(sigma, right))

    h = params.omega0 * np.kron(np.eye(2**n_atoms), b.T @ b)
    for site in range(n_atoms):
        h += 0.5 * params.Omega * np.kron(at_site(sz, site), np.eye(n_max + 1))
    # A coupled pair of rows differs in one register bit and moves the
    # photon number one way, so each entry comes from one term of one
    # coupling at one site, and the order of these sums changes no entry.
    for g, op in couplings:
        if g != 0.0:
            for site in range(n_atoms):
                term = (g / sqrt(n_atoms)) * np.kron(at_site(splus, site), op)
                h += term + term.T
    return HermitianOperator(h)


def parity_pairs(
    kind: HamiltonianKind,
    params: ModelParams,
    n_atoms: int,
    n_max: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Both parity halves of each spin block as one stack ``(H, n, size, d)``.

    A collective Hamiltonian commutes with J^2, so on the 2^N register it
    splits into spin blocks |j, m> x Fock, j = N/2, N/2 - 1, ..., down to
    0 or 1/2, each repeated ``d_j = C(N, N/2 - j) - C(N, N/2 - j - 1)``
    times (Shammah et al., PRA 98, 063815, 2018).  Row a (n_max + 1) + n
    of block j holds |m = a - j> x |n>, and the block is the real
    symmetric matrix

        omega0 n + Omega m + (g / sqrt(N)) (J+ x op + h.c.)

    with ``op`` = b (g1) and b' (g2) for GENERALIZED_DICKE, b (g1) for
    DICKE_RWA and b (b'b)^(1/2) (g1) for INTENSITY_DICKE, exactly as in
    ``build_hamiltonian``, whose spectrum is the union of the blocks'
    spectra with multiplicities d_j.  Every collective coupling moves a
    and n together or oppositely by one, so the block has no entry
    between the parities (a + n) mod 2 = 0 and 1.

    One item per j, j = N/2 first, built lazily; the arguments are
    checked on the call.  ``H`` has shape (2, h, h),
    h = ceil((2j + 1)(n_max + 1) / 2), and ``H[p]`` is the block
    restricted to parity p, written straight from the block's entries:
    row (a, n) goes to position (a (n_max + 1) + n) // 2 of half
    (a + n) mod 2, which keeps the block's row order for even and odd
    n_max.  ``n`` (shape (2, h)) holds each row's photon number, ``size``
    each half's true row count and ``d`` the multiplicity d_j of both.
    ``n`` and ``size`` are shared, read-only arrays of the structure
    cache; ``H`` and ``d`` are the caller's own.

    When the block has an odd number of rows, the odd half is one row
    short and ``H[1]`` ends in a padding row: decoupled, photon number 0,
    with a diagonal of twice the half's largest absolute row sum, which
    bounds its levels, so it sorts last.  Drop padded eigenpairs by index
    (>= size), not by energy.

    Raises
    ------
    DimensionLimitError
        If the largest block, (N + 1)(n_max + 1), exceeds ``DIMENSION_LIMIT``.
    ValueError
        For a kind outside ``COLLECTIVE_KINDS``, N < 1 or n_max < 2.
    """
    if kind not in COLLECTIVE_KINDS:
        raise ValueError(f"{kind.value} has no collective-spin blocks")
    check_spin_block_size(kind, n_atoms, n_max)
    # g1 scales the first coupling, g2 generalized Dicke's second
    scales = (params.g1 / sqrt(n_atoms), params.g2 / sqrt(n_atoms))

    def pair(d: int, two_j: int) -> tuple[np.ndarray, ...]:
        structure = _structures.get(_spin_block, kind, two_j, n_max)
        diagonal = np.add.outer(
            params.Omega * structure.spin, params.omega0 * structure.fock
        ).ravel()
        values = np.concatenate([s * unit for s, unit in zip(scales, structure.units)])
        width = structure.number.shape[1]
        h = np.zeros((2, width, width))
        flat = h.reshape(-1)
        flat[structure.diagonal_at] = diagonal
        flat[structure.below_at] = values
        flat[structure.above_at] = values
        if diagonal.size % 2:
            # the largest absolute row sum bounds every level of the half
            h[1, -1, -1] = 2.0 * np.abs(h[1]).sum(axis=1).max()
        return h, structure.number, structure.size, np.array([d, d], dtype=float)

    return (pair(d, two_j) for d, two_j in _spin_multiplicities(n_atoms))


class _SpinBlock(NamedTuple):
    """Parameter-free structure of spin block 2j of a collective kind.

    Row a (n_max + 1) + n holds |m = a - j> x |n>; ``spin`` is m and
    ``fock`` n by factor.  ``units`` holds each coupling's
    sqrt((2j - a)(a + 1)) amp(n) on its coupled pairs of rows, couplings
    in turn.  The ``*_at`` arrays are flat positions in the (2, h, h)
    parity pair of the diagonal and of both orientations of each coupled
    pair; ``number`` and ``size`` are the pair's photon numbers and true
    half sizes.
    """

    spin: np.ndarray
    fock: np.ndarray
    units: tuple[np.ndarray, ...]
    diagonal_at: np.ndarray
    below_at: np.ndarray
    above_at: np.ndarray
    number: np.ndarray
    size: np.ndarray


def _spin_block(kind: HamiltonianKind, two_j: int, n_max: int) -> _SpinBlock:
    fock = np.arange(n_max + 1, dtype=float)
    a = np.arange(two_j + 1)
    # J+ |j, m> = sqrt((j - m)(j + m + 1)) |j, m + 1>, with j - m = 2j - a
    raising = np.sqrt((two_j - a[:-1]) * (a[:-1] + 1.0))
    sources, targets, units = [], [], []
    for shift, amplitude in _collective_ops(kind, n_max):
        n = np.flatnonzero(amplitude)
        source = (a[:-1, None] * fock.size + n).ravel()
        sources.append(source)
        targets.append(source + fock.size + shift)
        units.append(np.multiply.outer(raising, amplitude[n]).ravel())
    source, target = np.concatenate(sources), np.concatenate(targets)

    rows = (two_j + 1) * fock.size
    row_a, row_n = np.divmod(np.arange(rows), fock.size)
    parity = (row_a + row_n) % 2
    position = np.arange(rows) // 2
    width = (rows + 1) // 2
    # a coupling keeps the parity, so parity[source] = parity[target]
    half = parity[source] * width
    number = np.zeros((2, width))
    number[parity, position] = row_n
    return _SpinBlock(
        spin=a - 0.5 * two_j,
        fock=fock,
        units=tuple(units),
        diagonal_at=(parity * width + position) * width + position,
        below_at=(half + position[target]) * width + position[source],
        above_at=(half + position[source]) * width + position[target],
        number=number,
        size=np.array([width, rows - width]),
    )


def _collective_ops(
    kind: HamiltonianKind, n_max: int
) -> tuple[tuple[int, np.ndarray], ...]:
    """``(shift, amp)`` per coupling, g1 first: op |n> = amp[n] |n + shift>.

    amp is zero where n + shift leaves the truncated space.
    """
    if kind is HamiltonianKind.GENERALIZED_DICKE:
        root = np.sqrt(np.arange(n_max + 1, dtype=float))
        return (-1, root), (1, np.append(root[1:], 0.0))
    amplitude, step = _lowering_amplitude(kind, n_max)
    return ((-step, amplitude),)


def excitation_blocks(
    kind: HamiltonianKind,
    params: ModelParams,
    n_atoms: int,
    n_max: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Excitation-number blocks of every spin block as one stack ``(H, n, size, d)``.

    The g1 coupling of every kind in ``EXCITATION_KINDS`` takes |a, n> to
    |a + 1, n - s>, a = m + j, with the photon step s = 2 for
    TWO_PHOTON_JC and 1 otherwise, so it conserves K = s a + n.  The spin
    block of each j, repeated d_j times, holds |m = a - j> x |n> in row
    a (n_max + 1) + n (for a single-atom kind, N = 1, it is the whole
    space, whose basis order q (n_max + 1) + n is a (n_max + 1) + n); it
    is the block of ``parity_pairs`` for a collective kind.  It splits
    into one block per K = 0 .. s 2j + n_max, holding the rows
    a = max(0, ceil((K - n_max) / s)) .. min(K // s, 2j) in ascending
    order.  Each is tridiagonal:

        H[i, i] = Omega (a - j) + omega0 (K - s a)
        H[i, i + 1] = (g1 / sqrt(N)) sqrt((2j - a)(a + 1)) amp(K - s a)

    with amp(n) = sqrt(n) for DICKE_RWA and JAYNES_CUMMINGS, n for the two
    intensity-dependent kinds and sqrt(n (n - 1)) for TWO_PHOTON_JC,
    exactly as in ``build_hamiltonian``.  One stack for the whole
    truncation: the K-blocks of every j, j = N/2 first and K ascending
    within each j, padded to S = min(N, n_max // s) + 1 rows, so ``H``
    has shape (B, S, S) with B = sum_j (s 2j + n_max + 1).  ``n`` (shape
    (B, S)) holds each row's photon number, ``size`` each K-block's true
    row count and ``d`` the multiplicity d_j of its spin block.  ``n``,
    ``size`` and ``d`` are shared, read-only arrays of the structure
    cache; ``H`` is the caller's own.

    Rows ``i >= size[b]`` are padding: decoupled, photon number 0, and
    with a diagonal of twice a positive Gershgorin upper bound on every
    level of the stack, so every padded eigenvalue sorts after the
    block's physical ones.  A decoupled row stays exactly decoupled in
    ``eigh``, so its value does not enter the physical eigenpairs.  Drop
    padded eigenpairs by index (>= size), not by energy.

    Raises
    ------
    DimensionLimitError
        If the largest spin block, (N + 1)(n_max + 1), exceeds
        ``DIMENSION_LIMIT``, the same bound as ``parity_pairs``.
    ValueError
        For a kind outside ``EXCITATION_KINDS``, N < 1, n_max < 2, or a
        single-atom kind with N > 1.
    """
    if kind not in EXCITATION_KINDS:
        raise ValueError(f"{kind.value} has no excitation-number blocks")
    check_spin_block_size(kind, n_atoms, n_max)
    stack = _structures.get(_excitation_stack, kind, n_atoms, n_max)
    diagonal = params.Omega * stack.spin + params.omega0 * stack.number
    coupling = (params.g1 / sqrt(n_atoms)) * stack.units
    # every level lies below the largest diagonal entry plus twice the
    # largest coupling (Gershgorin), a bound that is positive: the top
    # row, a = 2j and n = n_max, has diagonal Omega j + omega0 n_max > 0
    bound = diagonal[stack.kept].max() + 2.0 * coupling.max()

    blocks, rows = stack.kept.shape
    h = np.zeros((blocks, rows, rows))
    flat = h.reshape(blocks, -1)
    flat[:, :: rows + 1] = np.where(stack.kept, diagonal, 2.0 * bound)
    flat[:, 1 :: rows + 1] = coupling
    flat[:, rows :: rows + 1] = coupling
    return h, stack.number, stack.size, stack.multiplicity


class _ExcitationStack(NamedTuple):
    """Parameter-free structure of the ``excitation_blocks`` stack.

    By K-block and row: ``spin`` a - j, ``number`` the photon number (0 on
    padding) and ``kept`` the physical rows; ``units`` holds
    sqrt((2j - a)(a + 1)) amp(n) between rows i and i + 1, zero where they
    are not both physical.  ``size`` and ``multiplicity`` are by K-block.
    """

    spin: np.ndarray
    number: np.ndarray
    kept: np.ndarray
    units: np.ndarray
    size: np.ndarray
    multiplicity: np.ndarray


def _excitation_stack(
    kind: HamiltonianKind, n_atoms: int, n_max: int
) -> _ExcitationStack:
    amplitude, step = _lowering_amplitude(kind, n_max)
    multiplicity, two_j = zip(*_spin_multiplicities(n_atoms))
    # block b holds K[b] of spin block two_j[b], K = 0 .. s 2j + n_max
    count = [step * t + n_max + 1 for t in two_j]
    multiplicity = np.repeat(np.array(multiplicity, dtype=float), count)
    two_j = np.repeat(two_j, count)[:, None]
    K = np.concatenate([np.arange(c) for c in count])[:, None]
    rows = min(n_atoms, n_max // step) + 1
    i = np.arange(rows)
    lowest = np.maximum(-((n_max - K) // step), 0)
    size = (np.minimum(K // step, two_j) - lowest + 1).ravel()
    a = lowest + i
    kept = i < size[:, None]
    n = np.where(kept, K - step * a, 0)
    # (a, n) -> (a + 1, n - s) couples rows i and i + 1 of one K-block;
    # the entries are computed only inside it, where 0 <= a < 2j and
    # s <= n <= n_max.
    pair = kept[:, 1:]
    below = a[:, :-1]
    raising = np.sqrt(((two_j - below) * (below + 1.0))[pair])
    units = np.zeros((K.size, rows - 1))
    units[pair] = raising * amplitude[n[:, :-1][pair]]
    return _ExcitationStack(
        spin=a - 0.5 * two_j,
        number=n.astype(float),
        kept=kept,
        units=units,
        size=size,
        multiplicity=multiplicity,
    )


class _StructureCache:
    """Least recently used block structures, at most ``STRUCTURE_CACHE_BYTES``.

    A structure depends only on its key, never on ``ModelParams``, so one
    entry serves every call; its arrays are made read-only when built.  A
    structure larger than the whole budget is built and not kept.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[NamedTuple, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, build: Callable[..., NamedTuple], *key) -> NamedTuple:
        key = (build, *key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        structure = build(*key[1:])
        arrays = [
            array
            for field in structure
            for array in (field if isinstance(field, tuple) else (field,))
        ]
        for array in arrays:
            array.flags.writeable = False
        nbytes = sum(array.nbytes for array in arrays)
        with self._lock:
            if nbytes <= STRUCTURE_CACHE_BYTES and key not in self._entries:
                while self.nbytes + nbytes > STRUCTURE_CACHE_BYTES:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    self.nbytes -= evicted
                self._entries[key] = structure, nbytes
                self.nbytes += nbytes
        return structure

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_structures = _StructureCache()


def _spin_multiplicities(n_atoms: int) -> Iterator[tuple[int, int]]:
    """``(d_j, 2j)`` for j = N/2, N/2 - 1, ..., down to 0 or 1/2."""
    for k in range(n_atoms // 2 + 1):
        yield comb(n_atoms, k) - (comb(n_atoms, k - 1) if k else 0), n_atoms - 2 * k


def _lowering_amplitude(kind: HamiltonianKind, n_max: int) -> tuple[np.ndarray, int]:
    """``(amp, s)`` with op |n> = amp[n] |n - s> for the g1 coupling of ``kind``."""
    root = np.sqrt(np.arange(n_max + 1, dtype=float))
    if kind in (HamiltonianKind.INTENSITY_DICKE, HamiltonianKind.INTENSITY_JC):
        # b (b'b)^(1/2) |n> = sqrt(n) sqrt(n) |n - 1>, as in build_hamiltonian
        return root * root, 1
    if kind is HamiltonianKind.TWO_PHOTON_JC:
        # b^2 |n> = sqrt(n - 1) sqrt(n) |n - 2>
        return np.concatenate(([0.0, 0.0], root[1:-1] * root[2:])), 2
    return root, 1
