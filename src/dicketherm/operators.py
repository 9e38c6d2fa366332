"""Hamiltonians of the qubit-boson family on truncated Fock spaces.

This module builds the single-mode Hamiltonians handled by the package:
the generalized Dicke model with separate rotating and counter-rotating
couplings, its rotating-wave restriction, the Jaynes-Cummings model and
its two-photon and intensity-dependent variants.  The dense builder,
``build_hamiltonian``, writes the real 2^N (n_max + 1) matrix from
Kronecker products into a ``HermitianOperator``, which holds real
matrices only; with ``exact_diag.thermal_solve`` it is the small-N
oracle.  The production solvers run on blocks of one total spin j,
(2j + 1)(n_max + 1) rows in the order |m> x |n>, and one builder,
``block_stacks``, writes them for every kind, split by the label the
acting couplings conserve: of the kind's ``COUPLINGS``, those whose g is
not 0.  A single-atom kind is the N = 1 case, whose one spin block is
the whole space.  Each stack comes with each row's photon number, each
block's true size and each block's multiplicity, and short blocks are
padded with decoupled rows that sort last.  Every builder refuses,
before building anything, a nonzero g2 for a kind of one coupling
(``check_couplings``), and a matrix of more than ``DIMENSION_LIMIT``
rows, ``block_stacks`` counting the full spin block, (N + 1)(n_max + 1)
rows, and the dense builder 2^N (n_max + 1) without forming 2^N;
``block_stacks`` also refuses an N whose thermal sums would leave the
float range (N >= 1022 at n_max = 2).

``block_stacks`` splits its work in two.  What does not depend on
``ModelParams`` is built once per (acting operators, 2j values, n_max)
and cached: each row's place in the stack, its m and photon number, and
the unit amplitudes of the coupled pairs of rows with their flat
positions, so generalized Dicke at g2 = 0, dicke-rwa and, at N = 1,
Jaynes-Cummings share one.  A call checks the couplings and the sizes,
then only scales these read-only templates by omega0, Omega and
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

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from math import comb, inf, sqrt
from typing import Iterator, NamedTuple

import numpy as np

__all__ = [
    "COUPLINGS",
    "DIMENSION_LIMIT",
    "DimensionLimitError",
    "HamiltonianKind",
    "HermitianOperator",
    "ModelParams",
    "NotHermitianError",
    "PhotonOperator",
    "SINGLE_ATOM_KINDS",
    "block_stacks",
    "build_hamiltonian",
    "check_beta",
    "check_couplings",
    "check_positive",
    "check_spin_block_size",
]

HERMITICITY_TOL = 1e-12

# Dense eigensolves above this size stop being desk-scale; the crossover
# study at eight atoms needs 2^8 * 17 = 4352.  The builders and
# exact_diag.thermal_solve read it at call time.
DIMENSION_LIMIT = 6000

# Bytes the cache of parameter-free block structures may hold in all.  The
# largest structure of a ladder rung (n_max = 8, 16, ...) under
# DIMENSION_LIMIT, the dicke-rwa stack at N = 665 and n_max = 8, holds
# 30.2 MiB; a spin block's at most 0.3 MiB.  Off the ladder, n_max < 8
# allows larger ones, which are built and not kept.
STRUCTURE_CACHE_BYTES = 32 * 2**20


class DimensionLimitError(ValueError):
    """Requested matrix or spin block exceeds ``DIMENSION_LIMIT`` rows,
    or the spin blocks' multiplicities exceed the float range."""


class NotHermitianError(ValueError):
    """Matrix failed the elementwise hermiticity check."""


def check_positive(name: str, value: float | np.ndarray) -> None:
    """Refuse a value, or an array holding one, that is not positive and finite."""
    # each comparison is False for NaN as well
    if isinstance(value, float):
        ok = 0.0 < value < inf
    else:
        values = np.asarray(value, dtype=float)
        ok = bool(np.all((values > 0.0) & (values < inf)))
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_beta(beta: float | np.ndarray) -> None:
    """Refuse a beta, or an array holding one, that is not positive and finite."""
    check_positive("beta", beta)


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


class PhotonOperator(NamedTuple):
    """A coupling's operator on the photons, op |n> = amp(n) |n + shift>.

    amp(n) is the product of sqrt(n + k) over ``roots``, so it grows like
    n^(len(roots) / 2), and it is 0 where n + shift leaves 0 .. n_max.
    """

    shift: int
    roots: tuple[int, ...]

    def amplitudes(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1.0)
        amp = np.prod([np.sqrt(np.maximum(n + k, 0.0)) for k in self.roots], axis=0)
        return np.where((n + self.shift >= 0) & (n + self.shift <= n_max), amp, 0.0)


# b, b', b (b'b)^(1/2) and b^2
_B = PhotonOperator(-1, (0,))
_B_DAG = PhotonOperator(1, (1,))
_B_SQRT_N = PhotonOperator(-1, (0, 0))
_B_SQUARED = PhotonOperator(-2, (0, -1))

# Each kind's couplings, g1's first and g2's second, by the operator op of
# each term (g / sqrt(N)) (J+ x op + h.c.); build_hamiltonian writes the
# same operators from matrices of its own.
COUPLINGS = {
    HamiltonianKind.GENERALIZED_DICKE: (_B, _B_DAG),
    HamiltonianKind.DICKE_RWA: (_B,),
    HamiltonianKind.JAYNES_CUMMINGS: (_B,),
    HamiltonianKind.TWO_PHOTON_JC: (_B_SQUARED,),
    HamiltonianKind.INTENSITY_JC: (_B_SQRT_N,),
    HamiltonianKind.INTENSITY_DICKE: (_B_SQRT_N,),
}


def check_couplings(params: ModelParams, kind: HamiltonianKind) -> None:
    """Refuse a nonzero g2 for a kind of one coupling, which would ignore it."""
    if len(COUPLINGS[kind]) == 1 and params.g2 != 0.0:
        raise ValueError(f"{kind.value} has one coupling, g1, and takes no nonzero g2")


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
    Under it, the thermal sums must stay floats: they weight the 2^N
    (n_max + 1) states of the blocks by d_j, each Boltzmann factor at most
    1 and each photon number at most n_max, so 2^N (n_max + 1) n_max
    must not pass the largest float.  That refuses N >= 1022 at n_max = 2,
    before the largest d_j itself leaves the float range at N = 1035.
    """
    _check_size(kind, n_atoms, n_max, n_atoms + 1)
    # exact integers; the shift runs only for N below the row ceiling
    if (n_max + 1) * n_max << n_atoms > sys.float_info.max:
        raise DimensionLimitError(
            f"spin multiplicities of N={n_atoms} atoms leave the float range: "
            f"the thermal sums weight 2^{n_atoms} x {n_max + 1} states by d_j, "
            f"past the largest float (N={n_atoms}, n_max={n_max})"
        )


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

    Single-coupling kinds read ``params.g1`` and refuse a nonzero ``g2``
    (``check_couplings``), before anything is built.  The
    intensity-dependent lowering factor is the adjoint pair
    ``b (b'b)^(1/2)`` / its conjugate transpose, which keeps the result
    self-adjoint on the truncated space.  The matrix is real (float64),
    in the basis of the module docstring.

    Raises
    ------
    DimensionLimitError
        If 2^N * (n_max + 1) exceeds ``DIMENSION_LIMIT``.
    ValueError
        For a nonzero g2 of a single-coupling kind, N < 1, n_max < 2, or
        a single-atom kind with N > 1.
    """
    check_couplings(params, kind)
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


def block_stacks(
    kind: HamiltonianKind,
    params: ModelParams,
    n_atoms: int,
    n_max: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Spin blocks of ``kind`` as stacks, split by the label the acting couplings conserve.

    Every Hamiltonian of the family commutes with J^2, so on the 2^N
    register it splits into spin blocks |j, m> x Fock, j = N/2,
    N/2 - 1, ..., down to 0 or 1/2, each repeated
    ``d_j = C(N, N/2 - j) - C(N, N/2 - j - 1)`` times (Shammah et al.,
    PRA 98, 063815, 2018); a single-atom kind is the N = 1 case, whose
    one spin block is the whole space.  Row a (n_max + 1) + n of block j
    holds |m = a - j> x |n>, and the block is the real symmetric matrix

        omega0 n + Omega m + sum (g / sqrt(N)) (J+ x op + h.c.)

    over the acting couplings: the kind's ``COUPLINGS`` whose g is not 0,
    or its first at g = 0 if no g is.  The block is exactly that of
    ``build_hamiltonian``, whose spectrum is the union of the blocks'
    spectra with multiplicities d_j.  Each spin block splits further by
    the label the acting couplings conserve, a = m + j:

    - two: the parity (a + n) mod 2, as each moves a and n together or
      oppositely by one;
    - one, op |n> ~ |n + shift>: n - shift a, which J+ x op keeps, offset
      by 2j for a positive shift.  That is K = a + n for b and
      b (b'b)^(1/2), 2a + n for b^2 and L = (2j - a) + n for b', and each
      such block is tridiagonal.

    A block holds the rows of its label in their order in the spin
    block.  Each item is one stack ``(H, n, size, d)``: ``H`` of shape
    (B, S, S) holds B blocks padded to the widest, ``n`` (shape (B, S))
    each row's photon number, ``size`` each block's true row count and
    ``d`` its multiplicity d_j.  Two couplings yield one parity pair per
    j, j = N/2 first, built lazily: B = 2, S = ceil((2j + 1)(n_max + 1)
    / 2).  One coupling yields one stack of the blocks of every j, j = N/2
    first and the label ascending within each j, S = min(N, n_max // s)
    + 1 for a photon step s = |shift|.  The arguments are checked on the
    call.  ``n`` and ``size`` are shared, read-only arrays of the
    structure cache; ``H`` and ``d`` are the caller's own.

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
        ``DIMENSION_LIMIT``, or the thermal sums over the blocks would
        leave the float range (``check_spin_block_size``).
    ValueError
        For a nonzero g2 of a single-coupling kind (``check_couplings``),
        N < 1, n_max < 2, or a single-atom kind with N > 1.
    """
    check_couplings(params, kind)
    check_spin_block_size(kind, n_atoms, n_max)
    multiplicities, two_js = zip(*_spin_multiplicities(n_atoms))
    d = np.array(multiplicities, dtype=float)
    ops = COUPLINGS[kind]
    gs = (params.g1, params.g2)[: len(ops)]
    if 0.0 in gs:
        # the acting couplings: those whose g is not 0, or the kind's first at 0
        gs, ops = zip(*([(g, op) for g, op in zip(gs, ops) if g != 0.0] or [(0.0, ops[0])]))
    # the grouping rule: a parity pair per spin block, or one stack of all
    groups = [slice(None)] if len(ops) == 1 else [slice(i, i + 1) for i in range(len(two_js))]
    root = sqrt(n_atoms)
    scales = np.array([[g / root] for g in gs])
    # Gershgorin: a row's diagonal is at most Omega N/2 + omega0 n_max,
    # and it holds at most two entries of each acting coupling, each at
    # most (g / sqrt(N)) (N + 1)/2 n_max, as J+ is at most (N + 1)/2 and
    # every op at most n_max.  The bound is positive; where twice it
    # leaves the float range, the largest float still pads above every
    # finite level.
    bound = (
        params.Omega * n_atoms / 2
        + params.omega0 * n_max
        + sum(gs) * (n_atoms + 1) * n_max / root
    )
    padding = min(2.0 * bound, sys.float_info.max)
    return (
        _stack(_structures.get(ops, two_js[at], n_max), params, scales, padding, d[at])
        for at in groups
    )


def _stack(
    structure: _Blocks,
    params: ModelParams,
    scales: np.ndarray,
    padding: float,
    multiplicities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scale and write one stack, given its padding diagonal and spin blocks' d_j."""
    blocks, width = structure.number.shape
    h = np.zeros((blocks, width, width))
    h.reshape(blocks, -1)[:, :: width + 1] = (
        params.Omega * structure.spin + params.omega0 * structure.number
    )
    flat = h.reshape(-1)
    # indexing by intp is faster than by the stored int32
    flat[structure.coupled_at.astype(np.intp)] = scales * structure.units
    flat[structure.padding_at] = padding
    return h, structure.number, structure.size, multiplicities.repeat(structure.counts)


class _Blocks(NamedTuple):
    """Parameter-free structure of one stack of ``block_stacks``.

    By block and row of the stack: ``spin`` is m and ``number`` the
    photon number, both 0 on padding.  ``units`` holds, one row per
    acting coupling, g1 first, sqrt((2j - a)(a + 1)) amp(n) of each
    coupled pair of rows, and ``coupled_at`` its flat positions in the
    (B, S, S) stack, below the diagonal and above it; ``padding_at``
    holds those of the padding rows' diagonal.  ``size`` is each block's true row
    count and ``counts`` the number of blocks of each spin block.
    """

    spin: np.ndarray
    number: np.ndarray
    units: np.ndarray
    coupled_at: np.ndarray
    padding_at: np.ndarray
    size: np.ndarray
    counts: np.ndarray


def _blocks(
    ops: tuple[PhotonOperator, ...], two_js: tuple[int, ...], n_max: int
) -> _Blocks:
    levels = n_max + 1
    two_j = np.array(two_js)
    spin_rows = (two_j + 1) * levels
    # each row's spin block and its row a (n_max + 1) + n there
    two_j = np.repeat(two_j, spin_rows)
    row = np.arange(two_j.size) - np.repeat(np.cumsum(spin_rows) - spin_rows, spin_rows)
    a, n = np.divmod(row, levels)
    # each row's label and the number of labels of each spin block
    if len(ops) == 2:
        label = (a + n) % 2
        counts = np.full(len(two_js), 2)
    else:
        ((shift, _),) = ops
        label = n - shift * a + (two_j if shift > 0 else 0)
        counts = abs(shift) * np.array(two_js) + levels
    block = np.repeat(np.cumsum(counts) - counts, spin_rows) + label
    size = np.bincount(block, minlength=counts.sum())
    # each row's rank among the rows of its block, in row order
    order = np.argsort(block, kind="stable")
    rank = np.empty_like(block)
    rank[order] = np.arange(block.size) - np.repeat(np.cumsum(size) - size, size)
    width = int(rank.max()) + 1
    cell = block * width + rank
    spin = np.zeros((counts.sum(), width))
    spin.flat[cell] = a - 0.5 * two_j
    number = np.zeros_like(spin)
    number.flat[cell] = n
    padding = np.ones(spin.size, dtype=bool)
    padding[cell] = False
    padding_at = np.flatnonzero(padding)

    # J+ x op takes row (a, n) to (a + 1, n + shift), the same label
    units, below_at, above_at = [], [], []
    raising = np.sqrt((two_j - a) * (a + 1.0))
    for op in ops:
        amplitude = op.amplitudes(n_max)
        source = np.flatnonzero((a < two_j) & (amplitude[n] != 0.0))
        target = source + levels + op.shift
        units.append(raising[source] * amplitude[n[source]])
        below_at.append(cell[target] * width + rank[source])
        above_at.append(cell[source] * width + rank[target])
    # int32 keeps the largest structures within STRUCTURE_CACHE_BYTES; every
    # flat position of a stack under DIMENSION_LIMIT fits it
    return _Blocks(
        spin=spin,
        number=number,
        units=np.array(units),
        coupled_at=np.array([below_at, above_at], dtype=np.int32),
        padding_at=padding_at * width + padding_at % width,
        size=size,
        counts=counts,
    )


class _StructureCache:
    """Least recently used block structures, at most ``STRUCTURE_CACHE_BYTES``.

    Keyed by (acting operators, two_js, n_max).  A structure depends only
    on its key, never on ``ModelParams``, so one entry serves every call;
    its arrays are made read-only when built.  A structure larger than the
    whole budget is built and not kept.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[_Blocks, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, *key) -> _Blocks:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        structure = _blocks(*key)
        for array in structure:
            array.flags.writeable = False
        nbytes = sum(array.nbytes for array in structure)
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
