"""Independent oracles for the test suite.

Each helper re-derives a quantity through a route different from the
package implementation (different formula, different root-finder), so
agreement between the two is evidence rather than tautology.
``phase_point`` and ``classify_phase`` evaluate one node by the scalar
closed forms, the per-node reference for the array ``phase_scan``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import zeta

from dicketherm.fermionization import _physical_diagonal
from dicketherm.matsubara import a0_c0_sum, bosonic_frequency, continue_kernels
from dicketherm.operators import COUPLINGS, HamiltonianKind, ModelParams
from dicketherm.thermo import (
    CRITICAL_PHASE_TOL,
    convergence_bound,
    critical_beta,
    order_parameter,
)


def taken_by(kind: HamiltonianKind, params: ModelParams) -> ModelParams:
    """``params`` as ``kind`` takes them: g2 set to 0 for a kind of one
    coupling, whose builders refuse a nonzero g2."""
    if len(COUPLINGS[kind]) == 2:
        return params
    return dataclasses.replace(params, g2=0.0)


def couplings_taken_by(kind: HamiltonianKind, pairs):
    """The (g1, g2) pairs that ``kind`` takes: every pair for two
    couplings, the pairs at g2 = 0 for one."""
    return [(g1, g2) for g1, g2 in pairs if len(COUPLINGS[kind]) == 2 or not g2]


def bisect_root(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Plain bisection; assumes f(lo) and f(hi) have opposite signs."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def finite_sum_critical_beta(params: ModelParams) -> float:
    """Root in beta of the finite-sum bound a0(0) + 2 c0(0) = 1.

    Independent of the closed-form ``thermo.critical_beta``: the bound
    comes from ``a0_c0_sum`` and the root from Brent's method.  The bound
    is evaluated once per beta: the doubling search's last two values
    bracket the root and feed Brent's first step.  Raises RuntimeError
    when the bound stays below one up to beta = 1e9.
    """
    # kept for this call only: each root solve evaluates its own bound
    values: dict[float, float] = {}

    def bound_minus_one(beta: float) -> float:
        if beta not in values:
            kv = a0_c0_sum(0, params, beta)
            values[beta] = kv.a + 2.0 * kv.c - 1.0
        return values[beta]

    hi = 1.0
    while bound_minus_one(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("no finite-sum transition found")
    lo = hi / 2.0 if hi > 1.0 else 1e-9
    return float(optimize.brentq(bound_minus_one, lo, hi, xtol=1e-13))


@dataclass(frozen=True)
class PhasePoint:
    """Classified thermodynamic state at one (params, beta) node.

    ``rho`` is photons per atom; positive exactly in the superradiant
    phase.
    """

    params: ModelParams
    beta: float
    bound: float
    phase: str
    beta_c: float | None
    rho: float


def _phase_label(bound: float) -> str:
    if abs(bound - 1.0) < CRITICAL_PHASE_TOL:
        return "critical"
    return "normal" if bound < 1.0 else "superradiant"


def classify_phase(params: ModelParams, beta: float) -> str:
    return _phase_label(convergence_bound(params, beta))


def phase_point(params: ModelParams, beta: float) -> PhasePoint:
    """Evaluate one grid node by the scalar routes, the reference for
    ``phase_scan``: bound, label, beta_c, order parameter."""
    bound = convergence_bound(params, beta)
    phase = _phase_label(bound)
    rho = order_parameter(params, beta) if phase == "superradiant" else 0.0
    return PhasePoint(
        params=params,
        beta=beta,
        bound=bound,
        phase=phase,
        beta_c=critical_beta(params),
        rho=rho,
    )


def gap_order_parameter(params, beta: float) -> float:
    """Order parameter from the resummed gap equation.

    Resumming the static Matsubara product turns the saddle condition into
    (g1+g2)^2 tanh(beta*Delta/4) = Delta*omega0 for an effective gap
    Delta > Omega, with photons per atom (Delta^2 - Omega^2)/(4(g1+g2)^2).
    Solved by bisection, independent of the package's numeric-sum route.
    """
    gsum = params.g1 + params.g2
    if gsum <= 0.0:
        return 0.0

    def balance(delta: float) -> float:
        return gsum**2 * math.tanh(beta * delta / 4.0) - delta * params.omega0

    if balance(params.Omega) <= 0.0:
        return 0.0
    hi = max(params.Omega, 1.0)
    while balance(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("gap equation bracket not found")
    delta = bisect_root(balance, params.Omega, hi)
    return (delta**2 - params.Omega**2) / (4.0 * gsum**2)


def bose_occupation(beta: float, omega0: float, n_max: int) -> float:
    """Truncated free-boson occupation by direct geometric sums."""
    weights = [math.exp(-beta * omega0 * n) for n in range(n_max + 1)]
    return sum(n * w for n, w in enumerate(weights)) / sum(weights)


def matsubara_log_partition_ratio(params, beta: float, terms: int = 400) -> float:
    """ln(Z/Z0) as the bosonic Matsubara sum of kernel determinants.

    Static term -1/2 ln[(1 - a(0))^2 - 4 c(0)^2] minus the sum over n >= 1
    of ln[(1 - a(w_n))(1 - a(-w_n)) - 4 c(w_n)^2], each term built from the
    closed-form kernels at z = i w_n (``continue_kernels``) rather than from
    the quadratic's coefficients.  The terms decay as an even power series
    in 1/n; the first three coefficients are fitted to the upper half of
    the summed terms and the rest of the series is added with Hurwitz zeta
    values.
    """
    a0, _, c0 = continue_kernels(0j, params, beta)
    static = -0.5 * math.log((1.0 - a0.real) ** 2 - 4.0 * c0.real**2)
    logs = np.empty(terms)
    for n in range(1, terms + 1):
        z = 1j * bosonic_frequency(n, beta)
        a_plus, a_minus, c = continue_kernels(z, params, beta)
        pair = (1.0 - a_plus) * (1.0 - a_minus)
        logs[n - 1] = math.log(pair.real - 4.0 * c.real**2)
    ns = np.arange(terms // 2, terms + 1, dtype=float)
    powers = (2, 4, 6)
    design = np.column_stack([(terms / ns) ** p for p in powers])
    coef, *_ = np.linalg.lstsq(design, logs[terms // 2 - 1 :], rcond=None)
    tail = sum(
        c * terms**p * zeta(p, terms + 1.0) for c, p in zip(coef, powers)
    )
    return static - (float(np.sum(logs)) + tail)


def kron_spin_blocks(kind, params, n_atoms: int, n_max: int):
    """Total-spin blocks ``(d_j, H_j)`` assembled from dense Kronecker products.

    The reference construction for the spin blocks of the collective
    kinds, which ``operators.block_stacks`` splits by the label each kind
    conserves: ``omega0 n + Omega m + (g / sqrt(N)) (J+ x op + h.c.)`` on
    |m> x |n>, with J+ and op as full matrices and the diagonal through
    ``np.diag``.
    """
    fock = np.arange(n_max + 1, dtype=float)
    lower = np.diag(np.sqrt(fock[1:]), k=1)
    if kind is HamiltonianKind.GENERALIZED_DICKE:
        couplings = ((params.g1, lower), (params.g2, lower.T))
    elif kind is HamiltonianKind.DICKE_RWA:
        couplings = ((params.g1, lower),)
    else:
        couplings = ((params.g1, lower * np.sqrt(fock)),)
    blocks = []
    for k in range(n_atoms // 2 + 1):
        two_j = n_atoms - 2 * k
        m = np.arange(two_j + 1) - 0.5 * two_j
        j, below = 0.5 * two_j, m[:-1]
        raising = np.diag(np.sqrt((j - below) * (j + below + 1.0)), k=-1)
        h = np.diag(np.add.outer(params.Omega * m, params.omega0 * fock).ravel())
        for g, op in couplings:
            term = (g / np.sqrt(n_atoms)) * np.kron(raising, op)
            h += term + term.T
        multiplicity = math.comb(n_atoms, k) - (math.comb(n_atoms, k - 1) if k else 0)
        blocks.append((multiplicity, h))
    return blocks


def parity_halves(block, n_max: int):
    """Even and odd halves ``(H_p, n_p)`` of a spin block, rows |m> x |n>.

    The reference for the parity pairs of ``operators.block_stacks``:
    the block restricted to the rows of parity (a + n) mod 2 = p,
    a = m + j, by fancy indexing, and the photon number of each of those
    rows.
    """
    a, n = np.divmod(np.arange(block.shape[0]), n_max + 1)
    even = (a + n) % 2 == 0
    photons = n.astype(float)
    return tuple(
        (block[rows[:, None], rows], photons[rows])
        for rows in (np.flatnonzero(even), np.flatnonzero(~even))
    )


def join_blocks(kind, params, stacks, n_atoms: int, n_max: int):
    """The spin blocks ``(d_j, H_j)`` whose split into blocks is ``stacks``.

    The inverse of ``operators.block_stacks`` by filtering, not by its
    closed forms: the rows |m> x |n> of spin block j, a = m + j, carry
    the label that the couplings of nonzero g conserve, the parity
    (a + n) mod 2 for generalized Dicke with both, L = (2j - a) + n for
    generalized Dicke with g2 alone, and K = s a + n otherwise, and the
    blocks of the stacks, in order, hold the rows of each label in
    ascending label and row order, j = N/2 first.  Each block, without
    its padding, goes back to those rows, entries copied as they are;
    every entry between labels is zero.
    """
    step = 2 if kind is HamiltonianKind.TWO_PHOTON_JC else 1
    dicke = kind is HamiltonianKind.GENERALIZED_DICKE
    blocks = iter(
        [block for stacked, _, size, d in stacks for block in zip(stacked, size, d)]
    )
    joined = []
    for two_j in range(n_atoms, -1, -2):
        a, n = np.divmod(np.arange((two_j + 1) * (n_max + 1)), n_max + 1)
        if dicke and params.g1 != 0.0 and params.g2 != 0.0:
            label = (a + n) % 2
        elif dicke and params.g2 != 0.0:
            label = (two_j - a) + n
        else:
            label = step * a + n
        h = np.zeros((a.size, a.size))
        for value in range(label.max() + 1):
            block, size, d = next(blocks)
            rows = np.flatnonzero(label == value)
            assert size == rows.size
            h[rows[:, None], rows] = block[:size, :size]
        joined.append((d, h))
    assert next(blocks, None) is None
    return joined


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


def kron_fermion_dicke(params, n_atoms: int, n_max: int) -> np.ndarray:
    """The reference for ``fermionization.build_fermion_dicke``.

    The fermionized Hamiltonian as a complex matrix of Kronecker products
    of Jordan-Wigner strings and Fock operators: sz -> alpha'alpha -
    beta'beta and s+ -> alpha'beta per site, with omega0 b'b formed as a
    matrix product.
    """
    annihilator = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    ns = np.arange(1, n_max + 1)
    annihilator[ns - 1, ns] = np.sqrt(ns)
    creator = annihilator.conj().T
    number = creator @ annihilator
    eye_f = np.eye(4**n_atoms, dtype=complex)
    eye_b = np.eye(n_max + 1, dtype=complex)

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
    return hamiltonian


def physical_projector_diagonal(n_atoms: int, n_max: int) -> np.ndarray:
    """Diagonal of the 0/1 projector onto per-site occupancy n_alpha + n_beta = 1.

    Idempotent with rank 2^N * (n_max + 1) on the composite space.
    """
    return np.repeat(_physical_diagonal(n_atoms), n_max + 1)


def parity_diagonal(n_atoms: int, n_max: int) -> np.ndarray:
    """Diagonal of the parity exp[i pi (b'b + sum_j (sz_j + 1)/2)], +-1.

    Unitary and involutive; commutes with every kind whose interaction
    changes the total excitation number by an even amount, in particular
    the generalized Dicke builder at any couplings.
    """
    return 1.0 - 2.0 * (excitation_diagonal(n_atoms, n_max) % 2.0)


def excitation_diagonal(n_atoms: int, n_max: int) -> np.ndarray:
    """Diagonal of b'b + sum_j (sz_j + 1)/2 in the composite basis."""
    dim_b = n_max + 1
    qubit_counts = np.array(
        [bin(q).count("1") for q in range(2**n_atoms)], dtype=float
    )
    fock = np.arange(dim_b, dtype=float)
    return (qubit_counts[:, None] + fock[None, :]).ravel()


def photon_number_diagonal(n_atoms: int, n_max: int) -> np.ndarray:
    """Diagonal of b'b on the composite space (identity on the register)."""
    return np.tile(np.arange(n_max + 1, dtype=float), 2**n_atoms)
