"""Matsubara frequency sums and kernels: the oracles of the closed forms.

No closed form depends on this module; ``validate`` and the tests use
it.  ``continue_kernels`` is the package's one closed form of the
kernels a and c, at a complex energy z: z = i omega_k on the Matsubara
axis, z = E on the real axis.  With the finite-sum route it checks what
``dicketherm.thermo`` and ``dicketherm.spectrum`` compute in closed
form.  The kernel-determinant quadratic, its roots and the thermal
factor live in ``thermo``, the kernel-pole guard in ``spectrum``, and
this module imports them from there.  The finite-sum route evaluates
the pair sums over fermionic frequencies (a0, c0) by direct truncation
plus an integral tail with a midpoint Euler-Maclaurin correction, and
reports the Richardson extrapolant over cutoffs (M, 2M); ``validate``
and the tests use it as the independent check, ``validate`` against
``thermo.convergence_bound``, the closed form of a0(0) + 2 c0(0), and
by the sign of a0(0) + 2 c0(0) - 1 on either side of the closed-form
beta_c.  The two cutoff levels share one evaluation of the summand over
the 2M window, and their tails one Gauss-Legendre evaluation.

Both sums evaluate many nodes in one array pass: ``a0_c0_sum`` takes a
``ModelParams`` or a ``thermo.ParamGrid`` and a float or array beta,
``fermionic_lorentzian_sum`` a float or array mass and beta, and each
node takes one row of terms that sums on its own.  Every square is a
product on both routes (Python's ``x**2`` is libm ``pow``, which can
differ from a product in the last bit: in about one double in 1200
with glibc), so each entry is bitwise the call at that node alone.
``validate`` evaluates its nine finite-sum nodes in one call.  Every
sum refuses a beta that is not positive and finite, and the
single-pole sum a mass likewise; the closed form ``continue_kernels``
refuses a NaN or non-positive beta and accepts beta = inf, the
zero-temperature limit, as ``thermo`` does.

The pair-sum tail integral is a fixed 32-node Gauss-Legendre rule after
the map q = edge + R (1 + t) / (1 - t), t in [-1, 1), R = hypot(edge, m).
The map sends the integrand's branch points (q = +-i m, -omega +- i m)
at least distance 1 from [-1, 1] while omega <= 2 edge.  The rule stays
within 2e-15 (relative) of 30-digit values over beta in [0.01, 1000],
Omega in [0.01, 300], cutoffs 10 to 1024 and k from 0 to 2 x cutoff,
for about 15 us a tail.  It replaced scipy's adaptive ``quad``, which at
the fine cutoff 1024 lost the whole tail for beta <= 0.1 (relative error
1.0002, with an IntegrationWarning): a0 + 2 c0 at omega = 0 then missed
the closed form by 2e-4 at beta = 0.05 and 0.1.  The naive map
u = edge / q is not safe either: with the same 32 nodes it is off by
48% at cutoff 10, beta = 1000, Omega = 300.  The module does not
import scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from dicketherm.operators import ModelParams, check_beta, check_positive
from dicketherm.spectrum import PoleProximityError, default_pole_epsilon
from dicketherm.thermo import ParamGrid, _value, tanh_factor

__all__ = [
    "DEFAULT_CUTOFF",
    "KernelValue",
    "a0_c0_sum",
    "bosonic_frequency",
    "continue_kernels",
    "fermionic_lorentzian_sum",
]

DEFAULT_CUTOFF = 512


@functools.cache
def _tail_rule() -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of ``_pair_tail_integral``, built on first
    use: only ``validate`` and the tests evaluate the paired tail, and
    ``numpy.polynomial`` is slow to import.

    With the integrand's branch points at least distance 1 from [-1, 1],
    the error of n nodes falls like (1 + sqrt 2)^(-2n), far below
    rounding at n = 32.  Per unit R: the map's stretch (1 + t) / (1 - t),
    and each node's weight times the map's jacobian 2 / (1 - t)^2.  The
    arrays are read-only, as every caller shares them.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(32)
    rule = (1.0 + nodes) / (1.0 - nodes), 2.0 * weights / (1.0 - nodes) ** 2
    for array in rule:
        array.flags.writeable = False
    return rule


# After the midpoint tail correction the truncation error decays as the
# fifth power of the cutoff (observed 5.00 over M = 32..256 for both the
# single-pole and paired sums); Richardson over (M, 2M) assumes that power.
_RICHARDSON_POWER = 5


def bosonic_frequency(n: int, beta: float) -> float:
    return 2.0 * np.pi * n / beta


@dataclass(frozen=True)
class KernelValue:
    """Finite-sum kernels (a0, c0) and their cutoff-doubling spread.

    Each field is a float for a call at one node, and an array of the
    nodes' broadcast shape for a call at many.  ``==`` compares the float
    form (a and c); array fields are compared with numpy.
    """

    a: float | np.ndarray
    c: float | np.ndarray
    tail_estimate: float | np.ndarray = field(default=0.0, compare=False)


def _lorentzian_tail(edge, m, beta):
    """Sum over fermionic frequencies beyond ``edge`` of 1/(p^2 + m^2).

    Midpoint geometry: the frequencies are centers of cells of width
    h = 2 pi / beta, so the one-sided tail is the integral from the edge
    plus the outward h/24 derivative term.  Elementwise in all three.
    """
    h = 2.0 * np.pi / beta
    integral = (np.pi / 2.0 - np.arctan(edge / m)) / m
    derivative = -2.0 * edge / (edge**2 + m**2) ** 2
    return integral / h + (h / 24.0) * derivative


def _pair_summand(q: np.ndarray, m, omega) -> np.ndarray:
    """[(m^2 + q^2)(m^2 + (q + omega)^2)]^(-1/2), elementwise, written over q.

    ``q`` is a float array of the broadcast shape of all three, which the
    summand overwrites and returns; ``m`` and ``omega`` are floats or
    arrays that broadcast into it.  Every square is a product, so a float
    and an array give the same bits.  At omega = 0 the two factors are
    the same bits (q + 0 is q), so one serves for both; otherwise the far
    factor takes the one temporary of q's shape.
    """
    m2 = m * m
    far = q + omega if np.any(omega) else q
    q *= q
    q += m2
    if far is not q:
        far *= far
        far += m2
    q *= far
    np.sqrt(q, out=q)
    return np.divide(1.0, q, out=q)


def _pair_tail_integral(edge, m, omega):
    """Integral of the pair summand over q in [edge, inf).

    Mapped to t in [-1, 1) by q = edge + R (1 + t) / (1 - t) with
    R = hypot(edge, m).  The integrand decays like 1/q^2, so the mapped
    integrand stays finite at t = 1, and its branch points at q = +-i m
    and q = -omega +- i m land at least distance 1 from [-1, 1].
    ``edge`` is a float or an array; ``m`` and ``omega`` are floats or
    arrays that broadcast against it.  The nodes of all edges are
    evaluated together, and each edge's rule sums on its own.
    """
    edges = np.asarray(edge, dtype=float)[..., None]
    m, omega = (np.asarray(x, dtype=float)[..., None] for x in (m, omega))
    radius = np.hypot(edges, m)
    stretch, mapped_weights = _tail_rule()
    q = edges + radius * stretch
    integral = np.sum(mapped_weights * _pair_summand(q, m, omega), axis=-1)
    return radius[..., 0] * integral


def _fermionic_frequencies(low: int, high: int, beta):
    """p_n = (2n + 1) pi / beta for n in [low, high), along the last axis."""
    return np.arange(2 * low + 1, 2 * high, 2.0) * (np.pi / beta)


def _richardson(coarse: float, fine: float) -> float:
    weight = 2.0**_RICHARDSON_POWER
    return (weight * fine - coarse) / (weight - 1.0)


def fermionic_lorentzian_sum(
    m: float | np.ndarray, beta: float | np.ndarray
) -> float | np.ndarray:
    """Sum of 1/(p_n^2 + m^2) over all fermionic frequencies p_n.

    Truncated symmetrically, tail-corrected on both sides, and Richardson
    extrapolated over (M, 2M), M = ``DEFAULT_CUTOFF``.  The terms are
    evaluated once, over the 2M window; the M window is its middle half.
    Converges to (beta / (2 m)) * tanh(beta * m / 2).

    ``m`` and ``beta`` broadcast: the result has their broadcast shape,
    each entry bitwise the scalar call's, and is a float when both are
    scalars.  An m or a beta anywhere in the arrays that is not positive
    and finite is refused: the terms are even in m, but the tail is not.
    """
    check_positive("m", m)
    check_beta(beta)
    m = np.asarray(m, dtype=float)[..., None]
    beta = np.asarray(beta, dtype=float)[..., None]
    cutoff = DEFAULT_CUTOFF
    top = 2 * cutoff
    # one row of terms per entry; each row sums on its own
    squares = _fermionic_frequencies(-top, top, beta)
    squares *= squares
    terms = squares + m * m
    np.divide(1.0, terms, out=terms)
    edges = 2.0 * np.pi * np.array([cutoff, top]) / beta
    tails = 2.0 * _lorentzian_tail(edges, m, beta)
    fine = np.sum(terms, axis=-1) + tails[..., 1]
    coarse = np.sum(terms[..., cutoff : 3 * cutoff], axis=-1) + tails[..., 0]
    return _value(_richardson(coarse, fine))


def _pair_levels(k: int, m, beta, cutoffs: tuple[int, ...]) -> list[np.ndarray]:
    """The tail-corrected pair sum at bosonic index k >= 0 for each cutoff.

    S(omega) = sum_q [(m^2 + q^2)(m^2 + (q + omega)^2)]^(-1/2) over
    fermionic q, omega = 2 pi k / beta bosonic, cutoffs smallest first.
    The summand is symmetric under q -> -q - omega, so the index window
    [-c - k, c - 1] of a cutoff c respects the symmetry and its two tails
    are equal.  The summand is evaluated once, over the window of the
    largest cutoff M; a cutoff c takes the slice [M - c, M + c + k) of it.
    Both tails of every cutoff are added from one Gauss-Legendre
    evaluation, which keeps full accuracy for k up to twice the smallest
    cutoff and refuses a larger k.

    ``m`` and ``beta`` are floats or arrays that broadcast; each level is
    an array of their broadcast shape.  Every entry takes one row of
    terms that sums on its own, so it is bitwise the entry's own call.
    """
    if k > 2 * cutoffs[0]:
        raise ValueError(
            f"bosonic index {k} beyond twice the cutoff {cutoffs[0]}: "
            "the tail rule is not accurate there"
        )
    # a trailing axis of length one, for the terms and then the cutoffs
    m, beta = (x[..., None] for x in np.broadcast_arrays(m, np.asarray(beta, dtype=float)))
    top = cutoffs[-1]
    omega = 2.0 * np.pi * k / beta
    terms = _pair_summand(_fermionic_frequencies(-top - k, top, beta), m, omega)
    sums = np.stack(
        [np.sum(terms[..., top - c : top + c + k], axis=-1) for c in cutoffs], axis=-1
    )

    # each one-sided tail is the integral from the edge plus the outward
    # h/24 derivative term of the midpoint rule
    h = 2.0 * np.pi / beta
    edges = h * np.array(cutoffs, dtype=float)
    integrals = _pair_tail_integral(edges, m, omega)
    m2, outer = m * m, edges + omega
    near, far = m2 + edges * edges, m2 + outer * outer
    g_prime = -(edges / near + outer / far) / np.sqrt(near * far)
    totals = sums + 2.0 * (integrals / h + (h / 24.0) * g_prime)
    return list(np.moveaxis(totals, -1, 0))


def a0_c0_sum(omega_index: int, params: ModelParams | ParamGrid, beta) -> KernelValue:
    """Finite-sum kernels (a0, c0) at bosonic index ``omega_index``.

    Reported values are Richardson extrapolants over (M, 2M),
    M = ``DEFAULT_CUTOFF``, of the tail-corrected pair sum, both levels
    from one evaluation of the summand over the 2M window;
    ``tail_estimate`` records the difference between the two cutoff
    levels.  An index beyond 2M is refused.

    At omega = 0 the pair sum collapses to the single-pole sum, so
    a0 + 2 c0 tends to (g1 + g2)^2 / (Omega omega0) * tanh(beta Omega / 4).

    ``params`` is a ``ModelParams`` or a ``thermo.ParamGrid``, and
    ``beta`` a float or an array; they broadcast, as in
    ``fermionic_lorentzian_sum``.  Each field of the result has their
    broadcast shape, each entry bitwise the scalar call's, and is a float
    when the call is at one node.
    """
    check_beta(beta)
    coarse, fine = _pair_levels(
        abs(omega_index), 0.5 * params.Omega, beta, (DEFAULT_CUTOFF, 2 * DEFAULT_CUTOFF)
    )
    pair_sum = _richardson(coarse, fine)
    spread = abs(fine - coarse)

    omega = bosonic_frequency(omega_index, beta)
    root = np.sqrt(params.omega0 * params.omega0 + omega * omega)
    a_weight = (params.g1 * params.g1 + params.g2 * params.g2) / (beta * root)
    c_weight = params.omega0 * params.g1 * params.g2 / (beta * (root * root))
    return KernelValue(
        a=_value(a_weight * pair_sum),
        c=_value(c_weight * pair_sum),
        tail_estimate=_value(a_weight * spread + 2.0 * (c_weight * spread)),
    )


def continue_kernels(
    z: complex, params: ModelParams, beta: float
) -> tuple[complex, complex, complex]:
    """The closed-form kernels at complex energy z: (a(z), a(-z), c(z)).

    z = i omega_k, omega_k = ``bosonic_frequency(k, beta)``, gives the
    Matsubara kernels; a(i omega) and a(-i omega) are complex conjugates,
    and c(i omega) is real, even in omega and non-negative.  A real z = E
    gives their continuation to real energy, with simple poles at E in
    {+-Omega, +-omega0}; evaluation closer than
    ``spectrum.default_pole_epsilon`` to a pole is refused, which no
    point of the imaginary axis is.  The square root in c is taken on the
    principal branch, so c is imaginary for real energies between the two
    pole positions.  Refuses a NaN or non-positive beta; beta = inf is
    the zero-temperature limit.
    """
    t = tanh_factor(params, beta)
    pole_epsilon = default_pole_epsilon(params)
    gap = min(
        abs(z - params.Omega),
        abs(z + params.Omega),
        abs(z - params.omega0),
        abs(z + params.omega0),
    )
    if gap < pole_epsilon:
        raise PoleProximityError(
            f"|z| = {abs(z)} within {pole_epsilon:.3e} of a kernel pole"
        )
    a_plus = (
        t
        * (params.g1**2 / (params.Omega - z) + params.g2**2 / (params.Omega + z))
        / (params.omega0 - z)
    )
    a_minus = (
        t
        * (params.g1**2 / (params.Omega + z) + params.g2**2 / (params.Omega - z))
        / (params.omega0 + z)
    )
    c_cont = (
        t
        * params.g1
        * params.g2
        * params.Omega
        / (np.sqrt(complex(params.omega0**2 - z**2)) * (params.Omega**2 - z**2))
    )
    return complex(a_plus), complex(a_minus), complex(c_cont)
