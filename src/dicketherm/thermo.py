"""Phase structure: critical temperature, partition ratio, order parameter.

This module holds the package's production closed forms.  The thermal
convention is fixed in one place, ``_THERMAL_SCALE``: every thermal
factor is tanh(beta*E/4), with the 4 in the denominator.  ``tanh_factor``
(t = tanh(beta*Omega/4), used by the bound, the quadratic and the
spectrum), ``critical_beta`` and the gap equation of ``order_parameter``
all read it.  Part of the literature writes the analogous factor as
tanh(beta*Omega/2); the two conventions differ by a factor of two in
beta_c.  Here beta_c = (4/Omega) * atanh(Omega*omega0 / (g1+g2)^2).

The quarter argument is the trace it comes from.  tanh(beta*Omega/4) is
exactly the one-site polarization of the unprojected fermion trace, over
all four states of a site of ``fermionization.build_fermion_dicke``: the
empty and doubly occupied states have zero energy and no polarization,
so it is 2 sinh(beta*Omega/2) / (2 + 2 cosh(beta*Omega/2)).  The
physical (Popov-Fedotov) trace keeps one fermion per site and gives
tanh(beta*Omega/2), which is what exact diagonalization of the spin
Hamiltonian agrees with.  So the closed forms here are those of the
unprojected trace, and beta_c is twice the spin model's.  A test pins
both one-site factors; ROADMAP item 1 has the ED table of both traces.

The phase label is the package's one criticality rule.  It runs on the
closed-form bound (g1+g2)^2/(Omega*omega0) * t: within
``CRITICAL_PHASE_TOL`` of one the node is critical, below that the
frequency product converges (normal phase), above it the static mode
condenses (superradiant).  ``phase_scan``, ``order_parameter``,
``log_partition_ratio`` and ``dicketherm.spectrum`` all read this label
(``_critical``, ``_superradiant``).  In the normal phase everything
comes from one quadratic x^2 - B x + C in x = E^2, in the node's own
power-of-two unit: the square roots of its real roots are the
collective-mode energies (``mode_energies``) that
``dicketherm.spectrum`` reports, and the fluctuation product resums to
a log-sinh sum over them.  A scalar node is evaluated once
(``_node``): one beta check and one tanh give its thermal factor, its
bound and its quadratic with the roots, as plain floats, and the scalar
``convergence_bound``, ``mode_energies``, ``log_partition_ratio`` and
the spectrum all read that evaluation.  In the superradiant phase the
order parameter is the root of the resummed gap equation (g1+g2)^2
tanh(beta*D/4) = D*omega0, a scalar equation with a finite
zero-temperature limit, solved by one Newton iteration batched over
nodes (``order_parameter`` describes it).  The Matsubara
frequency sums in ``dicketherm.matsubara`` are oracles only: this module
does not import them, and ``validate`` and the tests check these closed
forms against them.

``convergence_bound``, ``critical_beta`` and ``order_parameter`` take a
``ParamGrid``, the array form of ``ModelParams``, and array beta as well
as scalars; the arrays broadcast.  The scalar and array routes run the
same float operations and agree to the bit.  The bound and beta_c are
products of frexp mantissas scaled once by ldexp, so a subnormal Omega,
or any factor outside the float range, gives finite values where the
true values are finite (g1 + g2 itself excepted).  ``phase_scan``
evaluates a whole params x beta grid as one array computation: the
bound once per node, one batched gap-equation solve over the
superradiant nodes, and beta_c once per parameter node when it is
first read.  It refuses a NaN or non-positive beta with ValueError
before any node runs; its only error rows are nodes whose bound lies
outside the float range.  A node is
"critical" where its bound lies within ``CRITICAL_PHASE_TOL`` of one,
else "normal" below one and "superradiant" above.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from dicketherm.operators import ModelParams, check_beta

__all__ = [
    "CRITICAL_PHASE_TOL",
    "ParamGrid",
    "PhaseScan",
    "check_one_unit",
    "convergence_bound",
    "critical_beta",
    "log_partition_ratio",
    "mode_energies",
    "order_parameter",
    "phase_scan",
    "quantum_critical_gap",
    "tanh_factor",
]

# |bound - 1| below this is labelled critical; exact equality is measure-zero.
CRITICAL_PHASE_TOL = 1e-9

# The thermal convention, written once: every thermal factor is
# tanh(_THERMAL_SCALE * beta * E).
_THERMAL_SCALE = 0.25

# Gap-equation solver: a node stops when its Newton step is no more than
# this relative size of s; a node still moving after _NEWTON_STEPS raises
# RuntimeError (at most six steps have been seen, near the transition).
_STEP_RTOL = 4.0 * np.finfo(float).eps
_NEWTON_STEPS = 12

_PARAM_NAMES = ("omega0", "Omega", "g1", "g2")


@dataclass(frozen=True, eq=False)
class ParamGrid:
    """Model parameters as float arrays that broadcast, one node per entry.

    The array form of ``ModelParams``: the closed forms that accept
    arrays read the same four attributes from either.  Every entry must
    lie in the model's domain; ``ModelParams`` raises its own ValueError
    for the first node outside it.
    """

    omega0: np.ndarray
    Omega: np.ndarray
    g1: np.ndarray = 0.0
    g2: np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        rates = np.minimum(self.omega0, self.Omega)
        couplings = np.minimum(self.g1, self.g2)
        largest = np.maximum(
            np.maximum(self.omega0, self.Omega), np.maximum(self.g1, self.g2)
        )
        # minimum and maximum propagate NaN, which fails every comparison
        if not (
            np.minimum.reduce(rates, axis=None, initial=math.inf) > 0.0
            and np.minimum.reduce(couplings, axis=None, initial=math.inf) >= 0.0
            and np.maximum.reduce(largest, axis=None, initial=0.0) < math.inf
        ):
            for node in zip(*(c.tolist() for c in self._columns())):
                ModelParams(*node)

    def _node_column(self) -> ParamGrid:
        """The nodes, flattened, as an (n, 1) column of the same grid.

        The column broadcasts against a row of beta values into the
        params x beta grid.  Its entries were checked with this grid, so
        it skips the check.
        """
        column = object.__new__(ParamGrid)
        for name, values in zip(_PARAM_NAMES, self._columns()):
            object.__setattr__(column, name, values[:, None])
        return column

    def _columns(self) -> list[np.ndarray]:
        """The four fields broadcast to one shape and flattened, in order."""
        fields = [getattr(self, name) for name in _PARAM_NAMES]
        ones = np.ones(np.broadcast(*fields).shape)
        # times one keeps every value, the sign of zero included
        return [(field * ones).ravel() for field in fields]


def _value(x):
    """A float for a 0-d result, else the array."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _check_beta(beta) -> None:
    """Refuse a NaN or non-positive beta, or an array holding one; inf passes."""
    if isinstance(beta, np.ndarray):
        bad = beta[~(beta > 0.0)]
        if bad.size:
            raise ValueError(f"beta must be positive, got {bad[0]}")
    elif not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")


def tanh_factor(params: ModelParams | ParamGrid, beta):
    """The thermal factor tanh(beta * Omega / 4) shared by every kernel.

    Refuses a NaN or non-positive beta with ValueError; beta = inf, zero
    temperature, gives 1.
    """
    _check_beta(beta)
    return _value(np.tanh(_THERMAL_SCALE * beta * params.Omega))


def critical_beta(params: ModelParams | ParamGrid):
    """Inverse critical temperature, or None when no transition exists.

    beta_c = (4/Omega) * atanh(r), r = Omega*omega0 / (g1+g2)^2, defined
    only for r < 1.  Equality is the quantum-critical point.  It is
    computed as (atanh(r)/r) omega0/g^2/s, with g = g1 + g2 and
    s = ``_THERMAL_SCALE``, taking atanh(r)/r = 1 where r underflows;
    r and omega0/g^2 are frexp mantissa products scaled once by ldexp,
    so neither leaves the float range unless its value does.  A
    ``ParamGrid`` gives an array, NaN where no transition exists.
    """
    if isinstance(params, ModelParams):
        g = params.g1 + params.g2
        if not g:
            return None
        mg, eg = math.frexp(g)
        mw, ew = math.frexp(params.omega0)
        mW, eW = math.frexp(params.Omega)
        r = _ldexp(mw / mg * (mW / mg), ew + eW - 2 * eg)
        if not r < 1.0:
            return None
        # np.arctanh, not math.atanh: the array route must agree to the bit
        ratio = float(np.arctanh(r)) / r if r else 1.0
        return _ldexp(ratio * (mw / mg) / mg / _THERMAL_SCALE, ew - 2 * eg)
    with np.errstate(all="ignore"):
        (mg, eg), (mw, ew), (mW, eW) = map(
            np.frexp, (params.g1 + params.g2, params.omega0, params.Omega)
        )
        r = np.ldexp(mw / mg * (mW / mg), ew + eW - 2 * eg)
        ratio = np.where(r > 0.0, np.arctanh(r) / r, 1.0)
        beta_c = np.ldexp(ratio * (mw / mg) / mg / _THERMAL_SCALE, ew - 2 * eg)
        return np.where(r < 1.0, beta_c, np.nan)


# omega0*Omega outside [_TINY, inf) has under- or overflowed
_TINY = sys.float_info.min


def quantum_critical_gap(params: ModelParams) -> float:
    """(g1 + g2) - sqrt(omega0 * Omega); positive iff a finite beta_c exists.

    Where the product overflows or underflows the square roots are taken
    apart, so the gap stays finite.
    """
    product = params.omega0 * params.Omega
    if _TINY <= product < math.inf:
        root = math.sqrt(product)
    else:
        root = math.sqrt(params.omega0) * math.sqrt(params.Omega)
    return params.g1 + params.g2 - root


# below this argument tanh(x) rounds to x: x^3/3 is under half an ulp of x
_TANH_LINEAR = 2.0**-27

_BOUND_OVERFLOW = "the convergence bound is outside the float range"


def convergence_bound(params: ModelParams | ParamGrid, beta):
    """Closed form of a0(0) + 2*c0(0); the phase boundary sits at 1.

    (g1+g2)^2 / (omega0 Omega) * tanh(beta Omega / 4), computed as
    (g/omega0) g (t/Omega) with g = g1 + g2 and t the thermal factor;
    t/Omega is taken as beta/4 where tanh(beta Omega / 4) rounds to its
    argument.  The product is taken by ``_bound_split``, so no factor of
    it leaves the float range unless the bound does.  Parameters and
    beta may be arrays, which broadcast.  beta = +inf (zero temperature)
    is allowed; NaN and non-positive beta raise ValueError.  A bound
    outside the float range is inf in an array; a scalar one raises
    OverflowError.
    """
    if isinstance(params, ModelParams) and not isinstance(beta, np.ndarray):
        bound = _node(params, beta).bound
        if not bound < math.inf:
            raise OverflowError(_BOUND_OVERFLOW)
        return bound
    _check_beta(beta)
    with np.errstate(all="ignore"):
        x = _THERMAL_SCALE * beta * params.Omega
        linear = x < _TANH_LINEAR
        t = np.where(linear, beta, np.tanh(x))
        Omega = np.where(linear, 1.0 / _THERMAL_SCALE, params.Omega)
        g = params.g1 + params.g2
        return _value(np.ldexp(*_bound_split(g, params.omega0, t, Omega, np.frexp)))


def _bound_split(g, omega0, t, Omega, frexp):
    """(g/omega0) g (t/Omega) as a mantissa in (1/8, 4) and an exponent.

    ``frexp`` is ``math.frexp`` or ``np.frexp``; the mantissa product is
    rounded as the plain product is wherever that stays normal.
    """
    mg, eg = frexp(g)
    mw, ew = frexp(omega0)
    mt, et = frexp(t)
    mW, eW = frexp(Omega)
    return mg / mw * mg * (mt / mW), 2 * eg - ew + et - eW


def _ldexp(mantissa: float, exponent: int) -> float:
    """math.ldexp, with inf where it would overflow, as np.ldexp gives."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _superradiant(bound):
    """Elementwise: the nodes labelled superradiant, NaN bounds included.

    bound - 1 is exact for bound in [0.5, 2], so it is below the critical
    tolerance exactly when the label is critical or normal.  A float
    bound gives a bool.
    """
    below = bound - 1.0 < CRITICAL_PHASE_TOL
    return not below if isinstance(below, bool) else ~below


def _critical(bound):
    """Elementwise: the nodes labelled critical, |bound - 1| below the tolerance.

    A node is normal where neither this nor ``_superradiant`` holds.
    """
    return abs(bound - 1.0) < CRITICAL_PHASE_TOL


# omega0 Omega at least this in the node's unit keeps C ~ (omega0 Omega)^2
# and the smaller root C / q of the quadratic (q <= 4) normal floats
_UNIT_FLOOR = 2.0**-509


class _Node(NamedTuple):
    """One (params, beta) node of the scalar route, evaluated once (``_node``).

    ``bound`` is the convergence bound, inf where it leaves the float
    range.  The rest is the kernel-determinant quadratic in the node's
    own unit 2^e: omega0 and Omega in that unit, the coefficients B and C
    of x^2 - B x + C, x = E^2, and its real roots (small, large), or None
    when they are complex.  ``span`` is None, or the refusal of a node
    whose energies are too far apart for one unit; its quadratic is not
    used.
    """

    bound: float
    e: int
    omega0: float
    Omega: float
    B: float
    C: float
    roots: tuple[float, float] | None
    span: str | None


def _node(params: ModelParams, beta: float) -> _Node:
    """The node's bound and quadratic from one thermal factor.

    Refuses a NaN or non-positive beta, the one check of the node; beta =
    inf gives t = 1.  t = tanh(beta Omega / 4) is taken once and read by
    the bound and the quadratic alike, with the float operations of the
    array routes (``convergence_bound``, ``tanh_factor``).  The bound is
    (g/omega0) g (t/Omega), t/Omega taken as beta/4 where tanh rounds to
    its argument (``_bound_split``).

    The unit is 2^e, e the binary exponent of max(omega0, Omega, g1, g2);
    the scaling is exact, so energies found in it scale back with
    ``ldexp``, and beta is not scaled.  After analytic continuation
    (1 - a(E))(1 - a(-E)) - 4 c(E)^2 = (x^2 - B x + C) / ((omega0^2 -
    x)(Omega^2 - x)), with

        B = omega0^2 + Omega^2 + 2 t (g1^2 - g2^2)
        C = omega0^2 Omega^2 - 2 t omega0 Omega (g1^2 + g2^2)
            + t^2 (g1^2 - g2^2)^2.

    At Matsubara frequencies x = -omega^2 the numerator is the product
    (omega^2 + x1)(omega^2 + x2) over the roots, which is what makes the
    partition ratio a log-sinh sum.  C factorizes as omega0^2 Omega^2
    (1 - (g1+g2)^2 u)(1 - (g1-g2)^2 u) with u = t / (omega0 Omega), so
    C = 0 exactly at the transition.  The discriminant B^2 - 4C is taken
    in its factored form

        (omega0^2 - Omega^2)^2
            + 4 t [g1^2 (omega0 + Omega)^2 - g2^2 (omega0 - Omega)^2],

    which has no cancellation and is exactly 0 on the degenerate line
    omega0 = Omega, g1 = 0.  The larger-magnitude root is
    q = (B + sign(B) sqrt(disc)) / 2 and the other is C / q.  In the
    normal phase disc >= (omega0 - Omega)^2 [(omega0 + Omega)^2 -
    4 t g2^2] > 0 and C > 0, so both roots are real and positive.
    Energies too far apart for one unit (omega0 Omega below
    ``_UNIT_FLOOR`` in it) set ``span``; the bound is still the node's.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    omega0, Omega, g1, g2 = params.omega0, params.Omega, params.g1, params.g2
    x = _THERMAL_SCALE * beta * Omega
    t = float(np.tanh(x))
    # beta / (1/s) where tanh rounds to its argument, which is s beta with
    # no underflow for a subnormal beta
    if x < _TANH_LINEAR:
        split = _bound_split(g1 + g2, omega0, beta, 1.0 / _THERMAL_SCALE, math.frexp)
    else:
        split = _bound_split(g1 + g2, omega0, t, Omega, math.frexp)
    bound = _ldexp(*split)

    e = math.frexp(max(omega0, Omega, g1, g2))[1]
    w0, W = math.ldexp(omega0, -e), math.ldexp(Omega, -e)
    span = _span(params, w0, W)
    g1sq, g2sq = math.ldexp(g1, -e) ** 2, math.ldexp(g2, -e) ** 2
    w0sq, Wsq = w0**2, W**2
    B = w0sq + Wsq + 2.0 * t * (g1sq - g2sq)
    C = w0sq * Wsq - 2.0 * t * w0 * W * (g1sq + g2sq) + t**2 * (g1sq - g2sq) ** 2
    disc = (w0 * w0 - W * W) ** 2 + 4.0 * t * (g1sq * (w0 + W) ** 2 - g2sq * (w0 - W) ** 2)
    if disc < 0.0:
        roots = None
    else:
        q = 0.5 * (B + math.copysign(math.sqrt(disc), B))
        if q == 0.0:
            roots = (0.0, 0.0)
        else:
            other = C / q
            roots = (min(q, other), max(q, other))
    return _Node(bound, e, w0, W, B, C, roots, span)


def _span(params: ModelParams, w0: float, W: float) -> str | None:
    """None, or the refusal of a node whose energies are too far apart for one
    unit: omega0 Omega below ``_UNIT_FLOOR`` in the node's unit, where
    ``w0`` and ``W`` are omega0 and Omega."""
    if w0 * W >= _UNIT_FLOOR:
        return None
    energies = [v for v in (params.omega0, params.Omega, params.g1, params.g2) if v > 0.0]
    return (
        f"the energies of this node span {min(energies):.3g} to {max(energies):.3g}, "
        "too wide to share one energy unit"
    )


def check_one_unit(params: ModelParams) -> None:
    """Refuse with ValueError a node whose energies are too far apart for one
    energy unit, for which ``mode_energies``, ``log_partition_ratio`` and the
    spectrum refuse every beta; the unit is ``_node``'s, set by the
    parameters alone."""
    e = math.frexp(max(params.omega0, params.Omega, params.g1, params.g2))[1]
    span = _span(params, math.ldexp(params.omega0, -e), math.ldexp(params.Omega, -e))
    if span is not None:
        raise ValueError(span)


def _in_one_unit(node: _Node) -> _Node:
    """The node, refused with ValueError if its energies span too far for one unit."""
    if node.span is not None:
        raise ValueError(node.span)
    return node


def _energies(node: _Node) -> tuple[float, ...]:
    """The square roots of the node's non-negative real roots, scaled back."""
    roots = _in_one_unit(node).roots or ()
    return tuple(math.ldexp(math.sqrt(x), node.e) for x in roots if x >= 0.0)


def mode_energies(params: ModelParams, beta: float) -> tuple[float, ...]:
    """The energies E = sqrt(x) of the non-negative real roots x of the quadratic.

    Ascending, in the caller's unit: each root is found in the node's
    own unit (``_node``) and scaled back exactly, so the energies do not
    depend on the unit even where E^2 would leave the float range.
    Empty where the roots are complex.  These are the normal-phase
    collective modes; above beta_c they are fluctuations about the
    unstable empty state.  Refuses a NaN or non-positive beta, and
    energies too far apart for one unit.
    """
    return _energies(_node(params, beta))


def _log_sinh(y: float) -> float:
    """ln sinh(y) for y > 0, without overflow at large y."""
    return y + math.log(-math.expm1(-2.0 * y)) - math.log(2.0)


def log_partition_ratio(params: ModelParams, beta: float) -> float:
    """ln(Z/Z0) per atom-free normalization, leading order in large N.

    The Gaussian-fluctuation product over bosonic frequencies,
    prod_n [(omega_n^2 + x1)(omega_n^2 + x2) / ((omega_n^2 + omega0^2)
    (omega_n^2 + Omega^2))]^(-1/2), resums to

        sum_i ln[sinh(beta w_i / 2) / sinh(beta E_i / 2)],

    with w = (omega0, Omega) and E_i the ``mode_energies``.  Defined in
    the normal phase only, where both roots are positive; the product
    diverges at the transition and the formula does not continue past
    it: a node labelled critical or superradiant is refused, after a
    bound outside the float range (OverflowError).  So is a normal node
    so close to the transition that the rounded C leaves fewer than two
    positive energies, rather than summing over one mode.  ``beta`` must
    be positive and finite (``operators.check_beta``).  One ``_node``
    gives the bound, the label and the energies.
    """
    return _bounded_log_partition_ratio(params, beta)[1]


def _bounded_log_partition_ratio(params: ModelParams, beta: float) -> tuple[float, float]:
    """The node's convergence bound and ``log_partition_ratio``, from one
    ``_node``; it refuses what ``log_partition_ratio`` refuses."""
    check_beta(beta)
    node = _node(params, beta)
    bound = node.bound
    if not bound < math.inf:
        raise OverflowError(_BOUND_OVERFLOW)
    if _critical(bound) or _superradiant(bound):
        label = "critical" if _critical(bound) else "superradiant"
        raise ValueError(
            f"log_partition_ratio requires the normal phase; the node is {label}, "
            f"with convergence bound {bound!r}"
        )
    energies = _energies(node)
    if len(energies) != 2 or not energies[0] > 0.0:
        raise ValueError(
            f"log_partition_ratio needs two positive mode energies, got {energies!r}; "
            f"the node's convergence bound {bound!r} is too close to 1 for the "
            f"rounded quadratic"
        )
    free = sum(_log_sinh(0.5 * beta * w) for w in (params.omega0, params.Omega))
    return bound, free - sum(_log_sinh(0.5 * beta * E) for E in energies)


def _gap_root(K: np.ndarray, Omega: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """s = D - Omega solving K tanh(scale D) = D, one root per entry.

    1-d arrays; every entry must have a positive balance at s = 0 (the
    superradiant phase).  The Newton iteration, its start, its stop and
    its RuntimeError are described in ``order_parameter``.  The caller
    holds ``np.errstate``.
    """
    hi = K - Omega
    # the start's second upper bound, from the tanh convergent, exists
    # where c = 1 / (K scale) > 1/6 (NaN elsewhere)
    KS = K * scale
    c = 1.0 / KS
    upper = np.sqrt(15.0 * (1.0 - c) / (6.0 * c - 1.0)) / scale - Omega
    below = upper < hi
    s = np.where(below, upper, hi)
    # where tanh(scale D) at D = K rounds to 1 (deep cold, and beta = inf)
    # the root is hi to rounding, and Newton's slope can round to 0 (K
    # scale >= 2^53) or NaN (beta = inf), so the node stays at hi;
    # elsewhere the rounded bound, and a balance at hi that rounds to
    # negative, take a step
    gap = Omega + s
    t = np.tanh(scale * gap)
    moving = (below | (K * t < gap)) & (np.tanh(KS) < 1.0)
    if not np.count_nonzero(moving):
        return s
    # the slope K scale (1 - t^2) - 1 loses digits as t -> 1, but the
    # slope only sets the convergence rate; the root is where the
    # balance vanishes.  Each step reads the gap and thermal factor at
    # the s it starts from; the first reuses those of the check above.
    slope_at_zero = KS - 1.0
    for _ in range(_NEWTON_STEPS):
        step = (K * t - gap) / (slope_at_zero - KS * t * t)
        s -= np.where(moving, step, 0.0)
        moving &= step > _STEP_RTOL * s
        if not np.count_nonzero(moving):
            return s
        gap = Omega + s
        t = np.tanh(scale * gap)
    raise RuntimeError(
        f"gap equation: {np.count_nonzero(moving)} node(s) still moving "
        f"after {_NEWTON_STEPS} Newton steps"
    )


def order_parameter(params: ModelParams | ParamGrid, beta, *, bound=None):
    """Photons per atom from the static saddle point.

    The static effective potential per atom, in the variable
    y = pi x^2 / N, is Phi(y) = -y + sum_p ln(1 + kappa y / (p^2 +
    Omega^2/4)) with kappa = (g1+g2)^2 / (beta omega0) and p fermionic.
    Phi is strictly concave, Phi'(0) = bound - 1, so the maximizer is the
    unique positive root of Phi' when the bound exceeds one and y = 0
    otherwise.  Photons per atom is rho = y* / (beta omega0).

    Resumming the fermionic sum in closed form turns Phi' = 0 into the
    gap equation K tanh(beta D/4) = D, K = G/omega0 and G = g^2 with
    g = g1 + g2, for the effective gap D = sqrt(Omega^2 + 4 kappa y) >
    Omega, and rho = (D^2 - Omega^2) / (4 G).  Each node is solved in its
    own power-of-two unit: the energies scaled by 2^-e and beta by 2^e, e
    the binary exponent of g.  The scaling is exact and rho has no unit,
    so rho is the same in any power-of-two unit.  In that unit g is in
    [1/2, 1) and K = (g/omega0) g, so K omega0 = g^2 and rho, about
    K / (4 omega0), bound both: K and omega0 stay in range wherever rho
    does, although G, G/omega0 or K in the caller's unit may not.  (The
    unit of the largest energy, ``_node``'s, would instead underflow a
    small g or Omega.)  The equation is solved for s = D - Omega on
    [0, K - Omega], which avoids the cancellation in D^2 - Omega^2 near
    the transition, and rho = s (s + 2 Omega) / (4 K omega0).  The
    balance f(s) = K tanh(beta (Omega + s)/4) - (Omega + s) is concave
    in s, positive at 0 and negative at
    the upper end hi, so Newton started anywhere above the root
    decreases monotonically onto it: the tangent at any s above the root
    lies above f and crosses zero between the root and s.  The start is
    the lower of two upper bounds, hi (from tanh <= 1) and the root with
    tanh(u) replaced by the continued-fraction convergent u (15 + u^2) /
    (15 + 6 u^2) >= tanh(u); the second is close to the root near a
    high-temperature transition, where Newton from hi needs the most
    steps.  Each node stops when its step is no longer positive beyond
    four ulps of s (relative), which also ends the iteration when
    rounding near a badly conditioned root makes the step wander; a node
    still moving after twelve steps raises RuntimeError.  Where
    tanh(beta K/4), the thermal factor at hi, rounds to one (deep cold,
    and exactly at beta = inf) the root is hi, which gives the
    zero-temperature value (K^2 - Omega^2) / (4 K omega0), as does a
    balance at hi that rounds to non-negative.  The numerically summed
    frequency series is reserved for the test oracle and ``validate``.

    Parameters and beta may be arrays, which broadcast; all nodes are
    solved together and no RuntimeWarning escapes.  Returns exactly 0.0
    unless the node's bound is labelled superradiant, so a critical row
    never reports a positive rho.  ``bound`` is the nodes'
    ``convergence_bound(params, beta)`` where the caller has already
    computed it, as ``phase_scan`` has; it is taken as given.
    """
    if bound is None:
        bound = convergence_bound(params, beta)
    with np.errstate(all="ignore"):
        sr = _superradiant(np.asarray(bound))
        rho = np.zeros(sr.shape)
        if sr.any():
            # the nodes to solve, each input broadcast to the grid first
            ones = np.ones(sr.shape)
            g = ((params.g1 + params.g2) * ones)[sr]
            omega0 = (params.omega0 * ones)[sr]
            Omega = (params.Omega * ones)[sr]
            scale = (_THERMAL_SCALE * ones * beta)[sr]
            # each node in its own unit 2^e, e the binary exponent of g;
            # rho is unit-free and the scaling exact.  The four arrays are
            # this call's own copies, so they are scaled in place
            e = np.frexp(g)[1]
            for energy in (g, omega0, Omega):
                np.ldexp(energy, -e, out=energy)
            np.ldexp(scale, e, out=scale)
            K = g / omega0 * g
            s = _gap_root(K, Omega, scale)
            # s / K <= 1, scaled by 1/4 and 1/omega0 before the second
            # factor; s (s + 2 Omega), 4 K or 4 rho alone can overflow
            rho[sr] = s / K * 0.25 / omega0 * (s + 2.0 * Omega)
    return _value(rho)


@dataclass(frozen=True, eq=False)
class PhaseScan:
    """Columns of a phase scan, one entry per node, params outer, beta inner.

    Each node's parameters in four columns, its beta, convergence bound
    and phase label, beta_c and rho, the photons per atom, positive
    exactly in the superradiant phase.  ``beta_c`` is NaN where
    ``critical_beta`` gives None; it is evaluated on first reading, once
    per parameter node.  ``error`` holds None, or the OverflowError text
    of a node whose bound lies outside the float range; that node's
    phase is "error" and its bound, beta_c and rho are NaN.
    """

    omega0: np.ndarray
    Omega: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    beta: np.ndarray
    bound: np.ndarray
    phase: np.ndarray
    rho: np.ndarray
    error: np.ndarray
    # the parameter nodes as a column, one row for each run of beta rows
    _per_params: ParamGrid = field(repr=False)

    def __len__(self) -> int:
        return self.beta.size

    @cached_property
    def beta_c(self) -> np.ndarray:
        """``critical_beta`` of each row's parameter node, NaN at an error row."""
        per_params = critical_beta(self._per_params).ravel()
        beta_c = per_params.repeat(self.beta.size // per_params.size)
        # the bound is NaN at the error rows, and finite at every other
        beta_c[~(self.bound < math.inf)] = math.nan
        return beta_c


def phase_scan(
    params_grid: Sequence[ModelParams] | ParamGrid, beta_grid: Sequence[float]
) -> PhaseScan:
    """Cartesian scan, params outer and beta inner, deterministic order.

    One array evaluation: the bound once per node (a ``ParamGrid`` is
    flattened) and one ``order_parameter`` call given that bound, which
    solves the gap equation at the superradiant nodes; beta_c, once per
    parameter node, waits for its first reading (``PhaseScan.beta_c``).  A NaN or
    non-positive beta raises ValueError before any node is evaluated.  A
    node whose bound lies outside the float range, where the scalar
    ``convergence_bound`` raises OverflowError, becomes an error row:
    phase "error", NaN numerics and that error's text.
    """
    if not isinstance(params_grid, ParamGrid):
        params_grid = ParamGrid(
            *(np.array([getattr(p, n) for p in params_grid]) for n in _PARAM_NAMES)
        )
    per_params = params_grid._node_column()
    columns = [getattr(per_params, n).ravel() for n in _PARAM_NAMES]
    betas = np.ravel(np.asarray(beta_grid, dtype=float))
    if not columns[0].size or not betas.size:
        raise ValueError("phase_scan requires non-empty grids")
    grid_bound = convergence_bound(per_params, betas)
    rho = order_parameter(per_params, betas, bound=grid_bound).ravel()
    bound = grid_bound.ravel()
    phase = np.where(_superradiant(bound), "superradiant", "normal")
    phase[_critical(bound)] = "critical"
    nodes = [c.repeat(betas.size) for c in columns]
    beta = betas[None, :].repeat(columns[0].size, axis=0).ravel()
    error = np.full(bound.size, None, dtype=object)
    failed = ~(bound < math.inf)
    if failed.any():
        bound[failed] = rho[failed] = math.nan
        phase[failed] = "error"
        error[failed] = f"OverflowError: {_BOUND_OVERFLOW}"
    return PhaseScan(*nodes, beta, bound, phase, rho, error, per_params)
