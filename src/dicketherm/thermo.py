"""Phase structure: critical temperature, partition ratio, order parameter.

This module holds the package's production closed forms.  The thermal
convention is fixed in one place, ``_THERMAL_SCALE``: every thermal
factor is tanh(beta*E/4), with the 4 in the denominator.  ``tanh_factor``
(t = tanh(beta*Omega/4), used by the bound, the quadratic and the
spectrum), ``critical_beta`` and the gap equation of ``order_parameter``
all read it.  Part of the literature writes the analogous factor as
tanh(beta*Omega/2); the two conventions differ by a factor of two in
beta_c.  Here beta_c = (4/Omega) * atanh(Omega*omega0 / (g1+g2)^2).

The choice matters for quantitative oracle comparisons.  Brute-force
finite-N partition ratios ln(Z_N / Z0_N) extrapolate (Richardson in 1/N)
to the tanh(beta*Omega/2) variant of the same fluctuation sum, not to the
value returned by log_partition_ratio; at omega0=Omega=1, g1=0.6, g2=0.3,
beta=1 the exact-diagonalization ladder tends to ~0.2455 while the
quarter-argument sum gives 0.11652.  The quarter-argument convention is
kept throughout because beta_c, the spectrum anchors, and the order
parameter are internally consistent with it; cross-checks against exact
diagonalization should compare trends, not absolute fluctuation values.

The normal/superradiant classification runs on the closed-form bound
(g1+g2)^2/(Omega*omega0) * t: below one the frequency product converges
(normal phase), above one the static mode condenses.  In the normal
phase everything comes from one quadratic x^2 - B x + C in x = E^2
(``kernel_determinant_coefficients``): its real roots
(``mode_energy_squares``) are the squared collective-mode energies that
``dicketherm.spectrum`` reports, and the fluctuation product resums to a
log-sinh sum over them.  In the superradiant phase the order parameter
is the root of the resummed gap equation (g1+g2)^2 tanh(beta*D/4) =
D*omega0, a scalar equation with a finite zero-temperature limit.  The
Matsubara frequency sums in ``dicketherm.matsubara`` are oracles only:
this module does not import them, and ``validate`` and the tests check
these closed forms against them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from dicketherm.operators import ModelParams

__all__ = [
    "CRITICAL_PHASE_TOL",
    "PhasePoint",
    "classify_phase",
    "convergence_bound",
    "critical_beta",
    "kernel_determinant_coefficients",
    "log_partition_ratio",
    "mode_energy_squares",
    "order_parameter",
    "phase_point",
    "phase_scan",
    "quantum_critical_gap",
    "tanh_factor",
]

# |bound - 1| below this is labelled critical; exact equality is measure-zero.
CRITICAL_PHASE_TOL = 1e-9

# The thermal convention, written once: every thermal factor is
# tanh(_THERMAL_SCALE * beta * E).
_THERMAL_SCALE = 0.25


@dataclass(frozen=True)
class PhasePoint:
    """Classified thermodynamic state at one (params, beta) node.

    ``rho`` is photons per atom; positive exactly in the superradiant
    phase.  ``error`` is set (and the numeric fields are NaN) on rows
    where evaluation failed inside a scan.
    """

    params: ModelParams
    beta: float
    bound: float
    phase: str
    beta_c: float | None
    rho: float
    error: str | None = None


def tanh_factor(params: ModelParams, beta: float) -> float:
    """The thermal factor tanh(beta * Omega / 4) shared by every kernel."""
    return float(np.tanh(_THERMAL_SCALE * beta * params.Omega))


def critical_beta(params: ModelParams) -> float | None:
    """Inverse critical temperature, or None when no transition exists.

    beta_c = (4/Omega) * atanh(Omega*omega0 / (g1+g2)^2), defined only for
    (g1+g2)^2 > omega0*Omega.  Equality is the quantum-critical point.
    """
    g = params.g1 + params.g2
    product = params.omega0 * params.Omega
    if g**2 <= product:
        return None
    return 1.0 / _THERMAL_SCALE / params.Omega * math.atanh(product / g**2)


def quantum_critical_gap(params: ModelParams) -> float:
    """(g1 + g2) - sqrt(omega0 * Omega); positive iff a finite beta_c exists.

    Where the product overflows or underflows the square roots are taken
    apart, so the gap stays finite.
    """
    product = params.omega0 * params.Omega
    if sys.float_info.min <= product < math.inf:
        root = math.sqrt(product)
    else:
        root = math.sqrt(params.omega0) * math.sqrt(params.Omega)
    return params.g1 + params.g2 - root


def convergence_bound(params: ModelParams, beta: float) -> float:
    """Closed form of a0(0) + 2*c0(0); the phase boundary sits at 1.

    beta = +inf (zero temperature) is allowed; NaN and non-positive beta
    raise ValueError.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    g = params.g1 + params.g2
    return g**2 / (params.Omega * params.omega0) * tanh_factor(params, beta)


def _phase_label(bound: float) -> str:
    if abs(bound - 1.0) < CRITICAL_PHASE_TOL:
        return "critical"
    return "normal" if bound < 1.0 else "superradiant"


def classify_phase(params: ModelParams, beta: float) -> str:
    return _phase_label(convergence_bound(params, beta))


def kernel_determinant_coefficients(
    params: ModelParams, beta: float
) -> tuple[float, float]:
    """Coefficients (B, C) of the kernel-determinant quadratic in x = E^2.

    (1 - a(E))(1 - a(-E)) - 4 c(E)^2 = (x^2 - B x + C) /
    ((omega0^2 - x)(Omega^2 - x)) after analytic continuation, with

        B = omega0^2 + Omega^2 + 2 t (g1^2 - g2^2)
        C = omega0^2 Omega^2 - 2 t omega0 Omega (g1^2 + g2^2)
            + t^2 (g1^2 - g2^2)^2,   t = tanh(beta Omega / 4).

    At Matsubara frequencies x = -omega^2 the numerator is the product
    (omega^2 + x1)(omega^2 + x2) over the roots of the quadratic, which
    is what makes the partition ratio a log-sinh sum.  C factorizes as
    omega0^2 Omega^2 (1 - (g1+g2)^2 u)(1 - (g1-g2)^2 u) with
    u = t / (omega0 Omega), so C = 0 exactly at the transition.
    """
    t = tanh_factor(params, beta)
    g1sq, g2sq = params.g1**2, params.g2**2
    w0sq, Wsq = params.omega0**2, params.Omega**2
    B = w0sq + Wsq + 2.0 * t * (g1sq - g2sq)
    C = (
        w0sq * Wsq
        - 2.0 * t * params.omega0 * params.Omega * (g1sq + g2sq)
        + t**2 * (g1sq - g2sq) ** 2
    )
    return B, C


def mode_energy_squares(
    params: ModelParams, beta: float
) -> tuple[float, float] | None:
    """Real roots (small, large) of x^2 - B x + C, or None when complex.

    The discriminant B^2 - 4C is taken in its factored form

        (omega0^2 - Omega^2)^2
            + 4 t [g1^2 (omega0 + Omega)^2 - g2^2 (omega0 - Omega)^2],

    which has no cancellation and is exactly 0 on the degenerate line
    omega0 = Omega, g1 = 0.  The larger-magnitude root is
    q = (B + sign(B) sqrt(disc)) / 2 and the other is C / q.  In the
    normal phase disc >= (omega0 - Omega)^2 [(omega0 + Omega)^2 -
    4 t g2^2] > 0 and C > 0, so both roots are real and positive.
    """
    t = tanh_factor(params, beta)
    B, C = kernel_determinant_coefficients(params, beta)
    w0, W = params.omega0, params.Omega
    disc = (w0 * w0 - W * W) ** 2 + 4.0 * t * (
        params.g1**2 * (w0 + W) ** 2 - params.g2**2 * (w0 - W) ** 2
    )
    if disc < 0.0:
        return None
    q = 0.5 * (B + math.copysign(math.sqrt(disc), B))
    if q == 0.0:
        return 0.0, 0.0
    other = C / q
    return min(q, other), max(q, other)


def _log_sinh(y: float) -> float:
    """ln sinh(y) for y > 0, without overflow at large y."""
    return y + math.log(-math.expm1(-2.0 * y)) - math.log(2.0)


def log_partition_ratio(params: ModelParams, beta: float) -> float:
    """ln(Z/Z0) per atom-free normalization, leading order in large N.

    The Gaussian-fluctuation product over bosonic frequencies,
    prod_n [(omega_n^2 + x1)(omega_n^2 + x2) / ((omega_n^2 + omega0^2)
    (omega_n^2 + Omega^2))]^(-1/2), resums to

        sum_i ln[sinh(beta w_i / 2) / sinh(beta E_i / 2)],

    with w = (omega0, Omega) and E_i^2 = x_i the roots from
    ``mode_energy_squares``.  Defined in the normal phase only, where
    both roots are positive; the product diverges at the transition and
    the formula does not continue past it.  ``beta`` must be finite.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    bound = convergence_bound(params, beta)
    if bound >= 1.0 - CRITICAL_PHASE_TOL:
        raise ValueError(
            f"log_partition_ratio requires the normal phase; "
            f"convergence bound {bound:.6g} is not below 1"
        )
    free = _log_sinh(0.5 * beta * params.omega0) + _log_sinh(
        0.5 * beta * params.Omega
    )
    return free - sum(
        _log_sinh(0.5 * beta * math.sqrt(x))
        for x in mode_energy_squares(params, beta)
    )


def order_parameter(params: ModelParams, beta: float) -> float:
    """Photons per atom from the static saddle point.

    The static effective potential per atom, in the variable
    y = pi x^2 / N, is Phi(y) = -y + sum_p ln(1 + kappa y / (p^2 +
    Omega^2/4)) with kappa = (g1+g2)^2 / (beta omega0) and p fermionic.
    Phi is strictly concave, Phi'(0) = bound - 1, so the maximizer is the
    unique positive root of Phi' when the bound exceeds one and y = 0
    otherwise.  Photons per atom is rho = y* / (beta omega0).

    Resumming the fermionic sum in closed form turns Phi' = 0 into the
    gap equation G tanh(beta D/4) = D omega0, G = (g1+g2)^2, for the
    effective gap D = sqrt(Omega^2 + 4 kappa y) > Omega, and
    rho = (D^2 - Omega^2) / (4 G).  It is solved for s = D - Omega on
    [0, G/omega0 - Omega], which avoids the cancellation in D^2 - Omega^2
    near the transition.  When the balance at the upper end rounds to
    non-negative (deep cold, and exactly at beta = inf) the root is that
    end, which gives the zero-temperature value ((G/omega0)^2 -
    Omega^2) / (4 G).  The numerically summed frequency series is
    reserved for the test oracle and ``validate``.

    Returns exactly 0.0 unless ``classify_phase`` labels the node
    superradiant, so a critical row never reports a positive rho.
    """
    if classify_phase(params, beta) != "superradiant":
        return 0.0
    G = (params.g1 + params.g2) ** 2
    Omega, omega0 = params.Omega, params.omega0
    scale = _THERMAL_SCALE * beta

    def balance(s: float) -> float:
        gap = Omega + s
        return G * math.tanh(scale * gap) - gap * omega0

    hi = G / omega0 - Omega
    if balance(hi) >= 0.0:
        s = hi
    else:
        # relative tolerance only: the default absolute xtol (2e-12) would
        # leave a small s near the transition with few correct digits
        s = optimize.brentq(
            balance, 0.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps
        )
    return s * (s + 2.0 * Omega) / (4.0 * G)


def phase_point(params: ModelParams, beta: float) -> PhasePoint:
    """Evaluate one grid node: bound, label, beta_c, order parameter."""
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


def _scan_node(params: ModelParams, beta: float) -> PhasePoint:
    try:
        return phase_point(params, beta)
    except Exception as exc:
        return PhasePoint(
            params=params,
            beta=beta,
            bound=math.nan,
            phase="error",
            beta_c=None,
            rho=math.nan,
            error=f"{type(exc).__name__}: {exc}",
        )


def phase_scan(
    params_grid: Sequence[ModelParams], beta_grid: Sequence[float]
) -> list[PhasePoint]:
    """Cartesian scan, params outer and beta inner, deterministic order.

    Node failures never abort the scan; they surface as rows with the
    ``error`` field set and NaN numerics.
    """
    if not params_grid or not beta_grid:
        raise ValueError("phase_scan requires non-empty grids")
    return [_scan_node(p, b) for p in params_grid for b in beta_grid]
