"""Phase structure: critical temperature, partition-ratio, order parameter.

Convention note: every thermal factor in this package is tanh(beta*Omega/4),
with the 4 in the denominator.  Part of the literature writes the analogous
factor as tanh(beta*Omega/2); the two conventions differ by a factor of two
in beta_c.  Here beta_c = (4/Omega) * atanh(Omega*omega0 / (g1+g2)^2).

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
(g1+g2)^2/(Omega*omega0) * tanh(beta*Omega/4): below one the frequency
product converges (normal phase), above one the static mode condenses.
In the normal phase the fluctuation product resums to a log-sinh sum
over the roots of the kernel quadratic x^2 - B x + C
(``dicketherm.matsubara.mode_energy_squares``), the same roots that
give the collective modes; the truncated Matsubara sum is kept only as
a test oracle.  In the superradiant phase the order parameter is the
root of the resummed gap equation (g1+g2)^2 tanh(beta*D/4) = D*omega0,
a scalar equation with a finite zero-temperature limit.  The Matsubara
frequency sums in ``dicketherm.matsubara`` are not used for it; they
remain the independent route that ``validate`` and the tests check it
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from dicketherm.matsubara import DEFAULT_CUTOFF, mode_energy_squares, tanh_factor
from dicketherm.operators import ModelParams

__all__ = [
    "CRITICAL_PHASE_TOL",
    "PhasePoint",
    "classify_phase",
    "convergence_bound",
    "critical_beta",
    "log_partition_ratio",
    "order_parameter",
    "phase_point",
    "phase_scan",
    "quantum_critical_gap",
]

# |bound - 1| below this is labelled critical; exact equality is measure-zero.
CRITICAL_PHASE_TOL = 1e-9


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


def critical_beta(params: ModelParams) -> float | None:
    """Inverse critical temperature, or None when no transition exists.

    beta_c = (4/Omega) * atanh(Omega*omega0 / (g1+g2)^2), defined only for
    (g1+g2)^2 > omega0*Omega.  Equality is the quantum-critical point.
    """
    g = params.g1 + params.g2
    product = params.omega0 * params.Omega
    if g**2 <= product:
        return None
    return 4.0 / params.Omega * math.atanh(product / g**2)


def quantum_critical_gap(params: ModelParams) -> float:
    """(g1 + g2) - sqrt(omega0 * Omega); positive iff a finite beta_c exists."""
    return params.g1 + params.g2 - math.sqrt(params.omega0 * params.Omega)


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


def _log_sinh(y: float) -> float:
    """ln sinh(y) for y > 0, without overflow at large y."""
    return y + math.log(-math.expm1(-2.0 * y)) - math.log(2.0)


def log_partition_ratio(
    params: ModelParams, beta: float, cutoff: int = DEFAULT_CUTOFF
) -> float:
    """ln(Z/Z0) per atom-free normalization, leading order in large N.

    The Gaussian-fluctuation product over bosonic frequencies,
    prod_n [(omega_n^2 + x1)(omega_n^2 + x2) / ((omega_n^2 + omega0^2)
    (omega_n^2 + Omega^2))]^(-1/2), resums to

        sum_i ln[sinh(beta w_i / 2) / sinh(beta E_i / 2)],

    with w = (omega0, Omega) and E_i^2 = x_i the roots from
    ``mode_energy_squares``.  Defined in the normal phase only, where
    both roots are positive; the product diverges at the transition and
    the formula does not continue past it.  ``beta`` must be finite.
    ``cutoff`` is accepted for compatibility, still checked to be at
    least 10, and unused: the resummed form has no frequency cutoff.
    """
    if cutoff < 10:
        raise ValueError("cutoff must be at least 10")
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


def order_parameter(
    params: ModelParams, beta: float, *, cutoff: int = DEFAULT_CUTOFF
) -> float:
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
    ``cutoff`` is accepted for compatibility and unused: the resummed
    equation has no frequency cutoff.
    """
    del cutoff
    if classify_phase(params, beta) != "superradiant":
        return 0.0
    G = (params.g1 + params.g2) ** 2
    Omega, omega0 = params.Omega, params.omega0

    def balance(s: float) -> float:
        gap = Omega + s
        return G * math.tanh(0.25 * beta * gap) - gap * omega0

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
    params_grid: Sequence[ModelParams],
    beta_grid: Sequence[float],
    *,
    workers: int | None = None,
) -> list[PhasePoint]:
    """Cartesian scan, params outer and beta inner, deterministic order.

    Node failures never abort the scan; they surface as rows with the
    ``error`` field set and NaN numerics.  ``workers`` is accepted for
    compatibility and ignored: every node is a closed form plus one
    scalar root solve, and a thread pool only added overhead.
    """
    del workers
    if not params_grid or not beta_grid:
        raise ValueError("phase_scan requires non-empty grids")
    return [_scan_node(p, b) for p in params_grid for b in beta_grid]
