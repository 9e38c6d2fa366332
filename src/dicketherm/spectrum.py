"""Collective excitation spectrum from the continued dispersion relation.

The mode condition is (1 - a(E))(1 - a(-E)) - 4 c(E)^2 = 0 on the real
axis.  It equals Q(E^2) / ((omega0^2 - E^2)(Omega^2 - E^2)) with
Q(x) = x^2 - B x + C, so the mode energies are the square roots of the
closed-form roots of Q (``dicketherm.thermo.mode_energy_squares``, with
the coefficients and the thermal factor from the same module); no root
finder runs, and one filter keeps the modes at least twice the pole
epsilon from 0, from each kernel pole and from the upper end.
Residuals are reported from the same rational form, which keeps them
near machine precision instead of the 1e-8 cancellation noise of the
raw kernel product.  The kernel poles at Omega and omega0 are guarded
here (``PoleProximityError``, ``default_pole_epsilon``); the oracle
``dicketherm.matsubara.continue_kernels`` shares the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dicketherm.operators import ModelParams
from dicketherm.thermo import (
    _quadratic,
    _quadratic_roots,
    critical_beta,
    kernel_determinant_coefficients,
    tanh_factor,
)

__all__ = [
    "PoleProximityError",
    "RESIDUAL_TOL",
    "SpectrumResult",
    "collective_modes",
    "default_pole_epsilon",
    "dispersion_residual",
    "goldstone_residual",
]

RESIDUAL_TOL = 1e-9
_DEDUP_TOL = 1e-8


class PoleProximityError(ValueError):
    """Energy argument too close to a kernel pole for stable evaluation."""


def default_pole_epsilon(params: ModelParams) -> float:
    return 1e-9 * max(params.Omega, params.omega0)


@dataclass(frozen=True)
class SpectrumResult:
    """Roots of the dispersion relation at one (params, beta) point.

    Parallel tuples, sorted by root.  Labels: "mode" for ordinary roots,
    "goldstone" for the E=0 root on the (g1+g2) branch,
    "secondary-branch" for the algebraic E=0 root at
    tanh(beta Omega/4)(g1-g2)^2 = omega0 Omega (present in the
    dispersion function but without a stated physical role), and
    "pole-degenerate" for a root masked by an exact kernel-pole
    coincidence, detected on the numerator polynomial.
    """

    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    multiplicities: tuple[int, ...]
    labels: tuple[str, ...]
    params: ModelParams
    beta: float
    at_critical: bool


def dispersion_residual(E: float, params: ModelParams, beta: float) -> float:
    """Dispersion-relation residual at real energy E; zero at a mode.

    Normalized so that g1 = g2 = 0 gives 1 at every E.  Refuses energies
    within the pole epsilon of Omega or omega0.
    """
    if not 0.0 <= E < math.inf:
        raise ValueError(f"E must be non-negative and finite, got {E}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    eps = default_pole_epsilon(params)
    if min(abs(E - params.Omega), abs(E - params.omega0)) < eps:
        raise PoleProximityError(
            f"E = {E} within {eps:.3e} of a kernel pole"
        )
    B, C = kernel_determinant_coefficients(params, beta)
    x = E * E
    return (x * x - B * x + C) / (
        (params.omega0**2 - x) * (params.Omega**2 - x)
    )


def _zero_energy_entry(params: ModelParams, t: float, B: float) -> list | None:
    """E=0 root candidate from the factorized static residual.

    R(0) = (1 - (g1+g2)^2 u)(1 - (g1-g2)^2 u), u = t / (omega0 Omega)
    with t = tanh(beta Omega/4), and B the quadratic's linear
    coefficient.  Returns the root entry when |R(0)| < RESIDUAL_TOL.
    The root is double (in x = E^2) exactly when the linear coefficient
    of the numerator quadratic also vanishes, which is the Omega = omega0
    single-coupling corner where the gapped branch collapses onto the
    Goldstone root.
    """
    u = t / (params.omega0 * params.Omega)
    primary = 1.0 - (params.g1 + params.g2) ** 2 * u
    secondary = 1.0 - (params.g1 - params.g2) ** 2 * u
    residual = primary * secondary
    if not abs(residual) < RESIDUAL_TOL:  # a NaN residual is no root
        return None
    double = abs(B) < RESIDUAL_TOL * max(1.0, params.omega0**2 + params.Omega**2)
    label = "goldstone" if abs(primary) <= abs(secondary) else "secondary-branch"
    return [0.0, abs(residual), 2 if double else 1, label]


def _pole_coincidence_entries(
    params: ModelParams, B: float, C: float
) -> list[list]:
    """Roots of the numerator Q sitting exactly on a kernel pole.

    At such points the rational residual has a removable singularity and
    a finite nonzero limit, and the mode filter drops the root as too
    close to the pole; Q(p^2) itself is the witness.
    """
    entries = []
    for p in sorted({params.Omega, params.omega0}):
        x = p * p
        q_val = x * x - B * x + C
        scale = max(1.0, x * x + abs(B) * x + abs(C))
        if abs(q_val) / scale < RESIDUAL_TOL:
            entries.append([p, abs(q_val) / scale, 1, "pole-degenerate"])
    return entries


def collective_modes(params: ModelParams, beta: float) -> SpectrumResult:
    """Dispersion roots in [0, 3(Omega + omega0)].

    The mode energies are E = sqrt(x) for the real roots x of
    x^2 - B x + C (``mode_energy_squares``).  A root is kept when
    2 eps <= E <= 3(Omega + omega0) - 2 eps and E <= p - 2 eps or
    E >= p + 2 eps for each kernel pole p, eps the pole epsilon.  The
    E=0 candidate and pole-coincident numerator roots are handled by
    their closed-form witnesses; the E=0 entry replaces as many roots of
    the quadratic as its multiplicity, the smallest in magnitude.  Then
    everything is merged, sorted, and deduplicated within 1e-8 with
    multiplicity accumulation, so a double root is one entry of
    multiplicity 2.
    """
    if params.g1 + params.g2 <= 0.0:
        raise ValueError("collective_modes requires g1 + g2 > 0")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")

    # one thermal factor and one (B, C) serve every root of the node
    t = tanh_factor(params, beta)
    B, C = _quadratic(params, t)
    w0sq, Wsq = params.omega0**2, params.Omega**2

    guard = 2.0 * default_pole_epsilon(params)
    top = 3.0 * (params.Omega + params.omega0) - guard
    poles = {params.Omega, params.omega0}

    # entry: [root, residual, multiplicity, label]
    entries: list[list] = []
    # Q has two roots; the E=0 entry stands for the ones nearest x = 0,
    # so rounding cannot report them a second time as tiny modes.
    squares = sorted(_quadratic_roots(params, t, B, C) or (), key=abs)
    zero = _zero_energy_entry(params, t, B)
    if zero is not None:
        entries.append(zero)
        squares = squares[zero[2] :]
    for E in [math.sqrt(x) for x in squares if x >= 0.0]:
        if guard <= E <= top and all(
            E <= p - guard or E >= p + guard for p in poles
        ):
            # the residual at the reported root, as dispersion_residual(E)
            x = E * E
            residual = (x * x - B * x + C) / ((w0sq - x) * (Wsq - x))
            entries.append([E, abs(residual), 1, "mode"])
    entries.extend(_pole_coincidence_entries(params, B, C))

    entries.sort(key=lambda e: e[0])
    merged: list[list] = []
    for root, residual, multiplicity, label in entries:
        if merged and root - merged[-1][0] < _DEDUP_TOL:
            keep = merged[-1]
            # A mode merging into a closed-form entry re-detects the same
            # analytic root, so multiplicities combine by max there; two
            # modes within the dedup width are a double or closely spaced
            # pair and add up.
            if keep[3] == "mode" and label == "mode":
                keep[2] += multiplicity
            else:
                keep[2] = max(keep[2], multiplicity)
            keep[1] = min(keep[1], residual)
            if keep[3] == "mode":
                keep[3] = label
        else:
            merged.append([root, residual, multiplicity, label])

    bc = critical_beta(params)
    at_critical = bc is not None and abs(beta - bc) <= 1e-9 * max(1.0, bc)
    roots, residuals, multiplicities, labels = (
        tuple(zip(*merged)) if merged else ((),) * 4
    )
    return SpectrumResult(
        roots=roots,
        residuals=residuals,
        multiplicities=multiplicities,
        labels=labels,
        params=params,
        beta=beta,
        at_critical=at_critical,
    )


def goldstone_residual(params: ModelParams) -> float:
    """Dispersion residual at E = 0 and beta = beta_c; zero by construction.

    Rejects parameter sets without a finite critical temperature.
    """
    bc = critical_beta(params)
    if bc is None:
        raise ValueError(
            "goldstone_residual requires (g1+g2)^2 > omega0*Omega "
            "(finite critical temperature)"
        )
    return dispersion_residual(0.0, params, bc)
