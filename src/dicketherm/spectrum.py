"""Collective excitation spectrum from the continued dispersion relation.

The mode condition is (1 - a(E))(1 - a(-E)) - 4 c(E)^2 = 0 on the real
axis.  It equals Q(E^2) / ((omega0^2 - E^2)(Omega^2 - E^2)) with
Q(x) = x^2 - B x + C, so the mode energies are the square roots of the
closed-form roots of Q (``dicketherm.thermo.mode_energy_squares``, with
the coefficients and the thermal factor from the same module); no root
finder runs.  Residuals are reported from the same rational form, which
keeps them near machine precision instead of the 1e-8 cancellation
noise of the raw kernel product.  The kernel poles at Omega and omega0
are guarded here (``PoleProximityError``, ``default_pole_epsilon``);
the oracle ``dicketherm.matsubara.continue_kernels`` shares the guard.
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

    Parallel tuples: ``brackets[i]`` is the pole-free window the root
    lies in for ordinary roots and None for the E=0 and pole-coincident
    entries.  Labels: "mode" for ordinary roots, "goldstone" for the E=0
    root on the (g1+g2) branch, "secondary-branch" for the algebraic E=0
    root at tanh(beta Omega/4)(g1-g2)^2 = omega0 Omega (present in the
    dispersion function but without a stated physical role), and
    "pole-degenerate" for a root masked by an exact kernel-pole
    coincidence, detected on the numerator polynomial.
    """

    roots: tuple[float, ...]
    residuals: tuple[float, ...]
    brackets: tuple[tuple[float, float] | None, ...]
    multiplicities: tuple[int, ...]
    labels: tuple[str, ...]
    params: ModelParams
    beta: float
    at_critical: bool
    messages: tuple[str, ...] = ()


def dispersion_residual(E: float, params: ModelParams, beta: float) -> float:
    """Dispersion-relation residual at real energy E; zero at a mode.

    Normalized so that g1 = g2 = 0 gives 1 at every E.  Refuses energies
    within the pole epsilon of Omega or omega0.
    """
    if E < 0.0:
        raise ValueError(f"E must be non-negative, got {E}")
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


def _zero_energy_entry(params: ModelParams, t: float, B: float) -> dict | None:
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
    if abs(residual) >= RESIDUAL_TOL:
        return None
    double = abs(B) < RESIDUAL_TOL * max(1.0, params.omega0**2 + params.Omega**2)
    label = "goldstone" if abs(primary) <= abs(secondary) else "secondary-branch"
    return {
        "root": 0.0,
        "residual": abs(residual),
        "bracket": None,
        "multiplicity": 2 if double else 1,
        "label": label,
    }


def _pole_coincidence_entries(
    params: ModelParams, B: float, C: float
) -> list[dict]:
    """Roots of the numerator Q sitting exactly on a kernel pole.

    At such points the rational residual has a removable singularity and
    a finite nonzero limit, and the root sits on a window edge where the
    window search cannot see it; Q(p^2) itself is the witness.
    """
    entries = []
    for p in sorted({params.Omega, params.omega0}):
        x = p * p
        q_val = x * x - B * x + C
        scale = max(1.0, x * x + abs(B) * x + abs(C))
        if abs(q_val) / scale < RESIDUAL_TOL:
            entries.append(
                {
                    "root": p,
                    "residual": abs(q_val) / scale,
                    "bracket": None,
                    "multiplicity": 1,
                    "label": "pole-degenerate",
                }
            )
    return entries


def collective_modes(params: ModelParams, beta: float) -> SpectrumResult:
    """Dispersion roots in [0, 3(Omega + omega0)].

    The mode energies are E = sqrt(x) for the real roots x of
    x^2 - B x + C (``mode_energy_squares``).  A root is kept when it lies
    in one of the pole-free windows [lo + offset, hi - offset] between
    0, the kernel poles and the upper end, offset = max(2 eps, 1e-13
    (hi - lo)); a window without a root adds a message.  The E=0
    candidate and pole-coincident numerator roots are handled by their
    closed-form witnesses; the E=0 entry replaces as many roots of the
    quadratic as its multiplicity, the smallest in magnitude.  Then
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

    def residual(E: float) -> float:
        x = E * E
        return (x * x - B * x + C) / ((w0sq - x) * (Wsq - x))

    eps = default_pole_epsilon(params)
    upper = 3.0 * (params.Omega + params.omega0)
    poles = sorted({params.Omega, params.omega0})
    edges = [0.0] + poles + [upper]

    entries: list[dict] = []
    messages: list[str] = []

    # Q has two roots; the E=0 entry stands for the ones nearest x = 0,
    # so rounding cannot report them a second time as tiny modes.
    squares = sorted(_quadratic_roots(params, t, B, C) or (), key=abs)
    zero = _zero_energy_entry(params, t, B)
    if zero is not None:
        entries.append(zero)
        squares = squares[zero["multiplicity"] :]
    energies = [math.sqrt(x) for x in squares if x >= 0.0]

    for lo, hi in zip(edges[:-1], edges[1:]):
        offset = max(2.0 * eps, 1e-13 * (hi - lo))
        window = (lo + offset, hi - offset)
        inside = [E for E in energies if window[0] <= E <= window[1]]
        for root in inside:
            entries.append(
                {
                    "root": root,
                    "residual": abs(residual(root)),
                    "bracket": window,
                    "multiplicity": 1,
                    "label": "mode",
                }
            )
        if not inside:
            messages.append(f"no sign change in ({lo:.6g}, {hi:.6g})")

    entries.extend(_pole_coincidence_entries(params, B, C))

    entries.sort(key=lambda e: e["root"])
    merged: list[dict] = []
    for entry in entries:
        if merged and entry["root"] - merged[-1]["root"] < _DEDUP_TOL:
            keep = merged[-1]
            # A window root merging into a closed-form entry re-detects
            # the same analytic root, so multiplicities combine by max
            # there; two window roots within the dedup width are a
            # double or closely spaced pair and add up.
            if keep["label"] == "mode" and entry["label"] == "mode":
                keep["multiplicity"] += entry["multiplicity"]
            else:
                keep["multiplicity"] = max(
                    keep["multiplicity"], entry["multiplicity"]
                )
            if entry["residual"] < keep["residual"]:
                keep["residual"] = entry["residual"]
            if keep["label"] == "mode" and entry["label"] != "mode":
                keep["label"] = entry["label"]
        else:
            merged.append(dict(entry))

    bc = critical_beta(params)
    at_critical = bc is not None and abs(beta - bc) <= 1e-9 * max(1.0, bc)
    return SpectrumResult(
        roots=tuple(e["root"] for e in merged),
        residuals=tuple(e["residual"] for e in merged),
        brackets=tuple(e["bracket"] for e in merged),
        multiplicities=tuple(e["multiplicity"] for e in merged),
        labels=tuple(e["label"] for e in merged),
        params=params,
        beta=beta,
        at_critical=at_critical,
        messages=tuple(messages),
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
