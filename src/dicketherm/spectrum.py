"""Collective excitation spectrum from the continued dispersion relation.

The mode condition is (1 - a(E))(1 - a(-E)) - 4 c(E)^2 = 0 on the real
axis, a and c being the kernels' one closed form
``dicketherm.matsubara.continue_kernels`` at z = E.  It equals
Q(E^2) / ((omega0^2 - E^2)(Omega^2 - E^2)) with Q(x) = x^2 - B x + C,
so the mode energies are the square roots of the closed-form roots of Q
(``dicketherm.thermo.mode_energies``); no root finder runs, and each
real root of Q is reported once.  Every tolerance is relative, and each
node is solved in its own power-of-two energy unit, so its spectrum is
the same in any unit.  A node is evaluated once (``thermo._node``): one
tanh gives its phase label, the coefficients B and C and the roots of
Q, which the entries and their residuals all read.  Residuals come from
the same rational form, near machine precision.  The kernel poles at
Omega and omega0 are guarded here (``PoleProximityError``,
``default_pole_epsilon``), and ``continue_kernels`` refuses a z within
the same epsilon of a pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from dicketherm.operators import ModelParams
from dicketherm.thermo import _critical, _in_one_unit, _node, _Node, critical_beta

__all__ = [
    "PoleProximityError",
    "RESIDUAL_TOL",
    "SpectrumResult",
    "check_coupled",
    "collective_modes",
    "default_pole_epsilon",
    "dispersion_residual",
    "goldstone_residual",
]

RESIDUAL_TOL = 1e-9
# two roots closer than this, relative to the larger, are one double root
_DEDUP_TOL = 1e-8


class PoleProximityError(ValueError):
    """Energy argument too close to a kernel pole for stable evaluation."""


def check_coupled(params: ModelParams) -> None:
    """Refuse what ``collective_modes`` refuses before solving: g1 + g2 = 0."""
    if params.g1 + params.g2 <= 0.0:
        raise ValueError("collective_modes requires g1 + g2 > 0")


def default_pole_epsilon(params: ModelParams) -> float:
    return 1e-9 * max(params.Omega, params.omega0)


@dataclass(frozen=True)
class SpectrumResult:
    """Roots of the dispersion relation at one (params, beta) point.

    Parallel tuples, sorted by root.  Labels: "mode" for ordinary roots,
    "goldstone" for the E=0 root at a node labelled critical, and
    "pole-degenerate" for a root of Q within twice the pole epsilon of a
    kernel pole, reported at the pole.  ``at_critical`` is that label,
    the one ``dicketherm.thermo.phase_scan`` gives the node.
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
    within the pole epsilon of Omega or omega0.  Evaluated in the node's
    own unit (``thermo._node``), like ``collective_modes``.
    """
    if not 0.0 <= E < math.inf:
        raise ValueError(f"E must be non-negative and finite, got {E}")
    node = _in_one_unit(_node(params, beta))
    eps = default_pole_epsilon(params)
    if min(abs(E - params.Omega), abs(E - params.omega0)) < eps:
        raise PoleProximityError(f"E = {E} within {eps:.3e} of a kernel pole")
    E = math.ldexp(E, -node.e)
    return _residual(node, E * E)


def _residual(node: _Node, x: float) -> float:
    """Q(x) / ((omega0^2 - x)(Omega^2 - x)), all in the node's unit."""
    return (x * x - node.B * x + node.C) / ((node.omega0**2 - x) * (node.Omega**2 - x))


def collective_modes(params: ModelParams, beta: float) -> SpectrumResult:
    """Dispersion roots in [0, 3(Omega + omega0)], one entry per root.

    One evaluation of the node (``thermo._node``) gives its phase label
    and its quadratic in the node's own unit; energies too far apart for
    one unit are refused, and the roots are scaled back exactly.  A
    node whose convergence bound is labelled critical has an E=0
    "goldstone" entry, with residual ``dispersion_residual(0)``; it is
    double where B also vanishes, relative to omega0^2 + Omega^2 (the
    omega0 = Omega single-coupling corner, where the gapped branch
    collapses onto it), and stands for that many of the smallest roots
    x of Q.  Each other E = sqrt(x) is dropped outside [2 eps,
    3(Omega + omega0) - 2 eps], eps the pole epsilon; within 2 eps of a
    kernel pole p it is pole-degenerate at p, with residual
    |Q(p^2)| / (p^4 + |B| p^2 + |C|); else it is a mode.  Two
    entries within a relative 1e-8 are one of multiplicity 2, at the
    root and with the label of the E=0 or pole-degenerate entry if there
    is one.
    """
    check_coupled(params)
    # energies that share one unit give a bound in the float range
    node = _in_one_unit(_node(params, beta))
    B, C = node.B, node.C
    at_critical = _critical(node.bound)
    poles = (node.Omega, node.omega0)
    guard = 2.0 * default_pole_epsilon(node)
    top = 3.0 * sum(poles) - guard

    # entry: [root, residual, multiplicity, label], in the node's unit
    entries: list[list] = []
    # Q has two roots; the E=0 entry stands for the ones nearest x = 0,
    # so rounding cannot report them a second time as tiny modes.
    squares = sorted(node.roots or (), key=abs)
    if at_critical:
        count = 2 if abs(B) < RESIDUAL_TOL * (node.omega0**2 + node.Omega**2) else 1
        entries.append([0.0, abs(_residual(node, 0.0)), count, "goldstone"])
        squares = squares[count:]
    for E in [math.sqrt(x) for x in squares if x >= 0.0]:
        if not guard <= E <= top:
            continue
        p = min(poles, key=lambda pole: abs(E - pole))
        if p - guard < E < p + guard:
            x = p * p
            scale = x * x + abs(B) * x + abs(C)
            entries.append([p, abs(x * x - B * x + C) / scale, 1, "pole-degenerate"])
        else:
            # the residual at the reported root, as dispersion_residual(E)
            entries.append([E, abs(_residual(node, E * E)), 1, "mode"])
    entries.sort(key=lambda entry: entry[0])
    if len(entries) == 2 and entries[1][0] - entries[0][0] <= _DEDUP_TOL * entries[1][0]:
        # a closed-form entry (at E = 0 or a pole) outranks a mode, its
        # root with its label; two modes keep the smaller root
        kept, other = sorted(entries, key=lambda entry: entry[3] == "mode")
        entries = [[kept[0], min(kept[1], other[1]), 2, kept[3]]]
    roots, residuals, multiplicities, labels = (
        tuple(zip(*entries)) if entries else ((),) * 4
    )
    return SpectrumResult(
        roots=tuple(math.ldexp(root, node.e) for root in roots),
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
