import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicketherm.spectrum as spectrum
import dicketherm.thermo as thermo
from dicketherm.operators import ModelParams
from dicketherm.spectrum import (
    PoleProximityError,
    SpectrumResult,
    collective_modes,
    dispersion_residual,
    goldstone_residual,
)
from dicketherm.thermo import critical_beta

P_RWA = ModelParams(1.0, 1.0, g1=1.2)
P_CR = ModelParams(2.0, 1.0, g2=2.0)


def _quadratic_coefficients(params, beta):
    t = math.tanh(beta * params.Omega / 4.0)
    w0, W = params.omega0, params.Omega
    g1, g2 = params.g1, params.g2
    b = w0**2 + W**2 + 2.0 * t * (g1**2 - g2**2)
    c = (
        w0**2 * W**2
        - 2.0 * t * w0 * W * (g1**2 + g2**2)
        + t**2 * (g1**2 - g2**2) ** 2
    )
    return b, c


def test_dispersion_residual_free_case_is_one():
    p = ModelParams(1.0, 1.0)
    assert dispersion_residual(0.7, p, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_dispersion_residual_rejects_bad_arguments():
    with pytest.raises(ValueError):
        dispersion_residual(-0.5, P_RWA, 2.0)
    for E in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative and finite"):
            dispersion_residual(E, P_RWA, 2.0)
    with pytest.raises(ValueError):
        dispersion_residual(0.5, P_RWA, 0.0)


def test_dispersion_residual_pole_guard():
    with pytest.raises(PoleProximityError):
        dispersion_residual(P_RWA.Omega, P_RWA, 2.0)


def test_dispersion_residual_refuses_the_span_before_the_pole():
    # the node's unit is taken first, so E at the pole Omega of a node too
    # wide for one unit gets the span message, not PoleProximityError
    p = ModelParams(1.0, 1e-160, g1=1e-80)
    with pytest.raises(ValueError, match="too wide to share one energy unit") as info:
        dispersion_residual(p.Omega, p, 1.0)
    assert not isinstance(info.value, PoleProximityError)


def test_residual_vanishes_on_critical_roots():
    beta_c = critical_beta(P_RWA)
    assert abs(dispersion_residual(1e-8, P_RWA, beta_c)) < 1e-10
    b, _ = _quadratic_coefficients(P_RWA, beta_c)
    assert abs(dispersion_residual(math.sqrt(b), P_RWA, beta_c)) < 1e-10


def test_residual_matches_rational_form():
    # off criticality the residual equals (E^4 - B E^2 + C) over the
    # product of pole factors
    p = ModelParams(1.3, 0.8, g1=0.7, g2=0.4)
    beta = 1.7
    b, c = _quadratic_coefficients(p, beta)
    for e in (0.3, 0.77, 1.9, 2.6):
        x = e * e
        expected = (x * x - b * x + c) / ((p.omega0**2 - x) * (p.Omega**2 - x))
        assert dispersion_residual(e, p, beta) == pytest.approx(expected, rel=1e-10)


def test_zero_frequency_residual_product_formula():
    p = ModelParams(1.1, 0.9, g1=0.5, g2=0.3)
    beta = 2.4
    t = math.tanh(beta * p.Omega / 4.0)
    u = t / (p.omega0 * p.Omega)
    expected = (1.0 - (p.g1 + p.g2) ** 2 * u) * (1.0 - (p.g1 - p.g2) ** 2 * u)
    assert dispersion_residual(1e-9, p, beta) == pytest.approx(expected, rel=1e-6)


def test_far_from_critical_node_in_the_float_range_corner_has_no_zero_energy_root():
    # omega0 * Omega = 1e-322 and (g1 + g2)^2 = 1e-372 underflows to 0, so
    # a static residual formed from u = t / (omega0 Omega) is 0 * inf; the
    # bound, about 1e-50, labels the node normal, and both roots of Q sit
    # at the kernel poles
    p = ModelParams(1e-164, 1e-158, g1=1e-186)
    result = collective_modes(p, 4.4e283)
    assert not result.at_critical
    assert result.roots == (1e-164, 1e-158)
    assert result.labels == ("pole-degenerate", "pole-degenerate")
    assert result.multiplicities == (1, 1)


@settings(max_examples=30, deadline=None)
@given(
    omega0=st.floats(min_value=0.6, max_value=1.8),
    g1=st.floats(min_value=0.0, max_value=1.5),
    g2=st.floats(min_value=0.0, max_value=1.5),
    beta=st.floats(min_value=0.4, max_value=6.0),
    e=st.floats(min_value=2.2, max_value=5.0),
)
def test_factored_and_expanded_forms_agree(omega0, g1, g2, beta, e):
    # evaluation points above both poles, so neither form is singular
    p = ModelParams(omega0, 2.0, g1=g1, g2=g2)
    b, c = _quadratic_coefficients(p, beta)
    x = e * e
    expanded = (x * x - b * x + c) / ((p.omega0**2 - x) * (p.Omega**2 - x))
    assert dispersion_residual(e, p, beta) == pytest.approx(
        expanded, rel=1e-9, abs=1e-12
    )


def test_goldstone_residual_vanishes_at_transition():
    assert abs(goldstone_residual(P_RWA)) < 1e-10
    assert abs(goldstone_residual(P_CR)) < 1e-10


def test_goldstone_residual_rejects_subcritical():
    with pytest.raises(ValueError):
        goldstone_residual(ModelParams(1.0, 1.0, g1=0.5))


def test_collective_modes_anchor_rwa():
    beta_c = critical_beta(P_RWA)
    result = collective_modes(P_RWA, beta_c)
    assert isinstance(result, SpectrumResult)
    assert result.at_critical
    assert result.roots == pytest.approx((0.0, 2.0), abs=1e-9)
    assert result.labels == ("goldstone", "mode")
    assert result.multiplicities == (1, 1)
    assert all(abs(r) < 1e-9 for r in result.residuals)


def test_collective_modes_anchor_counterrotating():
    beta_c = critical_beta(P_CR)
    result = collective_modes(P_CR, beta_c)
    assert result.roots == pytest.approx((0.0, 1.0), abs=1e-9)
    assert result.labels == ("goldstone", "pole-degenerate")
    assert result.multiplicities == (1, 1)


def test_critical_gapped_mode_closed_form():
    # for g1 = g2 on resonance the gapped branch sits at Omega * sqrt(2)
    p = ModelParams(1.0, 1.0, g1=0.8, g2=0.8)
    result = collective_modes(p, critical_beta(p))
    assert result.roots[-1] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    # general closed form sqrt(B) at criticality
    for q in (P_RWA, P_CR, ModelParams(0.7, 1.4, g1=0.9, g2=0.5)):
        beta_c = critical_beta(q)
        b, c = _quadratic_coefficients(q, beta_c)
        assert abs(c) < 1e-9
        res = collective_modes(q, beta_c)
        assert res.roots[-1] == pytest.approx(math.sqrt(b), abs=1e-8)


def test_degenerate_root_multiplicity():
    # pure counter-rotating coupling on resonance: both branches collapse
    # onto the zero root at the transition
    p = ModelParams(1.0, 1.0, g2=1.0 + 1e-9)
    beta_c = critical_beta(p)
    result = collective_modes(p, beta_c)
    assert result.roots == pytest.approx((0.0,), abs=1e-6)
    assert result.multiplicities == (2,)
    assert result.labels == ("goldstone",)


# beta / beta_c of each node, and the phase labels there: near the quantum
# critical point the bound moves so slowly that 1e-4 of beta_c is critical
_LABEL_RATIOS = (0.99, 0.9999, 0.999999, 1.0, 1.000001, 1.0001)
_ACROSS = ("normal",) * 3 + ("critical",) + ("superradiant",) * 2


@pytest.mark.parametrize(
    "p, phases",
    [
        (ModelParams(1.0, 1.0, g1=1.2), _ACROSS),
        (ModelParams(1.0, 1.0, g1=1.0000001), ("normal",) + ("critical",) * 5),
        (ModelParams(2.0, 1.0, g2=2.0), _ACROSS),
        (ModelParams(1.0, 1.0, g1=0.7, g2=0.5), _ACROSS),
    ],
)
def test_spectrum_and_partition_ratio_follow_the_phase_label(p, phases):
    # the phase label of phase_scan is the one criticality rule: the
    # Goldstone root and at_critical appear exactly at critical nodes,
    # log_partition_ratio refuses every node that is not normal, and a
    # normal node's modes are the square roots of the quadratic's roots
    betas = [r * critical_beta(p) for r in _LABEL_RATIOS]
    assert tuple(thermo.phase_scan([p], betas).phase) == phases
    for beta, phase in zip(betas, phases):
        result = collective_modes(p, beta)
        assert result.at_critical == (phase == "critical"), beta
        assert ("goldstone" in result.labels) == (phase == "critical"), beta
        if phase != "normal":
            with pytest.raises(ValueError, match="requires the normal phase"):
                thermo.log_partition_ratio(p, beta)
            continue
        assert math.isfinite(thermo.log_partition_ratio(p, beta))
        energies = thermo.mode_energies(p, beta)
        for E, label in zip(result.roots, result.labels):
            if label == "mode":
                nearest = min(energies, key=lambda root: abs(root - E))
                assert abs(E - nearest) <= 1e-10 * max(1.0, E), (beta, E, energies)


def test_rootless_node_returns_no_roots():
    result = collective_modes(ModelParams(1.0, 1.0, g2=2.0), 5.0)
    assert result.roots == ()
    assert not result.at_critical


def test_roots_sorted_and_clear_of_poles():
    p = ModelParams(1.3, 0.8, g1=0.7, g2=0.4)
    result = collective_modes(p, 1.7)
    assert list(result.roots) == sorted(result.roots)
    assert len(set(np.round(result.roots, 9))) == len(result.roots)
    assert result.roots and _kept(p, result.roots)
    assert all(abs(r) < 1e-9 for r in result.residuals)


def _give_roots(monkeypatch, squares):
    """Make ``collective_modes`` see these roots of Q, in the node's unit."""
    node = thermo._node
    monkeypatch.setattr(spectrum, "_node", lambda *args: node(*args)._replace(roots=squares))


@pytest.mark.parametrize("where", ["zero", "Omega", "omega0", "upper"])
def test_mode_filter_boundary(monkeypatch, where):
    # in the node's own unit, where the classifier runs, a root exactly
    # 2 eps from 0, a pole or the upper end is a mode; one float further
    # in it is dropped at 0 and at the upper end, and is pole-degenerate
    # at a pole, reported at the pole
    p = ModelParams(1.0, 2.0, g1=0.3, g2=0.1)
    unit = thermo._node(p, 1.0)
    e = unit.e
    assert (unit.omega0, unit.Omega, e) == (0.25, 0.5, 2)
    guard = 2.0 * spectrum.default_pole_epsilon(unit)
    edge = {
        "zero": 0.0,
        "Omega": unit.Omega,
        "omega0": unit.omega0,
        "upper": 3.0 * (unit.Omega + unit.omega0),
    }[where]
    sides = {"zero": (1.0,), "upper": (-1.0,)}.get(where, (-1.0, 1.0))
    at_pole = ((edge,), ("pole-degenerate",)) if edge in (unit.Omega, unit.omega0) else ((), ())
    for side in sides:
        kept = edge + side * guard
        inside = math.nextafter(kept, edge)
        for E, (roots, labels) in ((kept, ((kept,), ("mode",))), (inside, at_pole)):
            assert math.sqrt(E * E) == E
            _give_roots(monkeypatch, (E * E,))
            result = collective_modes(p, 1.0)
            assert result.roots == tuple(math.ldexp(r, e) for r in roots)
            assert result.labels == labels


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_mode_merged_into_a_pole_root_is_reported_at_the_pole(monkeypatch, side):
    # a mode 5e-9 (relative) from the pole Omega, outside the 2 eps guard,
    # and a root inside it are one pole-degenerate entry at Omega, on
    # either side of the pole
    p = ModelParams(1.0, 2.0, g1=0.3, g2=0.1)
    pole = thermo._node(p, 1.0).Omega
    squares = ((pole * (1.0 + side * 5e-9)) ** 2, (pole * (1.0 - side * 5e-10)) ** 2)
    _give_roots(monkeypatch, squares)
    result = collective_modes(p, 1.0)
    assert result.roots == (p.Omega,)
    assert result.multiplicities == (2,)
    assert result.labels == ("pole-degenerate",)


def test_off_critical_flag_and_goldstone_absence():
    beta_c = critical_beta(P_RWA)
    result = collective_modes(P_RWA, 0.7 * beta_c)
    assert not result.at_critical
    assert "goldstone" not in result.labels
    assert all(r > 1e-6 for r in result.roots)


def test_collective_modes_rejects_nan_beta():
    with pytest.raises(ValueError, match="beta"):
        collective_modes(ModelParams(1.0, 1.0, g1=0.5), math.nan)


def test_collective_modes_rejects_free_model():
    with pytest.raises(ValueError):
        collective_modes(ModelParams(1.0, 1.0), 2.0)


def test_resonant_counterrotating_double_mode():
    # omega0 = Omega with g1 = 0: x^2 - B x + C is a perfect square, so
    # both branches sit at E = sqrt(omega0^2 - t g2^2); at g2 = 0.01 that
    # is 1.2e-5 below the pole, and nothing is reported at the pole itself
    for g2, beta in ((0.8, 2.0), (0.01, 1.0)):
        p = ModelParams(1.0, 1.0, g2=g2)
        t = math.tanh(beta * p.Omega / 4.0)
        result = collective_modes(p, beta)
        assert result.roots == pytest.approx(
            (math.sqrt(p.omega0**2 - t * p.g2**2),), rel=1e-14
        )
        assert result.multiplicities == (2,)
        assert result.labels == ("mode",)


def test_close_pair_resolved():
    # a small rotating coupling splits the double mode by about 1.6e-3
    p = ModelParams(1.0, 1.0, g1=1e-3, g2=0.8)
    beta = 2.0
    b, c = _quadratic_coefficients(p, beta)
    half_gap = math.sqrt(b * b - 4.0 * c) / 2.0
    expected = (math.sqrt(b / 2.0 - half_gap), math.sqrt(b / 2.0 + half_gap))
    result = collective_modes(p, beta)
    assert result.roots == pytest.approx(expected, rel=1e-9)
    assert result.multiplicities == (1, 1)
    assert result.labels == ("mode", "mode")


@pytest.mark.parametrize("g2", [1.3, 1.7, 2.2, 3.0])
def test_critical_resonant_double_goldstone_only(g2):
    # both roots of the quadratic are the E = 0 double root; rounding must
    # not add a third, tiny mode next to it
    p = ModelParams(1.2, 1.2, g2=g2)
    result = collective_modes(p, critical_beta(p))
    assert result.roots == (0.0,)
    assert result.multiplicities == (2,)
    assert result.labels == ("goldstone",)


def _kept(p, energies):
    """Every E at least 2 eps from 0, from each pole and from the upper end."""
    guard = 2.0 * spectrum.default_pole_epsilon(p)
    upper = 3.0 * (p.Omega + p.omega0)
    return all(
        guard <= E <= upper - guard
        and all(E <= q - guard or E >= q + guard for q in (p.Omega, p.omega0))
        for E in energies
    )


def _factored_roots(p, beta):
    """E with E^2 a real root of x^2 - B x + C, from the factored discriminant."""
    t = math.tanh(beta * p.Omega / 4.0)
    w0, W = p.omega0, p.Omega
    disc = (w0**2 - W**2) ** 2 + 4.0 * t * (
        p.g1**2 * (w0 + W) ** 2 - p.g2**2 * (w0 - W) ** 2
    )
    if disc < 0.0:
        return []
    b, c = _quadratic_coefficients(p, beta)
    q = 0.5 * (b + math.copysign(math.sqrt(disc), b))
    return sorted(math.sqrt(x) for x in (q, c / q) if x >= 0.0)


def test_roots_equal_factored_discriminant_roots():
    rng = np.random.default_rng(404)
    checked = 0
    while checked < 300:
        omega0, Omega = rng.uniform(0.3, 3.0, 2)
        g1, g2 = rng.uniform(0.0, 3.0, 2) * rng.integers(0, 2, 2)
        if g1 + g2 == 0.0:
            continue
        beta = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        p = ModelParams(omega0, Omega, g1=g1, g2=g2)
        energies = _factored_roots(p, beta)
        # non-degenerate: no root near E = 0, a pole, another root or the
        # upper end, and no E = 0 root of the dispersion function
        marks = [0.0, p.Omega, p.omega0, 3.0 * (p.Omega + p.omega0), *energies]
        marks.sort()
        if min(b - a for a, b in zip(marks, marks[1:])) < 1e-6:
            continue
        expected = [e for e in energies if _kept(p, [e])]
        result = collective_modes(p, beta)
        checked += 1
        assert result.labels == ("mode",) * len(expected)
        assert result.multiplicities == (1,) * len(expected)
        assert result.roots == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_critical_spectrum_counts_at_most_two_roots():
    # the quadratic has two roots in x = E^2; the E = 0 entry stands for
    # the ones at the origin, so multiplicities never add up past two
    rng = np.random.default_rng(17)
    for _ in range(200):
        omega0, Omega = rng.uniform(0.3, 3.0, 2)
        g1, g2 = rng.uniform(0.0, 3.0, 2) * rng.integers(0, 2, 2)
        p = ModelParams(omega0, Omega, g1=g1, g2=g2)
        beta_c = critical_beta(p)
        if beta_c is None:
            continue
        result = collective_modes(p, beta_c)
        assert result.labels[0] == "goldstone"
        assert sum(result.multiplicities) <= 2
        assert all(r == 0.0 or r > 1e-3 for r in result.roots)


@pytest.mark.parametrize("at_critical", [False, True])
def test_collective_modes_takes_one_thermal_factor(monkeypatch, at_critical):
    # one tanh taken and one evaluation of the node per node, whichever
    # module asks and whichever tanh it calls
    calls = {"np.tanh": 0, "math.tanh": 0, "_node": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(np, "tanh", counting("np.tanh", np.tanh))
    monkeypatch.setattr(math, "tanh", counting("math.tanh", math.tanh))
    node = counting("_node", thermo._node)
    for module in (thermo, spectrum):
        monkeypatch.setattr(module, "_node", node)
    p = P_RWA if at_critical else ModelParams(1.0, 1.0, g1=0.4, g2=0.3)
    beta = critical_beta(p) if at_critical else 2.0
    result = collective_modes(p, beta)
    assert result.at_critical == at_critical
    assert ("goldstone" in result.labels) == at_critical
    assert calls == {"np.tanh": 1, "math.tanh": 0, "_node": 1}


def test_mixed_detuning_reports_exactly_the_quadratic_roots():
    # omega0 / Omega from 1e-3 to 1e3: every kept root is a mode, none is
    # reported at a pole it does not sit on
    rng = np.random.default_rng(2103)
    checked = 0
    while checked < 5000:
        omega0 = float(rng.uniform(0.3, 3.0))
        Omega = omega0 * 10.0 ** rng.uniform(-3.0, 3.0)
        scale = math.sqrt(omega0 * Omega)
        g1, g2 = rng.uniform(0.0, 1.5, 2) * rng.integers(0, 2, 2) * scale
        if g1 + g2 == 0.0:
            continue
        beta = 10.0 ** rng.uniform(-1.0, 1.0) / min(omega0, Omega)
        p = ModelParams(omega0, Omega, g1=float(g1), g2=float(g2))
        energies = thermo.mode_energies(p, beta)
        marks = sorted([0.0, p.Omega, p.omega0, 3.0 * (p.Omega + p.omega0), *energies])
        if any(b - a < 1e-6 * b for a, b in zip(marks, marks[1:])):
            continue
        result = collective_modes(p, beta)
        checked += 1
        expected = [e for e in energies if _kept(p, [e])]
        assert result.labels == ("mode",) * len(expected)
        assert result.roots == pytest.approx(expected, rel=1e-14, abs=0.0)


_UNIT_NODES = st.tuples(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0) | st.just(0.0),
    st.floats(min_value=0.0, max_value=3.0) | st.just(0.0),
)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(
    node=_UNIT_NODES,
    beta=st.floats(min_value=0.05, max_value=10.0) | st.none(),
    k=st.integers(min_value=-1000, max_value=1000),
)
def test_spectrum_and_partition_ratio_do_not_depend_on_the_unit(node, beta, k):
    # energies times 2^k and beta times 2^-k is exact; each energy out of
    # collective_modes then scales by 2^k and nothing else changes
    if node[2] + node[3] == 0.0:
        node = (*node[:2], 0.5, node[3])
    p = ModelParams(*node)
    if beta is None:
        beta = critical_beta(p) or 1.0
    scaled_node = [math.ldexp(v, k) for v in node]
    scaled_beta = math.ldexp(beta, -k)
    inputs = zip((*node, beta), (*scaled_node, scaled_beta))
    if not all(v == 0.0 or sys.float_info.min <= w for v, w in inputs):
        return
    q = ModelParams(*scaled_node)
    base, scaled = collective_modes(p, beta), collective_modes(q, scaled_beta)
    assert scaled.roots == tuple(math.ldexp(r, k) for r in base.roots)
    assert scaled.residuals == base.residuals
    assert scaled.multiplicities == base.multiplicities
    assert scaled.labels == base.labels
    assert scaled.at_critical == base.at_critical
    lpr = _outcome(thermo.log_partition_ratio, p, beta)
    assert _outcome(thermo.log_partition_ratio, q, scaled_beta) == lpr
    energies = thermo.mode_energies(p, beta)
    assert thermo.mode_energies(q, scaled_beta) == tuple(math.ldexp(E, k) for E in energies)


@pytest.mark.parametrize(
    "params, beta",
    [
        (ModelParams(1e300, 1e-300, g1=1e-10), 1e300),
        (ModelParams(1.0, 1e-160, g1=1e-80), 1.0),
        (ModelParams(1e-100, 1e-100, g1=1.0), 1e-150),
    ],
)
def test_energies_too_far_apart_for_one_unit_are_refused(params, beta):
    # the span message, not a misleading domain error from a rounded-away
    # energy or an overflow inside the quadratic
    for f in (collective_modes, thermo.log_partition_ratio, thermo.mode_energies):
        with pytest.raises(ValueError, match="span .* too wide to share one energy unit"):
            f(params, beta)


def test_beta_far_from_the_energies_is_no_reason_to_refuse():
    # beta enters only through beta E, so 1/beta need not share the unit
    p = ModelParams(1.0, 1.0, g1=0.5)
    result = collective_modes(p, 1e308)
    assert result.roots == (0.5, 1.5)
    assert result.labels == ("mode", "mode")
    assert thermo.log_partition_ratio(p, 1e308) == 0.0


def test_float_range_nodes_solve_in_their_own_unit():
    # the same node at 1e-200 and 1e200: no ZeroDivisionError from
    # u = t / (omega0 Omega), no OverflowError from omega0^2, in the
    # spectrum, the partition ratio or either residual
    p = ModelParams(1.2, 1.0, g1=0.6, g2=0.3)
    base = collective_modes(p, 1.5)
    assert base.labels == ("mode", "mode")
    for k in (-664, 664):
        q = ModelParams(*(math.ldexp(v, k) for v in (1.2, 1.0, 0.6, 0.3)))
        result = collective_modes(q, math.ldexp(1.5, -k))
        assert result.roots == tuple(math.ldexp(r, k) for r in base.roots)
        assert thermo.log_partition_ratio(q, math.ldexp(1.5, -k)) == (
            thermo.log_partition_ratio(p, 1.5)
        )
        E = math.ldexp(0.7, k)
        residual = dispersion_residual(E, q, math.ldexp(1.5, -k))
        assert residual == dispersion_residual(0.7, p, 1.5)
        critical = ModelParams(*(math.ldexp(v, k) for v in (1.0, 2.0, 3.0, 0.0)))
        assert abs(goldstone_residual(critical)) < 1e-10


@pytest.mark.parametrize("k", [-600, 500])
def test_mode_energies_far_from_unit_scale_are_the_spectrum_modes(k):
    # in the caller's unit E^2 underflows to 0 at 2^-600 and C overflows
    # at 2^500; E itself is in range, and so are the energies
    q = ModelParams(*(math.ldexp(v, k) for v in (1.3, 0.8, 0.4, 0.2)))
    beta = math.ldexp(1.0, -k)
    result = collective_modes(q, beta)
    assert result.labels == ("mode", "mode")
    assert thermo.mode_energies(q, beta) == result.roots
    base = thermo.mode_energies(ModelParams(1.3, 0.8, 0.4, 0.2), 1.0)
    assert result.roots == tuple(math.ldexp(E, k) for E in base)
    assert all(E > 0.0 for E in base)


def test_soft_roots_far_below_the_largest_energy_keep_their_own_entries():
    # both tolerances are relative to the roots they compare, not to the
    # node's unit, which here is set by a coupling 1e3 to 1e5 times larger
    # than the modes: a pair split by about 1e-6 of its energy stays two
    # modes, and at beta_c a soft mode at |omega0 - Omega| (B = (omega0 -
    # Omega)^2, far below omega0^2 + Omega^2) is no second Goldstone root
    pair = collective_modes(ModelParams(1e-3, 1e-3, g1=1.0, g2=1.0), 1e-15)
    assert pair.labels == ("mode", "mode")
    assert 5e-10 < pair.roots[1] - pair.roots[0] < 5e-9
    p = ModelParams(1e-5, 3e-5, g2=1.0)
    soft = collective_modes(p, critical_beta(p))
    assert soft.labels == ("goldstone", "mode")
    assert soft.multiplicities == (1, 1)
    assert soft.roots[1] == pytest.approx(2e-5, rel=1e-6)
