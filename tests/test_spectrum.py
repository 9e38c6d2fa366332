import math

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


def test_nan_static_residual_is_no_zero_energy_root():
    # omega0 * Omega = 1e-322 makes u = t / (omega0 Omega) infinite and
    # (g1 + g2)^2 = 1e-372 underflows to 0, so the residual is 0 * inf
    p = ModelParams(1e-164, 1e-158, g1=1e-186)
    t = thermo.tanh_factor(p, 4.4e283)
    B, _ = spectrum._quadratic(p, t)
    assert t == 1.0
    assert spectrum._zero_energy_entry(p, t, B) is None


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


@pytest.mark.parametrize("where", ["zero", "Omega", "omega0", "upper"])
def test_mode_filter_boundary(monkeypatch, where):
    # a mode exactly 2 eps from 0, a pole or the upper end is kept; one
    # float further in is dropped
    p = ModelParams(1.0, 2.0, g1=0.3, g2=0.1)
    guard = 2.0 * spectrum.default_pole_epsilon(p)
    edge = {
        "zero": 0.0,
        "Omega": p.Omega,
        "omega0": p.omega0,
        "upper": 3.0 * (p.Omega + p.omega0),
    }[where]
    sides = {"zero": (1.0,), "upper": (-1.0,)}.get(where, (-1.0, 1.0))
    for side in sides:
        kept = edge + side * guard
        dropped = math.nextafter(kept, edge)
        for E, expected in ((kept, (kept,)), (dropped, ())):
            assert math.sqrt(E * E) == E
            monkeypatch.setattr(
                spectrum, "_quadratic_roots", lambda *args, x=E * E: (x,)
            )
            result = collective_modes(p, 1.0)
            assert result.roots == expected
            assert result.labels == ("mode",) * len(expected)


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
    # both branches sit at E = sqrt(omega0^2 - t g2^2)
    p = ModelParams(1.0, 1.0, g2=0.8)
    beta = 2.0
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
        assert result.labels[0] in ("goldstone", "secondary-branch")
        assert sum(result.multiplicities) <= 2
        assert all(r == 0.0 or r > 1e-3 for r in result.roots)


@pytest.mark.parametrize("at_critical", [False, True])
def test_collective_modes_takes_one_thermal_factor(monkeypatch, at_critical):
    # one tanh_factor and one (B, C) per node, whichever module asks
    calls = {"tanh_factor": 0, "_quadratic": 0}
    for name in calls:
        original = getattr(thermo, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(thermo, name, counted)
        monkeypatch.setattr(spectrum, name, counted)
    p = P_RWA if at_critical else ModelParams(1.0, 1.0, g1=0.4, g2=0.3)
    result = collective_modes(p, critical_beta(p) if at_critical else 2.0)
    assert result.at_critical == at_critical
    assert ("goldstone" in result.labels) == at_critical
    assert calls == {"tanh_factor": 1, "_quadratic": 1}
