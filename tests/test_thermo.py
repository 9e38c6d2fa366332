import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import gap_order_parameter, matsubara_log_partition_ratio
from dicketherm.matsubara import fermionic_lorentzian_sum
from dicketherm.operators import HamiltonianKind, ModelParams, build_hamiltonian
from dicketherm.exact_diag import thermal_solve
from dicketherm.thermo import (
    PhasePoint,
    classify_phase,
    convergence_bound,
    critical_beta,
    log_partition_ratio,
    order_parameter,
    phase_point,
    phase_scan,
    quantum_critical_gap,
)

P_RWA = ModelParams(1.0, 1.0, g1=1.2)
P_CR = ModelParams(2.0, 1.0, g2=2.0)
P_MIX = ModelParams(1.0, 1.0, g1=0.9, g2=0.6)


def test_closed_forms_import_no_oracle_module():
    # thermo and spectrum are production code; the frequency sums and the
    # fermion map are oracles that import from them, never the reverse
    src = os.path.dirname(os.path.dirname(sys.modules["dicketherm"].__file__))
    code = (
        "import sys, dicketherm.thermo, dicketherm.spectrum\n"
        "print(sorted(m for m in ('dicketherm.matsubara', "
        "'dicketherm.fermionization') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_critical_beta_anchors():
    assert critical_beta(P_RWA) == pytest.approx(4.0 * math.atanh(1.0 / 1.44))
    assert critical_beta(P_RWA) == pytest.approx(3.4259571827498814, abs=1e-12)
    assert critical_beta(P_CR) == pytest.approx(4.0 * math.atanh(0.5))
    assert critical_beta(P_CR) == pytest.approx(2.197224577336219, abs=1e-12)


def test_critical_beta_subcritical_is_none():
    assert critical_beta(ModelParams(1.0, 1.0, g1=0.5, g2=0.4)) is None
    # the quantum-critical point itself has no finite-temperature transition
    assert critical_beta(ModelParams(1.0, 1.0, g1=1.0)) is None


def test_quantum_critical_gap():
    assert quantum_critical_gap(ModelParams(1.0, 1.0, g1=1.0)) == pytest.approx(0.0)
    assert quantum_critical_gap(P_RWA) == pytest.approx(0.2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = ModelParams(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 2.0),
            g1=rng.uniform(0.0, 2.0),
            g2=rng.uniform(0.0, 2.0),
        )
        assert (quantum_critical_gap(p) > 0.0) == (critical_beta(p) is not None)


def test_quantum_critical_gap_does_not_overflow():
    # omega0 * Omega overflows to inf here and underflows to 0 below; the
    # gaps are an ordinary -1e300 and exactly the quantum-critical 0
    p = ModelParams(1e300, 1e300)
    assert quantum_critical_gap(p) == pytest.approx(-1e300, rel=1e-15)
    tiny = ModelParams(1e-300, 1e-300, g1=1e-300)
    assert quantum_critical_gap(tiny) == 0.0


def test_convergence_bound_values():
    assert convergence_bound(P_RWA, 1.0) == pytest.approx(1.44 * math.tanh(0.25))
    beta_c = critical_beta(P_RWA)
    assert convergence_bound(P_RWA, beta_c) == pytest.approx(1.0, abs=1e-12)
    assert convergence_bound(P_RWA, 5000.0) == pytest.approx(1.44, abs=1e-9)
    with pytest.raises(ValueError):
        convergence_bound(P_RWA, 0.0)


def test_classify_phase_boundaries():
    beta_c = critical_beta(P_RWA)
    assert classify_phase(P_RWA, 0.9 * beta_c) == "normal"
    assert classify_phase(P_RWA, beta_c) == "critical"
    assert classify_phase(P_RWA, 1.1 * beta_c) == "superradiant"


@settings(max_examples=25, deadline=None)
@given(
    omega0=st.floats(min_value=0.5, max_value=2.0),
    Omega=st.floats(min_value=0.5, max_value=2.0),
    g1=st.floats(min_value=0.0, max_value=2.0),
    g2=st.floats(min_value=0.0, max_value=2.0),
    beta=st.floats(min_value=0.3, max_value=8.0),
)
def test_coupling_swap_symmetry(omega0, Omega, g1, g2, beta):
    p = ModelParams(omega0, Omega, g1=g1, g2=g2)
    q = ModelParams(omega0, Omega, g1=g2, g2=g1)
    assert convergence_bound(p, beta) == pytest.approx(convergence_bound(q, beta))
    bc_p, bc_q = critical_beta(p), critical_beta(q)
    assert (bc_p is None) == (bc_q is None)
    if bc_p is not None:
        assert bc_p == pytest.approx(bc_q)
        assert order_parameter(p, 1.5 * bc_p) == pytest.approx(
            order_parameter(q, 1.5 * bc_q), abs=1e-12
        )


def test_order_parameter_zero_in_normal_phase():
    assert order_parameter(ModelParams(1.0, 1.0, g1=0.5), 4.0) == 0.0
    beta_c = critical_beta(P_RWA)
    assert order_parameter(P_RWA, 0.9 * beta_c) == 0.0
    assert order_parameter(P_RWA, beta_c) == 0.0


def test_order_parameter_onset_and_growth():
    beta_c = critical_beta(P_MIX)
    betas = [beta_c * f for f in (1.001, 1.1, 1.5, 2.5, 5.0)]
    rhos = [order_parameter(P_MIX, b) for b in betas]
    assert all(r > 0.0 for r in rhos)
    assert all(a < b for a, b in zip(rhos, rhos[1:]))  # non-decreasing in beta
    assert rhos[0] < 1e-2 * rhos[-1]  # continuous onset


def test_order_parameter_matches_gap_equation_oracle():
    for p, beta in (
        (P_MIX, 10.0),
        (P_RWA, 6.0),
        (P_CR, 4.0),
        (ModelParams(0.8, 1.3, g1=1.1, g2=0.7), 7.0),
    ):
        assert order_parameter(p, beta) == pytest.approx(
            gap_order_parameter(p, beta), abs=1e-10
        )


def test_order_parameter_is_zero_unless_superradiant():
    p = ModelParams(1.0, 1.0, g1=1.2, g2=0.3)
    beta = 1.0000000001 * critical_beta(p)
    assert 0.0 < convergence_bound(p, beta) - 1.0 < 1e-9
    assert classify_phase(p, beta) == "critical"
    assert order_parameter(p, beta) == 0.0
    assert phase_point(p, beta).rho == 0.0


def test_order_parameter_solves_summed_saddle_condition():
    # the numerically summed frequency series, not the resummed gap
    # equation, must vanish at the returned rho: Phi'(y*) = 0
    rng = np.random.default_rng(2024)
    for _ in range(50):
        omega0, Omega = rng.uniform(0.5, 2.0, size=2)
        total = math.sqrt(omega0 * Omega) * rng.uniform(1.05, 2.0)
        frac = rng.uniform(0.0, 1.0)
        p = ModelParams(omega0, Omega, g1=frac * total, g2=(1.0 - frac) * total)
        beta = critical_beta(p) * math.exp(rng.uniform(math.log(1.001), math.log(20.0)))
        rho = order_parameter(p, beta)
        assert rho > 0.0
        kappa = (p.g1 + p.g2) ** 2 / (beta * p.omega0)
        y = rho * beta * p.omega0
        m = math.sqrt(0.25 * p.Omega**2 + kappa * y)
        assert abs(kappa * fermionic_lorentzian_sum(m, beta) - 1.0) < 1e-9


def test_order_parameter_zero_temperature_limit():
    for p in (P_RWA, P_CR, P_MIX, ModelParams(0.8, 1.3, g1=1.1, g2=0.7)):
        G = (p.g1 + p.g2) ** 2
        ground = ((G / p.omega0) ** 2 - p.Omega**2) / (4.0 * G)
        assert order_parameter(p, math.inf) == pytest.approx(ground, rel=1e-15)
        assert order_parameter(p, 1e3 * critical_beta(p)) == pytest.approx(
            ground, rel=1e-12
        )
        assert phase_point(p, math.inf).rho == order_parameter(p, math.inf)
    assert order_parameter(ModelParams(1.0, 1.0, g1=0.5), math.inf) == 0.0


def test_library_rejects_nan_beta():
    with pytest.raises(ValueError, match="beta must be positive"):
        convergence_bound(P_MIX, math.nan)
    with pytest.raises(ValueError, match="beta must be positive"):
        classify_phase(P_MIX, math.nan)
    with pytest.raises(ValueError, match="beta must be positive"):
        order_parameter(P_MIX, math.nan)
    (pt,) = phase_scan([P_MIX], [math.nan])
    assert pt.phase == "error"
    assert pt.error.startswith("ValueError: beta must be positive")


def test_log_partition_ratio_free_case():
    assert log_partition_ratio(ModelParams(1.0, 1.0), 2.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_log_partition_ratio_grows_toward_transition():
    beta_c = critical_beta(P_RWA)
    values = [log_partition_ratio(P_RWA, f * beta_c) for f in (0.5, 0.8, 0.95, 0.999)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 2.0  # static factor blowing up


def test_log_partition_ratio_rejects_superradiant():
    with pytest.raises(ValueError):
        log_partition_ratio(P_RWA, 10.0)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
def test_log_partition_ratio_rejects_non_finite_beta(beta):
    # normal phase at every temperature, so only the beta check can refuse
    p = ModelParams(1.3, 0.8, g1=0.3, g2=0.2)
    assert convergence_bound(p, math.inf) < 1.0
    with pytest.raises(ValueError, match="beta"):
        log_partition_ratio(p, beta)


def test_log_partition_ratio_matches_matsubara_sum():
    # the log-sinh sum over the quadratic's roots against the bosonic
    # Matsubara sum built term by term from kernel_a and kernel_c
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        omega0, Omega = rng.uniform(0.3, 3.0, 2)
        g1, g2 = rng.uniform(0.0, 2.0, 2)
        beta = math.exp(rng.uniform(math.log(0.2), math.log(20.0)))
        p = ModelParams(omega0, Omega, g1=g1, g2=g2)
        if convergence_bound(p, beta) > 0.95:
            continue
        checked += 1
        assert log_partition_ratio(p, beta) == pytest.approx(
            matsubara_log_partition_ratio(p, beta), abs=1e-7
        )


def test_log_partition_ratio_high_precision_anchor():
    # 30-digit mpmath.nsum of the Matsubara product at a high-temperature
    # point where a truncated sum with a quadrature tail is 3.3e-7 off
    p = ModelParams(
        1.638031142251796,
        2.72787342367874,
        g1=0.13597315448259736,
        g2=2.906123055163957,
    )
    assert log_partition_ratio(p, 0.10398838542612006) == pytest.approx(
        0.1446362514756078, abs=1e-12
    )


def test_log_partition_ratio_is_warning_free_over_beta():
    p = ModelParams(1.3, 0.8, g1=0.3, g2=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [log_partition_ratio(p, 0.05 * 1.2**k) for k in range(30)]
    assert all(math.isfinite(v) and v > 0.0 for v in values)


def test_log_partition_ratio_ed_ladder_brackets_conventions():
    # Finite-N exact diagonalization climbs monotonically away from the
    # quarter-argument value toward the half-argument variant of the same
    # fluctuation sum (0.24591 at these parameters; see the module
    # docstring note). Assert sign, monotone N-trend, and bracketing
    # rather than convergence to the adopted convention.
    p = ModelParams(1.0, 1.0, g1=0.6, g2=0.3)
    beta, n_max = 1.0, 24
    analytic = log_partition_ratio(p, beta)
    assert analytic > 0.0
    ladder = []
    for n_atoms in (2, 4, 6):
        h = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max)
        z = thermal_solve(h, beta).Z
        z_boson = sum(math.exp(-beta * p.omega0 * n) for n in range(n_max + 1))
        z_qubit = (2.0 * math.cosh(beta * p.Omega / 2.0)) ** n_atoms
        ladder.append(math.log(z / (z_boson * z_qubit)))
    half_argument_value = 0.2459145
    assert all(r > 0.0 for r in ladder)
    assert all(a < b for a, b in zip(ladder, ladder[1:]))
    assert all(analytic < r < half_argument_value for r in ladder)


def test_phase_point_fields():
    beta_c = critical_beta(P_MIX)
    pt = phase_point(P_MIX, 1.4 * beta_c)
    assert isinstance(pt, PhasePoint)
    assert pt.phase == "superradiant"
    assert pt.beta_c == pytest.approx(beta_c)
    assert pt.rho > 0.0
    normal = phase_point(P_MIX, 0.5 * beta_c)
    assert normal.phase == "normal"
    assert normal.rho == 0.0
    assert normal.error is None


def test_phase_scan_matches_single_points():
    pts = phase_scan([P_MIX], [1.0])
    single = phase_point(P_MIX, 1.0)
    assert pts[0] == single


def test_phase_scan_ordering_and_flip():
    beta_c = critical_beta(P_RWA)
    betas = [f * beta_c for f in (0.5, 0.8, 1.2, 2.0)]
    pts = phase_scan([P_RWA, P_MIX], betas)
    assert len(pts) == 8
    assert [pt.beta for pt in pts[:4]] == betas  # params outer, beta inner
    labels = [pt.phase for pt in pts[:4]]
    flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    assert flips == 1


def test_phase_scan_flips_at_quantum_critical_line():
    params = [
        ModelParams(1.0, 1.0, g1=g, g2=0.0) for g in np.linspace(0.5, 2.0, 16)
    ]
    pts = phase_scan(params, [1e6])
    labels = [pt.phase for pt in pts]
    first_not_normal = next(i for i, l in enumerate(labels) if l != "normal")
    assert params[first_not_normal].g1 == pytest.approx(1.0, abs=0.11)


def test_phase_scan_captures_per_node_errors():
    pts = phase_scan([P_MIX], [-1.0, 1.0])
    assert pts[0].phase == "error"
    assert "ValueError" in pts[0].error
    assert math.isnan(pts[0].bound)
    assert pts[1].phase == "normal"  # scan continues past the bad node


def test_phase_scan_rejects_empty_grids():
    with pytest.raises(ValueError):
        phase_scan([], [1.0])
    with pytest.raises(ValueError):
        phase_scan([P_MIX], [])
