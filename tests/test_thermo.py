import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    PhasePoint,
    classify_phase,
    gap_order_parameter,
    matsubara_log_partition_ratio,
    phase_point,
)
from dicketherm.matsubara import continue_kernels, fermionic_lorentzian_sum
from dicketherm.operators import HamiltonianKind, ModelParams, build_hamiltonian
from dicketherm.exact_diag import thermal_solve
from dicketherm import thermo
from dicketherm.spectrum import collective_modes, dispersion_residual
from dicketherm.thermo import (
    CRITICAL_PHASE_TOL,
    ParamGrid,
    convergence_bound,
    critical_beta,
    log_partition_ratio,
    mode_energies,
    order_parameter,
    phase_scan,
    quantum_critical_gap,
    tanh_factor,
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
    # deep cold, K beta / 4 >= 2^53: Newton's slope at a thermal factor of
    # one rounds to zero, and a step from hi once ran off to rho = inf
    p = ModelParams(1.0, 0.7, g1=1.3, g2=0.6)
    K = (p.g1 + p.g2) ** 2 / p.omega0
    ground = (K**2 - p.Omega**2) / (4.0 * K * p.omega0)
    for beta in (1e16, 1e20, 1e300):
        rho = order_parameter(p, beta)
        assert rho == pytest.approx(ground, rel=1e-15, abs=0.0)
        assert rho == pytest.approx(gap_order_parameter(p, beta), rel=1e-15, abs=0.0)
        assert phase_scan([p], [beta]).rho[0] == rho == order_parameter(p, math.inf)


def test_order_parameter_never_exceeds_the_zero_temperature_root():
    # superradiant nodes from just past the quantum-critical line, beta
    # log-uniform from beta_c to 1e300 (half of them to 10 beta_c, where
    # fewer nodes are saturated), and beta = inf
    rng = np.random.default_rng(30)
    n = 20_000
    omega0, Omega = np.exp(rng.uniform(math.log(0.1), math.log(10.0), (2, n)))
    g = np.sqrt(omega0 * Omega * (1.0 + np.exp(rng.uniform(-28.0, 5.0, n))))
    g1 = rng.uniform(0.0, 1.0, n) * g
    grid = ParamGrid(omega0, Omega, g1, g - g1)
    beta_c = critical_beta(grid)
    top = np.where(rng.uniform(size=n) < 0.5, 10.0 * beta_c, 1e300)
    beta = np.exp(rng.uniform(np.log(beta_c), np.log(top)))
    beta[rng.uniform(size=n) < 0.05] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = order_parameter(grid, beta)
        ground = order_parameter(grid, math.inf)
    superradiant = convergence_bound(grid, beta) - 1.0 >= CRITICAL_PHASE_TOL
    assert np.count_nonzero(superradiant) > 0.7 * n
    assert np.all(rho[superradiant] > 0.0) and np.all(rho[~superradiant] == 0.0)
    assert np.all(np.isfinite(rho)) and np.all(rho <= ground)
    K = (grid.g1 + grid.g2) / omega0 * (grid.g1 + grid.g2)
    saturated = np.tanh(0.25 * beta * K) == 1.0
    assert 0.2 * n < np.count_nonzero(saturated) < 0.8 * n
    assert np.array_equal(rho[saturated], ground[saturated])
    # factored, the closed form keeps its digits near the critical line
    closed = (K - Omega) * (K + Omega) / (4.0 * K * omega0)
    cold = ground > 0.0
    assert np.allclose(ground[cold], closed[cold], rtol=2e-15, atol=0.0)


def test_gap_solver_raises_rather_than_report_an_unconverged_root(monkeypatch):
    # one Newton step does not settle a node this close to the transition
    p = ModelParams(1.0, 1.0, g1=0.9, g2=0.6)
    beta = 1.9119784015
    assert 1.0 < convergence_bound(p, beta) < 1.001
    monkeypatch.setattr(thermo, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="still moving after 1 Newton steps"):
        order_parameter(p, beta)
    with pytest.raises(RuntimeError, match="still moving"):
        phase_scan([p], [beta])


def test_library_rejects_nan_beta():
    with pytest.raises(ValueError, match="beta must be positive"):
        convergence_bound(P_MIX, math.nan)
    with pytest.raises(ValueError, match="beta must be positive"):
        classify_phase(P_MIX, math.nan)
    with pytest.raises(ValueError, match="beta must be positive"):
        order_parameter(P_MIX, math.nan)
    with pytest.raises(ValueError, match="beta must be positive, got nan"):
        phase_scan([P_MIX], [1.0, math.nan])


@pytest.mark.parametrize("beta", [math.nan, 0.0, -0.0, -1.0, -2.0, -math.inf])
def test_every_thermal_factor_route_refuses_a_non_positive_beta(beta):
    # tanh_factor holds the one check; each public route reaches it
    p = ModelParams(1.0, 1.0, 0.5, 0.2)
    routes = [
        lambda: tanh_factor(p, beta),
        lambda: tanh_factor(ParamGrid(1.0, np.array([1.0, 2.0])), np.array([1.0, beta])),
        lambda: mode_energies(p, beta),
        lambda: thermo._node(p, beta),
        lambda: collective_modes(p, beta),
        lambda: dispersion_residual(0.3, p, beta),
        lambda: continue_kernels(0.3, p, beta),
        lambda: continue_kernels(2.0j, p, beta),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="beta must be positive"):
            route()
    # zero temperature is the factor's limit, not a refusal
    assert tanh_factor(p, math.inf) == 1.0 == tanh_factor(p, 100.0)
    assert thermo._node(p, math.inf) == thermo._node(p, 100.0)
    assert mode_energies(p, math.inf) == mode_energies(p, 100.0)
    assert collective_modes(p, math.inf).roots


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


def test_log_partition_ratio_never_drops_a_mode_near_the_transition():
    # g2 = 0: C = (omega0 Omega)^2 (1 - bound)^2 is tiny just below the
    # transition, and the unfactored C can round to 0 or below.  Each node
    # sums both modes or is refused; none returns a sum over one mode.
    p = ModelParams(1.3, 0.8, g1=1.1)
    beta_c = critical_beta(p)
    refused = 0
    for i in range(300, 6000, 10):
        beta = beta_c * (1.0 - i * 1e-11)
        assert not thermo._critical(thermo.convergence_bound(p, beta))
        energies = thermo.mode_energies(p, beta)
        try:
            value = log_partition_ratio(p, beta)
        except ValueError as exc:
            assert "two positive mode energies" in str(exc)
            assert len(energies) < 2 or energies[0] == 0.0
            refused += 1
            continue
        assert len(energies) == 2 and energies[0] > 0.0
        free = sum(thermo._log_sinh(0.5 * beta * w) for w in (p.omega0, p.Omega))
        assert value == free - sum(thermo._log_sinh(0.5 * beta * E) for E in energies)
    assert refused > 0


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_log_partition_ratio_rejects_non_finite_beta(beta):
    # normal phase at every temperature, so only the beta check can refuse,
    # with the message of every finite-beta routine
    p = ModelParams(1.3, 0.8, g1=0.3, g2=0.2)
    assert convergence_bound(p, math.inf) < 1.0
    with pytest.raises(ValueError, match="beta must be positive and finite"):
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


def test_phase_scan_matches_single_points():
    scan = phase_scan([P_MIX], [1.0])
    single = phase_point(P_MIX, 1.0)
    assert (
        ModelParams(scan.omega0[0], scan.Omega[0], scan.g1[0], scan.g2[0]),
        scan.beta[0], scan.bound[0], scan.phase[0], scan.beta_c[0],
        scan.rho[0], scan.error[0],
    ) == (
        single.params, single.beta, single.bound, single.phase,
        single.beta_c, single.rho, None,
    )


def test_phase_scan_ordering_and_flip():
    beta_c = critical_beta(P_RWA)
    betas = [f * beta_c for f in (0.5, 0.8, 1.2, 2.0)]
    scan = phase_scan([P_RWA, P_MIX], betas)
    assert len(scan) == 8
    assert list(scan.beta[:4]) == betas  # params outer, beta inner
    labels = list(scan.phase[:4])
    flips = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
    assert flips == 1


def test_phase_scan_flips_at_quantum_critical_line():
    params = [
        ModelParams(1.0, 1.0, g1=g, g2=0.0) for g in np.linspace(0.5, 2.0, 16)
    ]
    scan = phase_scan(params, [1e6])
    labels = list(scan.phase)
    first_not_normal = next(i for i, l in enumerate(labels) if l != "normal")
    assert params[first_not_normal].g1 == pytest.approx(1.0, abs=0.11)


def test_phase_scan_refuses_bad_betas_before_any_node(monkeypatch):
    import dicketherm.thermo as thermo

    def unreachable(*args):
        raise AssertionError("a node ran before the beta check")

    monkeypatch.setattr(thermo, "order_parameter", unreachable)
    monkeypatch.setattr(thermo, "critical_beta", unreachable)
    for bad in (-1.0, 0.0, -0.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="beta must be positive"):
            phase_scan([P_MIX], [1.0, bad])


def test_phase_scan_rejects_empty_grids():
    with pytest.raises(ValueError):
        phase_scan([], [1.0])
    with pytest.raises(ValueError):
        phase_scan([P_MIX], [])


def test_bound_and_beta_c_split_an_underflowing_product():
    # omega0*Omega underflows to 0, yet (g1+g2)^2 = 100 omega0 Omega
    p = ModelParams(1e-200, 1e-200, g1=1e-199)
    assert critical_beta(p) == pytest.approx(4e200 * math.atanh(0.01), rel=1e-14)
    assert convergence_bound(p, 1.0) == pytest.approx(
        100.0 * math.tanh(0.25e-200), rel=1e-14
    )
    assert phase_point(p, 1.0).phase == "normal"
    # and overflows here: (1e200)^2 / (1e300 * 1e300) = 1e-200
    q = ModelParams(1e300, 1e300, g1=1e200)
    assert convergence_bound(q, math.inf) == pytest.approx(1e-200, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in (p, q):
            grid = ParamGrid(params.omega0, params.Omega, g1=np.array([params.g1]))
            bound = convergence_bound(grid, np.array([1.0]))
            assert bound[0] == convergence_bound(params, 1.0)
            assert np.isnan(critical_beta(grid)[0]) == (critical_beta(params) is None)
        assert critical_beta(ParamGrid(1e-200, 1e-200, g1=1e-199)) == critical_beta(p)


# (params, beta, bound, beta_c): the bound's true value, inf where it
# lies outside the float range, and beta_c's, None where there is none.
# Omega tiny and subnormal, an underflowing and an overflowing omega0 *
# Omega, r = (omega0/g)(Omega/g) underflowing to zero, and beta = inf;
# then nodes where one factor of the split forms leaves the float range
# although the result does not: g/omega0, g/omega0 * g, t/Omega (beta =
# inf, Omega subnormal, zero coupling), Omega/g and beta/4.  A subnormal
# beta_c is checked to within one step of the subnormal grid; nothing
# else has an absolute tolerance, so a tiny value must hold its digits.
_FLOAT_RANGE_NODES = [
    (ModelParams(1.0, 1e-300, g1=1.0), 1.0, 0.25, 4.0),
    (ModelParams(1.0, 1e-310, g1=1.0), 1.0, 0.25, 4.0),
    (ModelParams(1.0, 5e-324, g1=1.0), 1.0, 0.25, 4.0),
    (ModelParams(1e-200, 1e-200, g1=1e-199), 1.0, 2.5e-199, 4e200 * math.atanh(0.01)),
    (ModelParams(1e300, 1e300, g1=1e200), 1.0, 1e-200, None),
    (ModelParams(1.0, 1e-310, g1=1e10), 1.0, 2.5e19, 4e-20),
    (P_MIX, math.inf, 2.25, 4.0 * math.atanh(1.0 / 2.25)),
    (ModelParams(1.0, 1e-310, g1=1.0), math.inf, math.inf, 4.0),
    (ModelParams(1e300, 1e300, g1=1e200), math.inf, 1e-200, None),
    (ModelParams(5e-320, 1e300, g1=1e-10), 1.0, 1e-10**2 / (5e-320 * 1e300), None),
    (ModelParams(1e-300, 1e300, g1=1e10), 1.0, 1e10**2 / (1e-300 * 1e300), 4e-320),
    # beta_c = 4e-400 rounds to 0
    (ModelParams(1.0, 1e300, g1=1e200), 1.0, 1e100, 0.0),
    (
        ModelParams(1e300, 1e-300, g1=1e-10),
        1e300,
        1e-10**2 * math.tanh(0.25 * 1e300 * 1e-300) / (1e300 * 1e-300),
        None,
    ),
    (ModelParams(1.0, 1e-310), math.inf, 0.0, None),
    (ModelParams(1.0, 1.0, g1=1e160), 5e-324, 1e160 * (1e160 * 5e-324) / 4.0, 4e-320),
    (
        ModelParams(1e-320, 1e300, g1=1e-9),
        1.0,
        1e-9**2 / (1e-320 * 1e300),
        4.0 * math.atanh(1e-320 * 1e300 / 1e-9**2) / 1e300,
    ),
]


@pytest.mark.parametrize("params, beta, bound, beta_c", _FLOAT_RANGE_NODES)
def test_closed_forms_hold_over_the_whole_float_range(params, beta, bound, beta_c):
    grid = ParamGrid(params.omega0, params.Omega, params.g1, params.g2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        array_bound = convergence_bound(grid, np.array([beta]))[0]
        array_beta_c = critical_beta(grid)
        scan = phase_scan([params], [beta])
    if math.isinf(bound):
        assert array_bound == math.inf
        with pytest.raises(OverflowError):
            convergence_bound(params, beta)
        assert scan.phase[0] == "error"
        assert scan.error[0].startswith("OverflowError: ")
    else:
        assert array_bound == pytest.approx(bound, rel=1e-14, abs=0.0)
        assert convergence_bound(params, beta) == array_bound
        assert (scan.bound[0], scan.error[0]) == (array_bound, None)
    if beta_c is None:
        assert critical_beta(params) is None
        assert np.isnan(array_beta_c)
    else:
        assert array_beta_c == pytest.approx(beta_c, rel=1e-14, abs=5e-324)
        assert critical_beta(params) == array_beta_c
        assert scan.phase[0] == "error" or scan.beta_c[0] == array_beta_c
    assert (quantum_critical_gap(params) > 0) == (critical_beta(params) is not None)


def test_order_parameter_holds_where_the_gap_squared_overflows():
    # zero-temperature limit rho = ((G/omega0)^2 - Omega^2) / (4 G), G = g^2:
    # at g = 1e100 the gap D = 1e200 has D^2 outside the float range, at
    # g = 7e153 so has 4 G, while G / 4 is in range, at omega0 = 0.4,
    # g = 6e153 so has 4 rho = G / omega0^2, and at omega0 = 1e300,
    # g = 1e200 so has G, while G / omega0 = 1e100 is in range, and at
    # omega0 = 1, g = 1.342e154 so has K = G / omega0, while rho is not
    nodes = (
        (1.0, 1e100, 2.5e199),
        (1.0, 7e153, 7e153**2 / 4.0),
        (0.4, 6e153, 5.625e307),
        (1e300, 1e200, 2.5e-201),
        (1.0, 1.342e154, (1.342e154 / 2.0) ** 2),
    )
    for omega0, g, rho in nodes:
        p = ModelParams(omega0, 1.0, g1=g)
        assert order_parameter(p, 1.0) == pytest.approx(rho, rel=1e-14)
        assert phase_scan([p], [1.0]).rho[0] == order_parameter(p, 1.0)
        # the same node in another power-of-two unit
        q = ModelParams(omega0 * 2.0**-512, 2.0**-512, g1=g * 2.0**-512)
        assert order_parameter(q, 2.0**512) == order_parameter(p, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    node=st.tuples(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.0, max_value=3.0) | st.just(0.0),
        st.floats(min_value=0.0, max_value=3.0) | st.just(0.0),
    ),
    beta=st.floats(min_value=0.05, max_value=10.0) | st.just(math.inf) | st.none(),
    k=st.integers(min_value=-300, max_value=300),
)
def test_bound_beta_c_and_rho_do_not_depend_on_the_unit(node, beta, k):
    # energies times 2^k and beta times 2^-k is exact; the bound and rho
    # are dimensionless, so they do not change, and beta_c scales by 2^-k
    p = ModelParams(*node)
    beta_c = critical_beta(p)
    if beta is None:
        beta = beta_c or 1.0
    scaled_node = [math.ldexp(v, k) for v in node]
    scaled_beta = math.ldexp(beta, -k)
    inputs = zip((*node, beta), (*scaled_node, scaled_beta))
    assume(all(v == 0.0 or sys.float_info.min <= w for v, w in inputs))
    q = ModelParams(*scaled_node)
    assert convergence_bound(q, scaled_beta) == convergence_bound(p, beta)
    assert order_parameter(q, scaled_beta) == order_parameter(p, beta)
    scaled_beta_c = critical_beta(q)
    if beta_c is None:
        assert scaled_beta_c is None
    else:
        assert scaled_beta_c == math.ldexp(beta_c, -k)
    # the array route of phase_scan too
    base, scaled = phase_scan([p], [beta]), phase_scan([q], [scaled_beta])
    assert (scaled.bound[0], scaled.phase[0]) == (base.bound[0], base.phase[0])
    assert scaled.rho[0] == base.rho[0]
    if beta_c is None:
        assert np.isnan(scaled.beta_c[0])
    else:
        assert scaled.beta_c[0] == math.ldexp(base.beta_c[0], -k)


def test_out_of_range_bound_still_overflows():
    p = ModelParams(1.0, 1.0, g1=5e199)
    with pytest.raises(OverflowError):
        convergence_bound(p, 1.0)
    scan = phase_scan([ModelParams(1.0, 1.0, g1=1.0), p], [1.0])
    assert list(scan.phase) == ["normal", "error"]
    assert scan.error[1].startswith("OverflowError: ")
    assert math.isnan(scan.bound[1]) and math.isnan(scan.rho[1])


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1.0, -1.0), "Omega must be positive"),
        ((np.array([1.0, 0.0]), 1.0), "omega0 must be positive"),
        ((1.0, 1.0, np.array([0.5, math.nan])), "g1 must be non-negative"),
        ((1.0, 1.0, 0.5, math.inf), "g2 must be non-negative"),
    ],
)
def test_param_grid_rejects_values_outside_the_model(fields, message):
    with pytest.raises(ValueError, match=message):
        ParamGrid(*fields)


def _near_critical_betas(params, exponents):
    beta_c = critical_beta(params)
    return [] if beta_c is None else [beta_c * (1.0 + 10.0**x) for x in exponents]


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(
            st.floats(min_value=0.2, max_value=5.0),
            st.floats(min_value=0.2, max_value=5.0),
            st.floats(min_value=0.0, max_value=3.0),
            st.floats(min_value=0.0, max_value=3.0),
        ),
        min_size=1,
        max_size=4,
    ),
    betas=st.lists(
        st.one_of(st.floats(min_value=0.05, max_value=50.0), st.just(math.inf)),
        min_size=1,
        max_size=5,
    ),
    exponents=st.lists(st.floats(min_value=-8.0, max_value=0.5), max_size=4),
)
def test_phase_scan_columns_match_the_per_node_route(nodes, betas, exponents):
    params = [ModelParams(*node) for node in nodes]
    betas = betas + _near_critical_betas(params[0], exponents)
    scan = phase_scan(params, betas)
    assert len(scan) == len(params) * len(betas)
    i = 0
    for p in params:
        beta_c = critical_beta(p)
        for beta in betas:
            pt = phase_point(p, beta)
            assert (scan.beta[i], scan.phase[i], scan.error[i]) == (beta, pt.phase, None)
            assert scan.bound[i] == pytest.approx(pt.bound, rel=1e-15)
            assert math.isnan(scan.beta_c[i]) == (beta_c is None)
            if beta_c is not None:
                assert scan.beta_c[i] == pytest.approx(beta_c, rel=1e-15)
            rtol = 4.5e-14 if pt.bound >= 1.01 else 1e-12
            assert scan.rho[i] == pytest.approx(pt.rho, rel=rtol, abs=0.0)
            i += 1


@pytest.mark.parametrize(
    "params, beta, rho",
    [
        # 50-digit mpmath roots of the gap equation at these binary inputs
        (ModelParams(1.0, 1.0, g1=0.9, g2=0.6), 1.9119784015, 0.0006970047536398565),
        (ModelParams(0.8, 1.3, g1=0.35, g2=1.1), 1.66863218227, 0.0003866071955383813),
        # a high-temperature transition: beta_c Omega / 4 = 0.095
        (ModelParams(2.0, 0.5, g1=3.0, g2=0.25), 0.760203384874, 0.0013738211607707362),
    ],
)
def test_order_parameter_near_transition_anchors(params, beta, rho):
    bound = convergence_bound(params, beta)
    assert 1.0 < bound < 1.001
    # the bound carries a few ulps of rounding, which the root amplifies
    # by 1 / (bound - 1) this close to the transition
    rtol = 20.0 * np.finfo(float).eps / (bound - 1.0)
    assert order_parameter(params, beta) == pytest.approx(rho, rel=rtol)
    grid = ParamGrid(params.omega0, params.Omega, params.g1, params.g2)
    assert order_parameter(grid, np.array([beta]))[0] == pytest.approx(rho, rel=rtol)


def test_array_route_mixes_every_regime_without_warnings():
    beta_c = critical_beta(P_MIX)
    betas = np.array(
        [0.5 * beta_c, beta_c, 1.0000000001 * beta_c, 1.5 * beta_c, 40.0 * beta_c, math.inf]
    )
    # a column of two parameter nodes against a row of betas: a 2 x 6 grid
    grid = ParamGrid(1.0, 1.0, g1=np.array([[0.2], [0.9]]), g2=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = convergence_bound(grid, betas)
        rho = order_parameter(grid, betas)
        scan = phase_scan(grid, list(betas))
    assert bound.shape == rho.shape == (2, 6)
    assert list(scan.phase[6:]) == [
        "normal", "critical", "critical", "superradiant", "superradiant", "superradiant"
    ]
    assert list(scan.rho) == list(rho.ravel())
    for row, g1 in enumerate((0.2, 0.9)):
        p = ModelParams(1.0, 1.0, g1=g1, g2=0.6)
        for col, beta in enumerate(betas):
            assert bound[row, col] == convergence_bound(p, float(beta))
            assert rho[row, col] == order_parameter(p, float(beta))


def _node_near_the_transition(omega0, Omega, beta, ratio, share):
    """A node whose coupling sum is ``ratio`` times the one that puts the
    bound at one at this beta, split by ``share``; None where the sum is
    not positive and finite."""
    t = tanh_factor(ModelParams(omega0, Omega), beta)
    with np.errstate(all="ignore"):
        g = ratio * math.sqrt(omega0) * math.sqrt(Omega) / math.sqrt(t) if t else math.inf
    if not 0.0 < g < math.inf:
        return None
    return ModelParams(omega0, Omega, g1=g * share, g2=g * (1.0 - share))


@settings(max_examples=400, deadline=None)
@given(
    omega0=st.floats(min_value=1e-150, max_value=1e150),
    Omega=st.floats(min_value=1e-150, max_value=1e150),
    beta=st.floats(min_value=1e-150, max_value=1e150) | st.just(math.inf),
    ratio=st.floats(min_value=0.25, max_value=4.0)
    | st.floats(min_value=-1e-8, max_value=1e-8).map(lambda x: 1.0 + x)
    | st.sampled_from([1e-200, 1e200]),
    share=st.floats(min_value=0.0, max_value=1.0),
)
def test_scalar_node_bound_and_label_are_the_scan_s(omega0, Omega, beta, ratio, share):
    # the one scalar evaluation of a node gives the bound and phase label
    # that the array route of phase_scan gives it, to the bit, near the
    # transition and across the float range
    p = _node_near_the_transition(omega0, Omega, beta, ratio, share)
    assume(p is not None)
    scan = phase_scan([p], [beta])
    phase = scan.phase[0]
    if phase == "error":
        with pytest.raises(OverflowError, match=thermo._BOUND_OVERFLOW):
            convergence_bound(p, beta)
        return
    bound = convergence_bound(p, beta)
    assert bound.hex() == float(scan.bound[0]).hex()
    assert thermo._node(p, beta).bound == bound
    try:
        at_critical = collective_modes(p, beta).at_critical
    except ValueError as exc:
        # energies too far apart for one unit, and nothing else
        assert "too wide to share one energy unit" in str(exc)
    else:
        assert at_critical == (phase == "critical")
    if beta == math.inf:
        return
    try:
        log_partition_ratio(p, beta)
    except ValueError as exc:
        message = str(exc)
        if phase == "normal":
            assert "two positive mode energies" in message or "one energy unit" in message
        else:
            assert message == (
                f"log_partition_ratio requires the normal phase; the node is {phase}, "
                f"with convergence bound {bound!r}"
            )
    else:
        assert phase == "normal"


@pytest.mark.parametrize(
    "route",
    [
        lambda p, beta: convergence_bound(p, beta),
        lambda p, beta: mode_energies(p, beta),
        lambda p, beta: log_partition_ratio(p, beta),
        lambda p, beta: dispersion_residual(0.3, p, beta),
    ],
    ids=["convergence_bound", "mode_energies", "log_partition_ratio", "dispersion_residual"],
)
def test_each_scalar_node_route_takes_one_tanh(route, monkeypatch):
    calls = []
    tanh = np.tanh

    def counted(x):
        calls.append(x)
        return tanh(x)

    monkeypatch.setattr(np, "tanh", counted)
    # tanh rounds to its argument at the second beta, where the bound
    # takes beta / 4 for t / Omega; the quadratic still reads t
    for beta in (2.0, 1e-9):
        calls.clear()
        route(ModelParams(1.0, 1.3, g1=0.4, g2=0.3), beta)
        assert len(calls) == 1
