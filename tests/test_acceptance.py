"""End-to-end acceptance checks, one test per guaranteed behavior.

Every test pairs a library result with an independent route to the same
number (closed form, brute-force diagonalization, or a frozen anchor) and
asserts agreement at the stated tolerance.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from _oracles import finite_sum_critical_beta, gap_order_parameter
from dicketherm.cli import main
from dicketherm.fermionization import verify_trace_identity
from dicketherm.matsubara import a0_c0_sum, fermionic_lorentzian_sum
from dicketherm.operators import ModelParams
from dicketherm.spectrum import collective_modes, goldstone_residual
from dicketherm.thermo import critical_beta, order_parameter, phase_scan

ANCHOR_RWA = ModelParams(1.0, 1.0, g1=1.2)
ANCHOR_CR = ModelParams(2.0, 1.0, g2=2.0)


def _supercritical_draws(n, seed=7):
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n:
        omega0 = rng.uniform(0.5, 2.0)
        Omega = rng.uniform(0.5, 2.0)
        total = math.sqrt(omega0 * Omega) * rng.uniform(1.05, 2.0)
        frac = rng.uniform(0.0, 1.0)
        draws.append(
            ModelParams(omega0, Omega, g1=frac * total, g2=(1.0 - frac) * total)
        )
    return draws


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


def test_critical_temperature_anchors_and_finite_sum_cross_check():
    assert critical_beta(ANCHOR_RWA) == pytest.approx(
        3.4259571827498814, abs=1e-12
    )
    assert critical_beta(ANCHOR_CR) == pytest.approx(
        2.197224577336219, abs=1e-12
    )
    for p in _supercritical_draws(20):
        closed = critical_beta(p)
        assert closed is not None
        assert finite_sum_critical_beta(p) == pytest.approx(closed, rel=1e-8)


def test_critical_spectrum_limiting_cases_and_closed_form():
    # rotating coupling only: gapped branch at Omega + omega0
    for p in (
        ANCHOR_RWA,
        ModelParams(0.7, 1.4, g1=1.1),
        ModelParams(2.0, 0.5, g1=1.3),
    ):
        result = collective_modes(p, critical_beta(p))
        assert result.roots[0] == pytest.approx(0.0, abs=1e-9)
        assert result.roots[-1] == pytest.approx(p.Omega + p.omega0, abs=1e-8)
        assert all(abs(r) < 1e-9 for r in result.residuals)
    # counter-rotating only: gapped branch at |Omega - omega0|, which for
    # omega0 = 2 Omega lands exactly on the atomic pole
    for p in (ANCHOR_CR, ModelParams(1.5, 1.0, g2=1.3)):
        result = collective_modes(p, critical_beta(p))
        assert result.roots[0] == pytest.approx(0.0, abs=1e-9)
        assert result.roots[-1] == pytest.approx(
            abs(p.Omega - p.omega0), abs=1e-8
        )
    assert "pole-degenerate" in collective_modes(
        ANCHOR_CR, critical_beta(ANCHOR_CR)
    ).labels
    # mixed couplings: gapped branch matches sqrt(B) from the quadratic form
    for p in _supercritical_draws(20, seed=13):
        beta_c = critical_beta(p)
        b, c = _quadratic_coefficients(p, beta_c)
        assert abs(c) < 1e-9 * max(1.0, abs(b))
        result = collective_modes(p, beta_c)
        assert result.at_critical
        assert result.roots[-1] == pytest.approx(math.sqrt(b), rel=1e-8)
        assert all(abs(r) < 1e-9 for r in result.residuals)


def test_goldstone_condition_at_transition():
    assert abs(goldstone_residual(ANCHOR_RWA)) < 1e-10
    assert abs(goldstone_residual(ANCHOR_CR)) < 1e-10
    for p in _supercritical_draws(20, seed=21):
        assert abs(goldstone_residual(p)) < 1e-10


def test_fermionic_map_trace_identity_grid():
    for n_atoms in (1, 2):
        for n_max in (4, 8):
            for beta in (0.5, 1.0, 2.0, 5.0):
                for g1, g2 in ((0.0, 0.0), (0.4, 0.0), (0.0, 0.4), (0.4, 0.3)):
                    p = ModelParams(1.0, 1.0, g1=g1, g2=g2)
                    assert (
                        verify_trace_identity(p, n_atoms, n_max, beta) < 1e-8
                    )


def test_frequency_sums_match_closed_forms():
    for beta in (0.5, 2.0, 5.0):
        for m in (0.25, 0.5, 2.0):
            exact = beta / (2.0 * m) * math.tanh(beta * m / 2.0)
            assert fermionic_lorentzian_sum(m, beta) == pytest.approx(
                exact, abs=1e-10
            )
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = ModelParams(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 2.0),
            g1=rng.uniform(0.0, 1.5),
            g2=rng.uniform(0.0, 1.5),
        )
        beta = rng.uniform(0.3, 6.0)
        kv = a0_c0_sum(0, p, beta)
        t = math.tanh(beta * p.Omega / 4.0)
        closed = t * (p.g1 + p.g2) ** 2 / (p.omega0 * p.Omega)
        assert kv.a + 2.0 * kv.c == pytest.approx(closed, abs=1e-8)


def test_order_parameter_onset_and_gap_equation_oracle():
    for p in _supercritical_draws(10, seed=42):
        beta_c = critical_beta(p)
        assert order_parameter(p, 0.9 * beta_c) == 0.0
        assert order_parameter(p, beta_c) == 0.0
        near = order_parameter(p, beta_c * (1.0 + 1e-4))
        deep = order_parameter(p, 2.0 * beta_c)
        assert 0.0 < near < 1e-2 * deep
        assert order_parameter(p, 1.7 * beta_c) == pytest.approx(
            gap_order_parameter(p, 1.7 * beta_c), abs=1e-8
        )


def test_finite_size_photon_density_trends():
    from dicketherm.exact_diag import photon_density_curve

    strong = ModelParams(12.0, 1.0, g1=0.8 * math.sqrt(12.0), g2=0.8 * math.sqrt(12.0))
    beta_c = critical_beta(strong)
    points = photon_density_curve(strong, 2.0 * beta_c, (2, 4, 6, 8))
    dens = [pt.photons_per_atom for pt in points]
    assert all(a < b for a, b in zip(dens, dens[1:]))
    assert all(pt.truncation_error_estimate < 1e-6 for pt in points)

    weak = ModelParams(6.0, 1.0, g1=0.98, g2=0.98)
    points = photon_density_curve(weak, 3.30, (2, 4, 6, 8))
    dens = [pt.photons_per_atom for pt in points]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    assert all(pt.truncation_error_estimate < 1e-6 for pt in points)


def test_photon_density_trends_continue_past_dense_sizes():
    # N = 12 and 16 are out of reach of the dense 2^N (n_max + 1) solve;
    # the collective-spin blocks carry the trends of the N <= 8 test on.
    from dicketherm.exact_diag import photon_density_curve

    strong = ModelParams(12.0, 1.0, g1=0.8 * math.sqrt(12.0), g2=0.8 * math.sqrt(12.0))
    points = photon_density_curve(strong, 2.0 * critical_beta(strong), (8, 12, 16))
    dens = [pt.photons_per_atom for pt in points]
    assert all(a < b for a, b in zip(dens, dens[1:]))
    assert all(pt.truncation_error_estimate < 1e-6 for pt in points)

    weak = ModelParams(6.0, 1.0, g1=0.98, g2=0.98)
    points = photon_density_curve(weak, 3.30, (8, 12, 16))
    dens = [pt.photons_per_atom for pt in points]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    assert all(pt.truncation_error_estimate < 1e-6 for pt in points)


def test_zero_temperature_phase_boundary_location():
    for omega0, Omega in ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0)):
        g_star = math.sqrt(omega0 * Omega)
        beta = 1e3 * max(1.0 / Omega, 1.0 / omega0)
        grid = np.linspace(0.5 * g_star, 2.0 * g_star, 31)
        step = grid[1] - grid[0]
        params = [ModelParams(omega0, Omega, g1=float(g)) for g in grid]
        scan = phase_scan(params, [beta])
        first = next(
            i for i, phase in enumerate(scan.phase) if phase != "normal"
        )
        assert abs(scan.g1[first] - g_star) <= step + 1e-12


def test_cli_outputs_are_deterministic(tmp_path):
    jobs = (
        (
            "phase",
            [
                "phase-diagram",
                "--beta",
                "1e6",
                "--sweep",
                "g1:0.5:2.0:16",
            ],
        ),
        (
            "spectrum",
            [
                "spectrum",
                "--g1",
                "1.2",
                "--beta",
                "3.4259571827498814",
                "--format",
                "json",
            ],
        ),
    )
    for name, argv in jobs:
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()


def test_readme_tour_runs_and_its_values_hold():
    # README's python block runs line by line; where a comment starts
    # with a literal (up to a ": " note), the line's value equals it
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.split(": ", 1)[0].strip())
        except (SyntaxError, ValueError):
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked == 3
