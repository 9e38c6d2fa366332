import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import finite_sum_critical_beta
from dicketherm import matsubara
from dicketherm.fermionization import verify_trace_identity
from dicketherm.matsubara import (
    DEFAULT_CUTOFF,
    _fermionic_frequencies,
    _pair_levels,
    _pair_summand,
    _pair_tail_integral,
    _richardson,
    a0_c0_sum,
    bosonic_frequency,
    continue_kernels,
    fermionic_lorentzian_sum,
)
from dicketherm.operators import ModelParams
from dicketherm.spectrum import (
    PoleProximityError,
    default_pole_epsilon,
    dispersion_residual,
)
from dicketherm.thermo import (
    ParamGrid,
    _node,
    critical_beta,
    mode_energies,
    tanh_factor,
)

P_MIXED = ModelParams(1.3, 0.8, g1=0.7, g2=0.4)


def matsubara_kernels(k, params, beta):
    """(a, c) at the bosonic frequency 2 pi k / beta, from the z form."""
    a, _, c = continue_kernels(1j * bosonic_frequency(k, beta), params, beta)
    return a, c.real


def bare_pair_sum(k, m, beta, cutoff):
    """The pair sum over the window of ``cutoff`` alone, without its tails."""
    q = _fermionic_frequencies(-cutoff - k, cutoff, beta)
    return float(np.sum(_pair_summand(q, m, bosonic_frequency(k, beta))))


def test_frequency_conventions():
    beta = 2.0
    assert bosonic_frequency(3, beta) == pytest.approx(3.0 * np.pi)


def test_lorentzian_sum_identity_anchor():
    # sum over fermionic p of 1/(p^2 + m^2) equals (beta/2m) tanh(beta m/2)
    beta, m = 4.0, 0.5
    exact = beta / (2.0 * m) * math.tanh(beta * m / 2.0)
    assert fermionic_lorentzian_sum(m, beta) == pytest.approx(exact, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    m=st.floats(min_value=0.1, max_value=5.0),
    beta=st.floats(min_value=0.2, max_value=10.0),
)
def test_lorentzian_sum_identity_property(m, beta):
    exact = beta / (2.0 * m) * math.tanh(beta * m / 2.0)
    assert abs(fermionic_lorentzian_sum(m, beta) - exact) < 1e-10


@pytest.mark.parametrize(
    "m, beta",
    [
        (np.array([0.25, 0.5, 2.0]), np.array([[0.5], [2.0], [5.0]])),
        (0.7, np.array([0.01, 1.0, 100.0])),
        (np.array([[0.1, 3.0]]), 2.0),
        (np.array([[0.3], [4.0]]), np.array([[0.2, 1.0, 9.0]])),
    ],
    ids=["grid", "beta-array", "m-array", "column-row"],
)
def test_lorentzian_sum_broadcasts_bitwise_the_scalar_calls(m, beta):
    sums = fermionic_lorentzian_sum(m, beta)
    shape = np.broadcast_shapes(np.shape(m), np.shape(beta))
    assert isinstance(sums, np.ndarray) and sums.shape == shape
    ms, betas = np.broadcast_arrays(m, beta)
    scalar = [fermionic_lorentzian_sum(float(a), float(b)) for a, b in zip(ms.flat, betas.flat)]
    assert all(isinstance(value, float) for value in scalar)
    assert sums.ravel().tolist() == scalar


@pytest.mark.parametrize(
    "m, true_sum",
    [(-1.0, 0.2311), (math.nan, None), (0.0, None)],
    ids=["negative", "nan", "zero"],
)
def test_lorentzian_sum_refuses_a_mass_that_is_not_positive_and_finite(m, true_sum):
    # the terms are even in m but the arctan tail is odd: m = -1 would
    # return -0.7689 where the sum is 0.2311; NaN would pass silently and
    # m = 0 divide by zero
    if true_sum is not None:
        assert fermionic_lorentzian_sum(-m, 1.0) == pytest.approx(true_sum, abs=1e-4)
    with pytest.raises(ValueError, match="m must be positive and finite"):
        fermionic_lorentzian_sum(m, 1.0)
    with pytest.raises(ValueError, match="m must be positive and finite"):
        fermionic_lorentzian_sum(np.array([0.5, m]), np.array([[1.0], [2.0]]))


def _mixed_grid(rng, n):
    """n nodes across four decades, a fifth of them at g2 = 0 and one in
    seven on resonance, and a beta across five decades per node.

    Where this host's ``x**2`` (libm pow) and ``x * x`` differ, the first
    nodes take such values in each rate and coupling, so a route that
    squares with pow on one side and a product on the other fails."""
    omega0, Omega, g1, g2 = 10.0 ** rng.uniform(-2.0, 2.0, (4, n))
    trap = [x for x in (10.0 ** rng.uniform(-2.0, 2.0, 20000)).tolist() if x**2 != x * x]
    for i, field in enumerate((omega0, Omega, g1, g2)):
        chunk = trap[6 * i : 6 * i + 6]
        field[: len(chunk)] = chunk
    g2[::5] = 0.0
    Omega[::7] = omega0[::7]
    return ParamGrid(omega0, Omega, g1, g2), 10.0 ** rng.uniform(-2.0, 3.0, n)


@pytest.mark.parametrize("k", [0, 1, 7, 1024])
def test_kernel_sums_at_many_nodes_are_bitwise_the_calls_at_one(k):
    # every square is a product on both routes: Python's x**2 is libm pow,
    # which can differ from numpy's square in the last bit
    grid, betas = _mixed_grid(np.random.default_rng(35 + k), 40)
    grid_values = a0_c0_sum(k, grid, betas)
    column = a0_c0_sum(-k, grid._node_column(), betas[:3])
    for name in ("a", "c", "tail_estimate"):
        assert isinstance(getattr(grid_values, name), np.ndarray)
        assert getattr(grid_values, name).shape == betas.shape
        assert getattr(column, name).shape == (len(betas), 3)
    nodes = zip(grid.omega0.tolist(), grid.Omega.tolist(), grid.g1.tolist(), grid.g2.tolist())
    for i, node in enumerate(nodes):
        p = ModelParams(*node)
        for got, beta in [
            ((grid_values.a[i], grid_values.c[i], grid_values.tail_estimate[i]), betas[i]),
            *(((column.a[i, j], column.c[i, j], column.tail_estimate[i, j]), betas[j])
              for j in range(3)),
        ]:
            kv = a0_c0_sum(k, p, float(beta))
            assert all(type(x) is float for x in (kv.a, kv.c, kv.tail_estimate))
            assert [float(x).hex() for x in got] == [
                x.hex() for x in (kv.a, kv.c, kv.tail_estimate)
            ]


def test_kernel_sum_fields_are_floats_at_one_node():
    # integer rates as well; tail_estimate was an np.float64
    kv = a0_c0_sum(0, ModelParams(1, 1, g1=0.5, g2=0.2), 1.0)
    assert [type(x) for x in (kv.a, kv.c, kv.tail_estimate)] == [float] * 3


def test_truncation_error_scaling():
    beta, m = 3.0, 0.7
    exact = beta / (2.0 * m) * math.tanh(beta * m / 2.0)
    # bare truncation of the paired sum loses one power per doubling
    raw = [abs(bare_pair_sum(0, m, beta, cutoff) - exact) for cutoff in (128, 256, 512)]
    assert raw[0] / raw[1] == pytest.approx(2.0, rel=0.05)
    assert raw[1] / raw[2] == pytest.approx(2.0, rel=0.05)
    # the tail-corrected sum gains five powers per doubling
    corrected = [abs(level - exact) for level in _pair_levels(0, m, beta, (64, 128))]
    assert corrected[0] / corrected[1] == pytest.approx(32.0, rel=0.3)
    # Richardson on top beats the plain corrected sum at equal cutoff
    richardson = _richardson(*_pair_levels(0, m, beta, (128, 256)))
    assert abs(richardson - exact) < corrected[1]


def test_paired_pole_sum_converges_under_doubling():
    vals = [_pair_levels(3, 0.45, 2.5, (cutoff,))[0] for cutoff in (128, 256, 512)]
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[2]) + 1e-15
    assert abs(vals[1] - vals[2]) < 1e-9


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.1])
def test_finite_sum_matches_closed_kernels_at_high_temperature(beta):
    # at the fine cutoff 1024 an adaptive quad lost the whole tail here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kv = a0_c0_sum(0, P_MIXED, beta)
    a, c = matsubara_kernels(0, P_MIXED, beta)
    closed = a.real + 2.0 * c
    assert kv.a + 2.0 * kv.c == pytest.approx(closed, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("cutoff", [10, 32, 512, 1024])
@pytest.mark.parametrize("beta", [0.01, 1.0, 1000.0])
@pytest.mark.parametrize("Omega", [0.01, 300.0])
def test_pair_tail_single_pole_closed_form(cutoff, beta, Omega):
    # at k = 0 the tail is the integral of 1/(q^2 + m^2) from the edge,
    # (pi/2 - atan(edge/m))/m, written as atan2 to avoid the cancellation
    m, edge = Omega / 2.0, 2.0 * np.pi * cutoff / beta
    exact = math.atan2(m, edge) / m
    tail = _pair_tail_integral(edge, m, 0.0)
    assert tail == pytest.approx(exact, rel=2e-15, abs=0.0)


@pytest.mark.parametrize(
    "cutoff, beta, Omega, k, reference",
    [
        # 30-digit values from adaptive quadrature in 40-digit arithmetic
        (10, 1000.0, 300.0, 3, 0.0104687640960679577210209547777),
        (10, 1000.0, 300.0, 10, 0.0104677866076580954852242922981),
        (10, 0.01, 300.0, 10, 0.000110305952181332309400219214235),
        (1024, 0.05, 0.8, 1, 0.00000776744537469694879473083035648),
        (1024, 0.1, 0.8, 1024, 0.0000107732226636252077865889241179),
        (512, 2.2, 0.8, 9, 0.00067792783360169920193937702694),
        (32, 0.01, 0.01, 7, 0.000044978492745406792021188771604),
    ],
)
def test_pair_tail_pinned_values(cutoff, beta, Omega, k, reference):
    edge, omega = 2.0 * np.pi * cutoff / beta, 2.0 * np.pi * k / beta
    tail = _pair_tail_integral(edge, Omega / 2.0, omega)
    assert tail == pytest.approx(reference, rel=2e-15, abs=0.0)


def test_tail_rule_is_built_on_first_use():
    # importing the CLI builds no quadrature rule, so no command but
    # validate loads numpy.polynomial; the rule is the 32-node
    # Gauss-Legendre rule under the tail's map, built once
    src = os.path.dirname(os.path.dirname(sys.modules["dicketherm"].__file__))
    code = (
        "import sys, dicketherm.cli\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "dicketherm.cli.main(['validate', '--output', sys.argv[1]])\n"
        "print('numpy.polynomial' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, os.devnull], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]
    nodes, weights = np.polynomial.legendre.leggauss(32)
    stretch, mapped_weights = matsubara._tail_rule()
    assert stretch.tobytes() == ((1.0 + nodes) / (1.0 - nodes)).tobytes()
    assert mapped_weights.tobytes() == (2.0 * weights / (1.0 - nodes) ** 2).tobytes()
    assert matsubara._tail_rule() is matsubara._tail_rule()


def test_paired_pole_sum_refuses_index_beyond_the_tail_rule():
    assert _pair_levels(20, 0.45, 2.5, (10,))[0] > 0.0
    with pytest.raises(ValueError, match="beyond twice the cutoff"):
        _pair_levels(21, 0.45, 2.5, (10,))
    # the finite-sum kernels are even in the index and refuse it as well
    top = 2 * DEFAULT_CUTOFF
    assert a0_c0_sum(-top, P_MIXED, 2.5) == a0_c0_sum(top, P_MIXED, 2.5)
    for k in (top + 1, -top - 1):
        with pytest.raises(ValueError, match="beyond twice the cutoff"):
            a0_c0_sum(k, P_MIXED, 2.5)


@pytest.mark.parametrize("k", [0, 3, 50])
@pytest.mark.parametrize("beta", [0.05, 1.0, 3.0, 100.0])
def test_one_window_kernels_match_two_paired_sums(k, beta):
    # a0_c0_sum sums the 2M window once and slices the M window out of it
    cutoff = DEFAULT_CUTOFF
    m = P_MIXED.Omega / 2.0
    (coarse,) = _pair_levels(k, m, beta, (cutoff,))
    (fine,) = _pair_levels(k, m, beta, (2 * cutoff,))
    pair_sum = (32.0 * fine - coarse) / 31.0
    root = np.sqrt(P_MIXED.omega0**2 + bosonic_frequency(k, beta) ** 2)
    a_weight = (P_MIXED.g1**2 + P_MIXED.g2**2) / (beta * root)
    c_weight = P_MIXED.omega0 * P_MIXED.g1 * P_MIXED.g2 / (beta * root**2)
    kv = a0_c0_sum(k, P_MIXED, beta)
    assert kv.a == pytest.approx(a_weight * pair_sum, rel=1e-15, abs=0.0)
    assert kv.c == pytest.approx(c_weight * pair_sum, rel=1e-15, abs=0.0)
    spread = (a_weight + 2.0 * c_weight) * abs(fine - coarse)
    assert kv.tail_estimate == pytest.approx(spread, rel=1e-15, abs=0.0)


def test_kernel_zero_frequency_closed_forms():
    beta = 2.0
    t = tanh_factor(P_MIXED, beta)
    a0, c0 = matsubara_kernels(0, P_MIXED, beta)
    assert a0.imag == pytest.approx(0.0, abs=1e-15)
    expected_a = t * (P_MIXED.g1**2 + P_MIXED.g2**2) / (P_MIXED.Omega * P_MIXED.omega0)
    expected_c = t * P_MIXED.g1 * P_MIXED.g2 / (P_MIXED.omega0 * P_MIXED.Omega)
    assert a0.real == pytest.approx(expected_a, rel=1e-14)
    assert c0 == pytest.approx(expected_c, rel=1e-14)


def test_kernel_a_quantum_critical_normalization():
    p = ModelParams(1.5, 0.6, g1=math.sqrt(1.5 * 0.6), g2=0.0)
    assert matsubara_kernels(0, p, 500.0)[0].real == pytest.approx(1.0, abs=1e-12)


def test_kernel_a_conjugation():
    for k in (1, 3, 10):
        a_plus, _ = matsubara_kernels(k, P_MIXED, 1.7)
        a_minus, _ = matsubara_kernels(-k, P_MIXED, 1.7)
        assert a_minus == pytest.approx(a_plus.conjugate())
        # a(-z) comes with a(z) from one evaluation
        z = 1j * bosonic_frequency(k, 1.7)
        assert continue_kernels(z, P_MIXED, 1.7)[1] == a_minus


def test_kernel_c_even_positive_decreasing():
    beta = 1.7
    values = [matsubara_kernels(k, P_MIXED, beta)[1] for k in range(6)]
    assert matsubara_kernels(-3, P_MIXED, beta)[1] == pytest.approx(values[3])
    assert all(v > 0.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert matsubara_kernels(2, ModelParams(1.0, 1.0, g1=0.5), beta)[1] == 0.0
    # real on the Matsubara axis
    for k in (-3, 0, 5):
        z = 1j * bosonic_frequency(k, beta)
        assert continue_kernels(z, P_MIXED, beta)[2].imag == 0.0


# kernel_a and kernel_c of the Matsubara-axis closed forms that the z form
# replaced, at P_MIXED and beta = 1.7: (k, a, c)
PINNED_MATSUBARA_KERNELS = [
    (0, (0.20467337175544084 + 0j), 0.08816699091003605),
    (3, (-0.0008482219490206751 + 0.00022372101218435993j), 5.316835193752984e-05),
    (-7, (-0.0001603969008509741 - 1.788341276581879e-05j), 4.226489273396439e-06),
]


@pytest.mark.parametrize(
    "k, a, c", PINNED_MATSUBARA_KERNELS, ids=["k=0", "k=3", "k=-7"]
)
def test_z_form_reproduces_the_matsubara_kernels(k, a, c):
    got_a, got_c = matsubara_kernels(k, P_MIXED, 1.7)
    assert got_a == a
    assert abs(got_c - c) <= 2.0 * math.ulp(c)


def test_finite_sum_value_shape():
    # at nonzero pair distance the sums are real positive envelope
    # quantities; only at omega=0 do they coincide with the closed kernels
    beta = 2.2
    for k in (0, 1, 4, 9):
        kv = a0_c0_sum(k, P_MIXED, beta)
        assert type(kv.a) is float
        assert kv.a > 0.0
        assert kv.c > 0.0
    kv0 = a0_c0_sum(0, P_MIXED, beta)
    a, c = matsubara_kernels(0, P_MIXED, beta)
    assert kv0.a == pytest.approx(a.real, abs=1e-8)
    assert kv0.c == pytest.approx(c, abs=1e-8)


def test_finite_sum_zero_coupling_prefactors():
    kv = a0_c0_sum(2, ModelParams(1.0, 1.0, g1=0.8), 2.0)
    assert kv.c == 0.0


def test_a0_anchor_tanh_one():
    # omega0=Omega=1, g1=1, beta=4 pins a0(0) at tanh(1)
    kv = a0_c0_sum(0, ModelParams(1.0, 1.0, g1=1.0), 4.0)
    assert kv.a == pytest.approx(math.tanh(1.0), abs=1e-10)


def test_transition_combination_matches_formula():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = ModelParams(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 2.0),
            g1=rng.uniform(0.0, 1.5),
            g2=rng.uniform(0.0, 1.5),
        )
        beta = rng.uniform(0.5, 6.0)
        kv = a0_c0_sum(0, p, beta)
        expected = (p.g1 + p.g2) ** 2 / (p.Omega * p.omega0) * tanh_factor(p, beta)
        assert kv.a + 2.0 * kv.c == pytest.approx(expected, abs=1e-8)


def test_high_frequency_decay_envelope():
    # pair-shifted combination falls like 1/w^2 up to a slow log factor
    beta = 2.0
    magnitudes = []
    scaled = []
    for k in (4, 8, 16, 32, 64):
        kv = a0_c0_sum(k, P_MIXED, beta)
        w = bosonic_frequency(k, beta)
        v = abs(kv.a + 2.0 * kv.c)
        magnitudes.append(v)
        scaled.append(v * w * w / math.log(w))
    assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))


def test_continuation_at_origin_reduces_to_kernels():
    # the real axis and the Matsubara axis meet at z = 0, omega_0
    beta = 1.9
    a_plus, a_minus, c = continue_kernels(0.0, P_MIXED, beta)
    a0, c0 = matsubara_kernels(0, P_MIXED, beta)
    assert a_plus == pytest.approx(a0)
    assert a_minus == pytest.approx(a_plus)
    assert c.real == pytest.approx(c0)
    assert abs(c.imag) < 1e-15


def test_continuation_pole_guard():
    eps = default_pole_epsilon(P_MIXED)
    with pytest.raises(PoleProximityError):
        continue_kernels(P_MIXED.Omega + 0.1 * eps, P_MIXED, 2.0)
    with pytest.raises(PoleProximityError):
        continue_kernels(P_MIXED.omega0, P_MIXED, 2.0)


def test_determinant_coefficients_match_kernel_product():
    # (1-a(E))(1-a(-E)) - 4c^2 equals (x^2 - Bx + C) over the pole
    # factors, a ratio that is the same in the node's unit
    beta = 2.3
    node = _node(P_MIXED, beta)
    for E in (0.3, 0.77, 1.9, 2.6):
        a_plus, a_minus, c = continue_kernels(E, P_MIXED, beta)
        lhs = (1.0 - a_plus) * (1.0 - a_minus) - 4.0 * c * c
        x = math.ldexp(E, -node.e) ** 2
        rhs = (x * x - node.B * x + node.C) / (
            (node.omega0**2 - x) * (node.Omega**2 - x)
        )
        assert lhs.real == pytest.approx(rhs, rel=1e-10)
        assert abs(lhs.imag) < 1e-12


def test_mode_energies_are_the_quadratic_roots():
    beta = 2.3
    node = _node(P_MIXED, beta)
    small, large = node.roots
    assert 0.0 < small < large
    assert small + large == pytest.approx(node.B, rel=1e-14)
    assert small * large == pytest.approx(node.C, rel=1e-14)
    assert mode_energies(P_MIXED, beta) == tuple(
        math.ldexp(math.sqrt(x), node.e) for x in (small, large)
    )


def test_mode_energies_degenerate_line_is_exact_double_root():
    # omega0 = Omega with g1 = 0: the factored discriminant is exactly 0
    p = ModelParams(1.0, 1.0, g2=0.8)
    beta = 2.0
    node = _node(p, beta)
    small, large = node.roots
    assert small == large
    expected = 1.0 - tanh_factor(p, beta) * p.g2**2
    assert math.ldexp(small, 2 * node.e) == pytest.approx(expected, rel=1e-15)
    low, high = mode_energies(p, beta)
    assert low == high
    assert low * low == pytest.approx(expected, rel=1e-15)


def test_mode_energies_complex_roots_are_none():
    # strong counter-rotating coupling off resonance, deep in the
    # superradiant phase: B^2 < 4 C
    p = ModelParams(1.0, 1.05, g2=3.0)
    node = _node(p, 5.0)
    assert node.B * node.B < 4.0 * node.C
    assert node.roots is None
    assert mode_energies(p, 5.0) == ()


def test_finite_sum_critical_beta_matches_closed_form_and_guards():
    p = ModelParams(0.8, 1.3, g1=0.9, g2=0.6)
    closed = 4.0 / p.Omega * math.atanh(p.omega0 * p.Omega / (p.g1 + p.g2) ** 2)
    assert finite_sum_critical_beta(p) == pytest.approx(closed, rel=1e-8)
    with pytest.raises(RuntimeError, match="no finite-sum transition"):
        finite_sum_critical_beta(ModelParams(1.0, 1.0, g1=0.5))


def test_finite_sum_critical_beta_evaluates_each_beta_once(monkeypatch):
    # validate's three points; the doubling search's last two betas bracket
    # the root, so Brent's method starts from values already computed
    evaluated = []

    def counting(omega_index, params, beta):
        evaluated[-1].append(beta)
        return a0_c0_sum(omega_index, params, beta)

    monkeypatch.setattr(_oracles, "a0_c0_sum", counting)
    for p in (
        ModelParams(1.0, 1.0, g1=1.2),
        ModelParams(2.0, 1.0, g2=2.0),
        ModelParams(0.8, 1.3, g1=0.9, g2=0.6),
    ):
        evaluated.append([])
        numeric = finite_sum_critical_beta(p)
        assert numeric == pytest.approx(critical_beta(p), rel=1e-8)
        assert len(set(evaluated[-1])) == len(evaluated[-1])
    assert sum(map(len, evaluated)) <= 27


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda beta: fermionic_lorentzian_sum(0.5, beta),
        lambda beta: fermionic_lorentzian_sum(
            np.array([0.5, 1.0]), np.array([[1.0], [2.0], [beta]])
        ),
        lambda beta: a0_c0_sum(0, P_MIXED, beta),
        lambda beta: verify_trace_identity(P_MIXED, 1, 4, np.array([1.0, beta])),
    ],
    ids=[
        "fermionic_lorentzian_sum",
        "fermionic_lorentzian_sum-array",
        "a0_c0_sum",
        "verify_trace_identity",
    ],
)
def test_oracles_refuse_a_bad_beta(call, bad):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        call(bad)


def test_closed_kernels_keep_accepting_infinite_beta():
    # closed forms, like thermo: beta = inf is the zero-temperature limit
    for z in (0j, 0.5, 2.0):
        cold = continue_kernels(z, P_MIXED, math.inf)
        assert cold == pytest.approx(continue_kernels(z, P_MIXED, 1e3), rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf])
@pytest.mark.parametrize("z", [0.5, 3j], ids=["real-axis", "matsubara-axis"])
def test_closed_kernels_refuse_a_non_positive_beta(z, bad):
    with pytest.raises(ValueError, match="beta must be positive"):
        continue_kernels(z, P_MIXED, bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda beta: matsubara_kernels(3, P_MIXED, beta)[0],
        lambda beta: continue_kernels(0.5, P_MIXED, beta),
        lambda beta: a0_c0_sum(0, P_MIXED, beta),
        lambda beta: verify_trace_identity(ModelParams(1, 1, g1=0.4), 1, 4, beta),
        lambda beta: dispersion_residual(0.5, ModelParams(1, 1, g1=0.5), beta),
    ],
    ids=[
        "continue_kernels-matsubara",
        "continue_kernels-real",
        "a0_c0_sum",
        "verify_trace_identity",
        "dispersion_residual",
    ],
)
def test_nan_beta_raises(call):
    with pytest.raises(ValueError, match="beta must be positive"):
        call(math.nan)
