import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicketherm.operators as operators
from _oracles import excitation_diagonal, parity_diagonal, photon_number_diagonal, taken_by
from dicketherm.operators import (
    DimensionLimitError,
    HamiltonianKind,
    HermitianOperator,
    ModelParams,
    block_stacks,
    build_hamiltonian,
)

ALL_KINDS = list(HamiltonianKind)
SINGLE_ATOM_KINDS = (
    HamiltonianKind.JAYNES_CUMMINGS,
    HamiltonianKind.TWO_PHOTON_JC,
    HamiltonianKind.INTENSITY_JC,
)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, -1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, g1=-0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, g2=-0.1)
    p = ModelParams(1.0, 2.0, g1=0.3, g2=0.4)
    with pytest.raises(Exception):
        p.g1 = 1.0  # frozen


@given(
    valid=st.tuples(
        st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(0.0, 1e3), st.floats(0.0, 1e3)
    ),
    field=st.sampled_from(["omega0", "Omega", "g1", "g2"]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_model_params_reject_non_finite_fields(valid, field, bad):
    values = dict(zip(("omega0", "Omega", "g1", "g2"), valid))
    ModelParams(**values)
    values[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be .* finite"):
        ModelParams(**values)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_builders_hermitian_real_spectrum(kind):
    n_atoms = 1 if kind in SINGLE_ATOM_KINDS else 2
    p = taken_by(kind, ModelParams(1.0, 0.9, g1=0.4, g2=0.3))
    h = build_hamiltonian(kind, p, n_atoms, 5)
    m = h.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    ev = h.eigenvalues()
    assert np.all(np.diff(ev) >= 0.0)


def test_jaynes_cummings_dressed_doublets():
    g = 0.25
    p = ModelParams(1.0, 1.0, g1=g)
    h = build_hamiltonian(HamiltonianKind.JAYNES_CUMMINGS, p, 1, 6)
    ev = np.sort(np.linalg.eigvalsh(h.matrix))
    # ground state plus resonant doublets omega0*(n + 1/2) -/+ g*sqrt(n+1)
    expected = [-0.5]
    for n in range(3):
        center = 1.0 * (n + 0.5)
        expected += [center - g * np.sqrt(n + 1), center + g * np.sqrt(n + 1)]
    assert ev[: len(expected)] == pytest.approx(sorted(expected), abs=1e-12)


def test_decoupled_spectrum_is_direct_sum():
    p = ModelParams(1.0, 0.7, g1=0.0, g2=0.0)
    h = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, 2, 4)
    ev = np.sort(np.linalg.eigvalsh(h.matrix))
    expected = np.sort(
        [
            1.0 * n + 0.35 * m
            for n in range(5)
            for m in (-2, 0, 0, 2)  # multiplicity 2 for the m=0 sector
        ]
    )
    assert np.allclose(ev, expected, atol=1e-12)


def test_generalized_dicke_parity_commutes():
    p = ModelParams(1.0, 1.2, g1=0.8, g2=0.5)
    h = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, 2, 8)
    pi = np.diag(parity_diagonal(2, 8))
    comm = h.matrix @ pi - pi @ h.matrix
    assert np.max(np.abs(comm)) < 1e-12


def test_rwa_conserves_total_excitation():
    p = ModelParams(1.0, 0.9, g1=0.6)
    h = build_hamiltonian(HamiltonianKind.DICKE_RWA, p, 3, 5)
    nex = np.diag(excitation_diagonal(3, 5))
    comm = h.matrix @ nex - nex @ h.matrix
    assert np.max(np.abs(comm)) < 1e-12


def test_generalized_dicke_reduces_to_rwa():
    p = ModelParams(1.0, 0.8, g1=0.5, g2=0.0)
    a = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, 2, 6)
    b = build_hamiltonian(HamiltonianKind.DICKE_RWA, p, 2, 6)
    assert np.array_equal(a.matrix, b.matrix)


def test_single_atom_kinds_reject_multiple_atoms():
    p = ModelParams(1.0, 1.0, g1=0.2)
    for kind in SINGLE_ATOM_KINDS:
        with pytest.raises(ValueError):
            build_hamiltonian(kind, p, 2, 4)


@pytest.mark.parametrize(
    "kind, n_atoms, n_max, message",
    [
        (HamiltonianKind.GENERALIZED_DICKE, 0, 4, "n_atoms must be at least 1"),
        (HamiltonianKind.GENERALIZED_DICKE, 2, 1, "n_max must be at least 2"),
        (HamiltonianKind.JAYNES_CUMMINGS, 2, 4, "jaynes-cummings is a single-atom model, got N=2"),
    ],
)
def test_dense_builder_refusal_texts(kind, n_atoms, n_max, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as refusal:
        build_hamiltonian(kind, ModelParams(1.0, 1.0, g1=0.2), n_atoms, n_max)
    assert type(refusal.value) is ValueError


def test_dimension_guard():
    gd = HamiltonianKind.GENERALIZED_DICKE
    with pytest.raises(DimensionLimitError):
        build_hamiltonian(gd, ModelParams(1.0, 1.0), 10, 30)
    p = ModelParams(1.0, 1.0, 0.5)
    with pytest.raises(
        DimensionLimitError,
        match=r"^matrix of 5242880 rows exceeds limit 6000 \(N=20, n_max=4\)$",
    ):
        build_hamiltonian(gd, p, 20, 4)
    # 2^N has more digits than str() prints
    with pytest.raises(DimensionLimitError, match=r"\(N=20000, n_max=4\)$"):
        build_hamiltonian(gd, p, 20000, 4)


def test_dimension_guard_refuses_a_huge_register_at_once(monkeypatch):
    # the refusal compares against the ceiling without forming 2^N
    gd, p = HamiltonianKind.GENERALIZED_DICKE, ModelParams(1.0, 1.0, 0.5)
    start = time.perf_counter()
    with pytest.raises(
        DimensionLimitError,
        match=r"^matrix of 2\^100000000 x 5 rows exceeds limit 6000 \(N=100000000, n_max=4\)$",
    ):
        build_hamiltonian(gd, p, 10**8, 4)
    assert time.perf_counter() - start < 10e-3
    # 2^3 * 5 rows fill the ceiling exactly, and 2^4 * 5 pass it
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 40)
    assert build_hamiltonian(gd, p, 3, 4).dimension == 40
    with pytest.raises(DimensionLimitError, match=r"^matrix of 80 rows exceeds limit 40 "):
        build_hamiltonian(gd, p, 4, 4)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_dense_matrix_is_real_and_read_only(kind):
    n_atoms = 1 if kind in SINGLE_ATOM_KINDS else 3
    p = taken_by(kind, ModelParams(1.0, 0.9, g1=0.4, g2=0.3))
    m = build_hamiltonian(kind, p, n_atoms, 4).matrix
    assert m.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 0.0


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_dense_basis_layout(n_atoms):
    # row q (n_max + 1) + n holds register bit pattern q and n photons,
    # with bit i the excited state of site i
    n_max, dim_b = 4, 5
    q, n = np.divmod(np.arange(2**n_atoms * dim_b), dim_b)
    popcount = np.array([bin(x).count("1") for x in q])
    gd = HamiltonianKind.GENERALIZED_DICKE
    free = build_hamiltonian(gd, ModelParams(1.3, 0.7), n_atoms, n_max).matrix
    diagonal = 1.3 * n + 0.7 * (popcount - n_atoms / 2)
    assert np.allclose(np.diag(free), diagonal, rtol=1e-15, atol=1e-15)
    assert not np.any(free - np.diag(np.diag(free)))

    g1 = 0.6
    m = build_hamiltonian(gd, ModelParams(1.3, 0.7, g1=g1), n_atoms, n_max).matrix
    expected = np.diag(np.diag(free))
    for site in range(n_atoms):
        for q in range(2**n_atoms):
            if q >> site & 1:
                continue
            for n in range(1, dim_b):
                row, col = (q | 1 << site) * dim_b + n - 1, q * dim_b + n
                assert m[row, col] == pytest.approx(g1 / math.sqrt(n_atoms) * math.sqrt(n))
                expected[row, col] = expected[col, row] = m[row, col]
    # nothing else couples
    assert np.array_equal(m, expected)


def test_parity_operator_signs_and_involution():
    pi = parity_diagonal(1, 1)
    assert np.array_equal(pi * pi, np.ones(4))
    assert np.sum(pi) == 0.0
    signs = sorted(pi)
    assert signs == pytest.approx([-1.0, -1.0, 1.0, 1.0])


def test_photon_number_operator_diagonal():
    diag = photon_number_diagonal(1, 3)
    assert diag.tolist() == [0.0, 1.0, 2.0, 3.0] * 2


def test_hermitian_operator_rejects_non_hermitian():
    from dicketherm.operators import NotHermitianError

    with pytest.raises(NotHermitianError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _block_outputs(kind, params, n_atoms, n_max):
    """Every array the spin block builder returns for these inputs."""
    return [a for item in block_stacks(kind, params, n_atoms, n_max) for a in item]


def _cached_arrays():
    return [
        array
        for structure, _ in operators._structures._entries.values()
        for array in structure
    ]


_PARAMS = st.builds(
    ModelParams,
    st.floats(0.05, 5.0),
    st.floats(0.05, 5.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)


_N_MAXES = st.sampled_from([2, 3, 8, 9, 16])


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(HamiltonianKind, key=lambda k: k.value)),
    n_atoms=st.integers(1, 8),
    n_max=_N_MAXES,
    other=st.tuples(st.integers(1, 8), _N_MAXES),
    warm=_PARAMS,
    params=_PARAMS,
)
def test_warm_structure_cache_builds_what_a_cold_one_builds(
    kind, n_atoms, n_max, other, warm, params
):
    # other parameters fill the cache first, for every kind at this size
    # and another, so no parameter, kind or size can hide in a structure
    for k in HamiltonianKind:
        for n, m in ((n_atoms, n_max), other):
            _block_outputs(k, taken_by(k, warm), 1 if k in SINGLE_ATOM_KINDS else n, m)
    if kind in SINGLE_ATOM_KINDS:
        n_atoms = 1
    params = taken_by(kind, params)
    hot = _block_outputs(kind, params, n_atoms, n_max)
    operators._structures.clear()
    cold = _block_outputs(kind, params, n_atoms, n_max)
    assert [(a.dtype, a.shape, a.tobytes()) for a in hot] == [
        (a.dtype, a.shape, a.tobytes()) for a in cold
    ]


def test_builder_shares_read_only_structure_arrays():
    p = ModelParams(1.0, 1.3, g1=0.4, g2=0.2)
    gd, rwa = HamiltonianKind.GENERALIZED_DICKE, HamiltonianKind.DICKE_RWA
    h, number, size, d = next(block_stacks(gd, p, 3, 9))
    ((stack, n, sizes, multiplicity),) = block_stacks(rwa, taken_by(rwa, p), 3, 9)
    for array in (number, size, n, sizes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the stacks and multiplicities are the caller's own
    assert all(a.flags.writeable for a in (h, d, stack, multiplicity))
    # the next call of any parameters with the same acting couplings
    # scales the same structure
    q = ModelParams(2.0, 0.7, g1=1.1, g2=0.5)
    assert next(block_stacks(gd, q, 3, 9))[1] is number
    assert next(block_stacks(rwa, taken_by(rwa, q), 3, 9))[1] is n
    assert all(not a.flags.writeable for a in _cached_arrays())


def test_one_acting_coupling_shares_the_structure_of_its_kind():
    gd, rwa = HamiltonianKind.GENERALIZED_DICKE, HamiltonianKind.DICKE_RWA
    jc = HamiltonianKind.JAYNES_CUMMINGS
    p = ModelParams(1.0, 1.3, g1=0.4)
    for n_atoms, other in ((5, rwa), (1, rwa), (1, jc)):
        ((h, n, size, d),) = block_stacks(other, p, n_atoms, 9)
        # at g2 = 0, and with neither coupling, b acts alone: the same
        # cached arrays, and the same stack at the same couplings
        for q in (p, ModelParams(1.0, 1.3)):
            ((stack, number, sizes, multiplicity),) = block_stacks(gd, q, n_atoms, 9)
            assert number is n and sizes is size
            assert multiplicity.tobytes() == d.tobytes()
            ((same, _, _, _),) = block_stacks(other, q, n_atoms, 9)
            assert stack.tobytes() == same.tobytes()
    # at g1 = 0, b' acts alone and conserves L = (2j - a) + n: a structure
    # of its own, with the K-blocks' shape
    ((k_blocks, n, _, _),) = block_stacks(rwa, p, 5, 9)
    ((l_blocks, number, _, _),) = block_stacks(gd, ModelParams(1.0, 1.3, g2=0.4), 5, 9)
    assert number is not n and l_blocks.shape == k_blocks.shape


@pytest.mark.parametrize(
    "kind", [kind for kind in ALL_KINDS if len(operators.COUPLINGS[kind]) == 1],
    ids=lambda kind: kind.value,
)
def test_a_kind_of_one_coupling_refuses_g2_before_building(kind, monkeypatch):
    # a g2 the kind would ignore is refused by both builders, before the
    # sizes are checked and before any structure is looked up
    n_atoms = 1 if kind in SINGLE_ATOM_KINDS else 5
    p = ModelParams(1.0, 1.3, g1=0.4, g2=0.7)
    refusal = f"^{kind.value} has one coupling, g1, and takes no nonzero g2$"

    def poisoned(*args):
        raise AssertionError("structure looked up")

    monkeypatch.setattr(operators._structures, "get", poisoned)
    for n_max in (9, 10**6):
        with pytest.raises(ValueError, match=refusal):
            block_stacks(kind, p, n_atoms, n_max)
        with pytest.raises(ValueError, match=refusal):
            build_hamiltonian(kind, p, n_atoms, n_max)
    # at g2 = 0 the same call builds
    monkeypatch.undo()
    ((h, _, size, _),) = block_stacks(kind, taken_by(kind, p), n_atoms, 9)
    assert (size < h.shape[1]).any()


def test_a_warm_structure_cache_still_refuses_past_the_ceiling(monkeypatch):
    p = ModelParams(1.0, 1.0, g1=0.5, g2=0.3)
    q = ModelParams(1.0, 1.0, g1=0.5)
    builds = [
        lambda: list(block_stacks(HamiltonianKind.GENERALIZED_DICKE, p, 4, 8)),
        lambda: list(block_stacks(HamiltonianKind.INTENSITY_DICKE, q, 4, 8)),
        lambda: list(block_stacks(HamiltonianKind.DICKE_RWA, q, 4, 8)),
    ]
    for build in builds:
        build()
    # the largest spin block has 5 * 9 rows
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 5 * 9 - 1)
    for build in builds:
        with pytest.raises(DimensionLimitError, match="45 rows exceeds limit 44"):
            build()


def test_structure_cache_holds_at_most_its_budget():
    operators._structures.clear()
    p = ModelParams(1.0, 1.0, g1=0.01)
    rwa = HamiltonianKind.DICKE_RWA
    # about 5, 25 and 30 MiB of structure: the last rung evicts the others
    for n_atoms, n_max in ((64, 64), (600, 8), (665, 8)):
        ((_, n, _, _),) = block_stacks(rwa, p, n_atoms, n_max)
        held = sum(a.nbytes for a in _cached_arrays())
        assert operators._structures.nbytes == held
        assert held <= operators.STRUCTURE_CACHE_BYTES
        # the rung just built is kept
        assert next(block_stacks(rwa, p, n_atoms, n_max))[1] is n
    # parity pairs, one structure per spin block
    q = ModelParams(1.0, 1.0, g1=0.01, g2=0.01)
    list(block_stacks(HamiltonianKind.GENERALIZED_DICKE, q, 8, 64))
    assert sum(a.nbytes for a in _cached_arrays()) <= operators.STRUCTURE_CACHE_BYTES

