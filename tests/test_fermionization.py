import numpy as np
import pytest

import dicketherm.cli as cli
import dicketherm.fermionization as fermionization
import dicketherm.thermo as thermo
from _oracles import fermion_mode_ops, kron_fermion_dicke, physical_projector_diagonal
from dicketherm.exact_diag import thermal_solve
from dicketherm.fermionization import (
    MAX_ATOMS,
    build_fermion_dicke,
    fermion_number_diagonal,
    verify_trace_identity,
)
from dicketherm.operators import (
    DimensionLimitError,
    HamiltonianKind,
    HermitianOperator,
    ModelParams,
    build_hamiltonian,
)


def test_mode_ops_anticommutation():
    pairs = fermion_mode_ops(2)
    assert len(pairs) == 2  # one (alpha, beta) pair per atom
    modes = [op for pair in pairs for op in pair]
    dim = modes[0].shape[0]
    assert dim == 4**2
    for i, ai in enumerate(modes):
        for j, aj in enumerate(modes):
            anti = ai @ aj.conj().T + aj.conj().T @ ai
            expected = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.allclose(anti, expected, atol=1e-14)
            assert np.allclose(ai @ aj + aj @ ai, 0.0, atol=1e-14)


@pytest.mark.parametrize("n_max", [2, 5, 6, 8])
@pytest.mark.parametrize("n_atoms", [1, 2, 3])
@pytest.mark.parametrize("g1, g2", [(0.4, 0.3), (0.0, 0.4), (0.7, 0.0), (1.3, 2.1)])
def test_index_builder_matches_kron_reference(n_atoms, n_max, g1, g2):
    # not bitwise: the reference forms b'b as a product of roots, so it
    # reads 2.6000000000000005 where the index builder reads 2.6
    p = ModelParams(1.3, 0.9, g1=g1, g2=g2)
    built = build_fermion_dicke(p, n_atoms, n_max).matrix
    reference = kron_fermion_dicke(p, n_atoms, n_max)
    assert built.shape == reference.shape
    assert np.max(np.abs(built - reference)) < 1e-14


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_builds_share_a_read_only_layout(n_atoms):
    # the layout is cached per (N, n_max) and shared by every build and
    # trace check, so no caller may write to it, and a build at one params
    # leaves nothing behind for the next
    n_max = 5
    layout = fermionization._layout(n_atoms, n_max)
    assert fermionization._layout(n_atoms, n_max) is layout
    arrays = [a for field in layout for a in (field if isinstance(field, tuple) else (field,))]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    first, second = ModelParams(1.3, 0.9, g1=0.4, g2=0.3), ModelParams(0.7, 2.1, g1=1.3)
    for p in (first, second, first):
        built = build_fermion_dicke(p, n_atoms, n_max).matrix
        assert np.max(np.abs(built - kron_fermion_dicke(p, n_atoms, n_max))) < 1e-14


def test_projector_idempotent_with_expected_rank():
    proj = physical_projector_diagonal(2, 6)
    assert np.array_equal(proj * proj, proj)
    assert np.sum(proj) == 2**2 * 7


def test_projector_commutes_with_hamiltonian():
    p = ModelParams(1.0, 0.9, g1=0.5, g2=0.3)
    hf = build_fermion_dicke(p, 2, 5)
    proj = np.diag(physical_projector_diagonal(2, 5))
    comm = hf.matrix @ proj - proj @ hf.matrix
    assert np.max(np.abs(comm)) < 1e-12


def test_decoupled_unphysical_states_have_zero_qubit_energy():
    # with couplings off, the doubly occupied and empty per-atom sectors
    # carry no qubit energy, so their spectrum is the bare Fock ladder
    p = ModelParams(1.0, 1.0)
    hf = build_fermion_dicke(p, 1, 3)
    proj = physical_projector_diagonal(1, 3)
    unphys = np.where(proj < 0.5)[0]
    sub = hf.matrix[np.ix_(unphys, unphys)]
    ev = np.sort(np.linalg.eigvalsh(sub))
    ladder = np.sort([1.0 * n for n in range(4)] * 2)
    assert np.allclose(ev, ladder, atol=1e-12)


def test_decoupled_physical_spectrum():
    p = ModelParams(1.0, 1.0)
    hf = build_fermion_dicke(p, 1, 3)
    proj = physical_projector_diagonal(1, 3)
    phys = np.where(proj > 0.5)[0]
    ev = np.sort(np.linalg.eigvalsh(hf.matrix[np.ix_(phys, phys)]))
    expected = np.sort([s + 1.0 * n for s in (-0.5, 0.5) for n in range(4)])
    assert np.allclose(ev, expected, atol=1e-12)


def test_one_site_polarization_is_the_quarter_factor_unprojected_and_the_half_projected():
    # the two empty-or-double states of a site have zero energy and no
    # polarization, so the whole-register trace gives
    # 2 sinh(beta Omega/2) / (2 + 2 cosh(beta Omega/2)) = tanh(beta Omega/4),
    # the package's thermal factor; the physical trace gives tanh(beta Omega/2)
    beta, Omega, n_max = 1.7, 0.8, 3
    p = ModelParams(1.0, Omega)
    energies, vectors = np.linalg.eigh(build_fermion_dicke(p, 1, n_max).matrix)
    # the thermal state's diagonal, the Boltzmann weight of each basis state
    weights = vectors**2 @ np.exp(-beta * (energies - energies.min()))
    # n_beta - n_alpha per register state (alpha bit 0, beta bit 1), times the Fock ladder
    polarization = np.repeat([0.0, -1.0, 1.0, 0.0], n_max + 1)
    physical = np.repeat(fermionization._physical_diagonal(1), n_max + 1)
    full = weights @ polarization / weights.sum()
    projected = (weights * physical) @ polarization / (weights * physical).sum()
    assert full == pytest.approx(0.32747739480870536, rel=1e-14)
    assert full == pytest.approx(thermo.tanh_factor(p, beta), rel=1e-14)
    assert projected == pytest.approx(0.5915193954318165, rel=1e-14)
    assert projected == pytest.approx(np.tanh(beta * Omega / 2), rel=1e-14)


def test_physical_subspace_matches_spin_model():
    p = ModelParams(1.0, 1.0, g1=0.3, g2=0.2)
    hf = build_fermion_dicke(p, 2, 6)
    proj = physical_projector_diagonal(2, 6)
    phys = np.where(proj > 0.5)[0]
    ev_f = np.sort(np.linalg.eigvalsh(hf.matrix[np.ix_(phys, phys)]))
    hs = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, 2, 6)
    ev_s = np.sort(np.linalg.eigvalsh(hs.matrix))
    assert np.max(np.abs(ev_f - ev_s)) < 1e-10


def test_trace_identity_decoupled_closed_form():
    # for one decoupled atom both sides reduce to 2cosh(beta*Omega/2) times
    # the boson factor, so the residual is pure round-off
    res = verify_trace_identity(ModelParams(1.0, 1.0), 1, 4, 1.0)
    assert res < 1e-12


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_trace_identity_coupled(beta):
    res = verify_trace_identity(ModelParams(1.0, 1.0, g1=0.4, g2=0.3), 2, 8, beta)
    assert res < 1e-8


def test_trace_identity_rejects_bad_beta():
    with pytest.raises(ValueError):
        verify_trace_identity(ModelParams(1.0, 1.0), 1, 4, 0.0)
    with pytest.raises(ValueError, match="beta must be positive"):
        verify_trace_identity(ModelParams(1.0, 1.0), 1, 4, np.array([1.0, -1.0]))


@pytest.mark.parametrize("n_atoms", [1, 2, MAX_ATOMS])
def test_trace_identity_real_eigensolve_keeps_the_complex_residuals(n_atoms):
    # validate's point against the complex Hermitian eigensolve of the
    # whole matrix.  Both residuals are round-off.  The sector route solves
    # each empty/doubly-occupied partner pair as two bitwise equal blocks,
    # so their levels cancel up to the phases' rounding; the full
    # eigensolve splits those degenerate levels by a few ulps, which moves
    # its residual by about beta * eps * max|E| (3e-15 at N = 2, beta = 2),
    # far inside validate's 1e-8.
    p, n_max, betas = ModelParams(1.0, 1.0, g1=0.4, g2=0.3), 6, np.array([0.5, 2.0])
    hf = build_fermion_dicke(p, n_atoms, n_max).matrix
    assert hf.dtype == np.float64
    ev, vec = np.linalg.eigh(hf.astype(complex))
    weights = np.exp(-betas[:, None] * (ev - ev[0]))
    number = np.repeat(fermion_number_diagonal(n_atoms), n_max + 1)
    phased_diag = 1j**n_atoms * np.exp(-0.5j * np.pi * number)
    phys_diag = physical_projector_diagonal(n_atoms, n_max)
    amp2 = np.abs(vec) ** 2
    phased = weights @ (phased_diag @ amp2)
    physical = weights @ (phys_diag @ amp2)
    expected = np.abs(phased - physical) / np.abs(physical)
    residuals = verify_trace_identity(p, n_atoms, n_max, betas)
    assert np.max(np.abs(residuals - expected)) < 1e-14
    assert np.max(residuals) < 1e-14


def _coupling_two_sectors(matrix, n_max):
    # |s = 0 (site 0 empty), n = 0> with |s = 1 (site 0 singly occupied), n = 0>
    row, col = 0, n_max + 1
    matrix[row, col] = matrix[col, row] = 1e-6


def _doubly_occupied_site_energy(matrix, n_max):
    # site 0 doubly occupied: bits 0 and 1 of the register index both set
    states = np.repeat(np.arange(matrix.shape[0] // (n_max + 1)), n_max + 1)
    rows = np.flatnonzero(states & 3 == 3)
    matrix[rows, rows] += 0.5


@pytest.mark.parametrize(
    "spoil", [_coupling_two_sectors, _doubly_occupied_site_energy]
)
def test_trace_identity_fails_a_builder_that_breaks_its_premise(
    spoil, monkeypatch, capsys
):
    # an entry between occupation sectors, or unphysical sites that carry
    # a spin energy, must fail both the residual and validate
    original = fermionization.build_fermion_dicke

    def spoiled(params, n_atoms, n_max):
        matrix = original(params, n_atoms, n_max).matrix.copy()
        spoil(matrix, n_max)
        return HermitianOperator(matrix)

    monkeypatch.setattr(fermionization, "build_fermion_dicke", spoiled)
    p = ModelParams(1.0, 1.0, g1=0.4, g2=0.3)
    for n_atoms in (1, 2):
        residuals = verify_trace_identity(p, n_atoms, 6, np.array([0.5, 2.0]))
        assert np.all(residuals > 1e-8)
    assert cli.main(["validate"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" FAIL")]
    assert len(failed) == 1 and failed[0].startswith("trace-identity: ")


@pytest.mark.parametrize("n_atoms", [1, 2])
def test_trace_identity_beta_array_matches_scalar_calls(n_atoms):
    p = ModelParams(1.0, 0.8, g1=0.4, g2=0.3)
    betas = np.array([0.01, 0.5, 2.0, 7.0, 100.0])
    residuals = verify_trace_identity(p, n_atoms, 5, betas)
    assert residuals.shape == betas.shape
    scalar = [verify_trace_identity(p, n_atoms, 5, b) for b in betas]
    assert all(isinstance(r, float) for r in scalar)
    assert residuals.tolist() == scalar


@pytest.mark.parametrize("n_atoms", [1, 2, 3])
def test_register_diagonals_match_per_state_loop(n_atoms):
    number = [bin(state).count("1") for state in range(4**n_atoms)]
    single = [
        all(
            ((state >> (2 * site)) & 1) + ((state >> (2 * site + 1)) & 1) == 1
            for site in range(n_atoms)
        )
        for state in range(4**n_atoms)
    ]
    assert fermion_number_diagonal(n_atoms).tolist() == number
    n_max = 2
    diag = physical_projector_diagonal(n_atoms, n_max)
    assert diag.tolist() == np.repeat(np.array(single, dtype=float), n_max + 1).tolist()


def test_unphysical_sector_phased_trace_cancels():
    p = ModelParams(1.0, 0.8, g1=0.4, g2=0.2)
    n_atoms, n_max, beta = 2, 5, 1.3
    hf = build_fermion_dicke(p, n_atoms, n_max)
    proj = physical_projector_diagonal(n_atoms, n_max)
    nfull = np.repeat(fermion_number_diagonal(n_atoms), n_max + 1)
    ev, vec = np.linalg.eigh(hf.matrix)
    boltz = (vec * np.exp(-beta * ev)) @ vec.conj().T
    phase = np.exp(-1j * np.pi * nfull / 2.0)
    unphys = proj < 0.5
    contribution = np.sum(phase[unphys] * np.diag(boltz)[unphys])
    assert abs(contribution) < 1e-10


def test_oracle_consistency_physical_trace_vs_thermal_solve():
    p = ModelParams(1.0, 1.0, g1=0.3, g2=0.2)
    n_atoms, n_max, beta = 2, 6, 1.3
    hf = build_fermion_dicke(p, n_atoms, n_max)
    proj = physical_projector_diagonal(n_atoms, n_max)
    phys = np.where(proj > 0.5)[0]
    ev = np.linalg.eigvalsh(hf.matrix[np.ix_(phys, phys)])
    z_phys = np.sum(np.exp(-beta * ev))
    hs = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max)
    z_ed = thermal_solve(hs, beta).Z
    assert abs(z_phys - z_ed) / z_ed < 1e-10


def test_fermion_dicke_dimension_guard():
    with pytest.raises(DimensionLimitError):
        build_fermion_dicke(ModelParams(1.0, 1.0), 4, 6)
