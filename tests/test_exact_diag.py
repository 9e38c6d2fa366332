import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicketherm.exact_diag as exact_diag
import dicketherm.operators as operators
from _oracles import (
    bose_occupation,
    couplings_taken_by,
    join_blocks,
    kron_spin_blocks,
    parity_halves,
    excitation_diagonal,
    parity_diagonal,
    photon_number_diagonal,
)
from dicketherm.exact_diag import (
    CurvePoint,
    TruncationConvergenceError,
    excitation_gaps,
    photon_density_curve,
    richardson_in_inverse_n,
    thermal_solve,
)
from dicketherm.operators import (
    SINGLE_ATOM_KINDS,
    DimensionLimitError,
    HamiltonianKind,
    HermitianOperator,
    ModelParams,
    NotHermitianError,
    block_stacks,
    build_hamiltonian,
)
from dicketherm.thermo import mode_energies

COLLECTIVE_KINDS = frozenset(HamiltonianKind) - SINGLE_ATOM_KINDS
# every kind but generalized Dicke has one coupling, and conserves an
# excitation number K
EXCITATION_KINDS = frozenset(HamiltonianKind) - {HamiltonianKind.GENERALIZED_DICKE}
# generalized Dicke's couplings (g1, g2): both act, one acts, or neither
TWO_COUPLINGS = ((0.3, 0.2),)
ONE_COUPLING = ((0.3, 0.0), (0.0, 0.2), (0.0, 0.0))


def test_two_level_partition_function():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    for beta in (0.5, 1.0, 3.0):
        res = thermal_solve(h, beta)
        assert res.Z == pytest.approx(1.0 + math.exp(-beta))


def test_partition_function_is_boltzmann_sum():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(12, 12))
    h = HermitianOperator(m + m.T)
    beta = 0.8
    res = thermal_solve(h, beta)
    ev = res.eigenvalues
    assert list(ev) == sorted(ev)
    assert res.Z == pytest.approx(np.exp(-beta * ev).sum())


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_nan_entries():
    # a NaN deviation fails every comparison, so it must not pass as small
    with pytest.raises(NotHermitianError, match="nan"):
        HermitianOperator(np.array([[math.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotHermitianError):
        HermitianOperator(np.array([[0.0, math.nan], [math.nan, 0.0]]))


def test_real_input_stays_real_and_complex_is_refused():
    source = np.array([[1.0, 2.0], [2.0, 3.0]])
    for given in (source, source.astype(np.float32), np.array([[1, 2], [2, 3]])):
        h = HermitianOperator(given)
        assert h.matrix.dtype == np.float64
        assert not h.matrix.flags.writeable
        assert np.array_equal(h.matrix, given)
    # a copy: the caller's array stays writable and unshared
    assert source.flags.writeable and not np.shares_memory(h.matrix, source)
    # a real matrix is checked for symmetry to the same tolerance
    off = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
    with pytest.raises(NotHermitianError, match="1.000e-09"):
        HermitianOperator(off)
    HermitianOperator(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
    # complex input is refused, even with zero imaginary parts: the dense
    # oracle is real
    for given in (source + 0j, np.array([[0.0, 1j], [-1j, 0.0]])):
        with pytest.raises(ValueError, match="must be real"):
            HermitianOperator(given)


def test_dimension_guard(monkeypatch):
    h = HermitianOperator(np.zeros((8, 8)))
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 4)
    with pytest.raises(DimensionLimitError, match="exceeds limit 4"):
        thermal_solve(h, 1.0)


def test_thermal_solve_rejects_nonpositive_beta():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        thermal_solve(h, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_thermal_solve_rejects_non_finite_beta(bad):
    h = HermitianOperator(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="positive and finite"):
        thermal_solve(h, bad)


def test_decoupled_partition_function_factorizes():
    p = ModelParams(1.0, 1.3)
    n_atoms, n_max, beta = 2, 5, 0.9
    h = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max)
    z = thermal_solve(h, beta).Z
    z_boson = sum(math.exp(-beta * p.omega0 * n) for n in range(n_max + 1))
    z_qubit = (2.0 * math.cosh(beta * p.Omega / 2.0)) ** n_atoms
    assert z == pytest.approx(z_boson * z_qubit, rel=1e-12)


def test_decoupled_photon_number_is_truncated_bose():
    p = ModelParams(1.0, 1.0)
    n_atoms, n_max = 2, 12
    h = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max)
    num = photon_number_diagonal(n_atoms, n_max)
    for beta in (0.7, 2.0):
        res = thermal_solve(h, beta, {"n": num})
        assert res.observables["n"] == pytest.approx(
            bose_occupation(beta, p.omega0, n_max), rel=1e-10
        )


def test_parity_expectation_limits():
    p = ModelParams(1.0, 1.0, g1=0.4, g2=0.3)
    n_atoms, n_max = 2, 10
    h = build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max)
    pi = parity_diagonal(n_atoms, n_max)
    hot = thermal_solve(h, 1e-8, {"parity": pi})
    assert abs(hot.observables["parity"]) < 1e-9
    cold = thermal_solve(h, 40.0, {"parity": pi})
    assert cold.observables["parity"] == pytest.approx(1.0, abs=1e-6)


def test_thermal_solve_refuses_a_non_diagonal_observable(monkeypatch):
    # observables are given by their diagonals, so a matrix, or a diagonal
    # of the wrong length, is refused before anything is diagonalized
    h = HermitianOperator(np.diag([0.0, 1.0]))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    number = np.array([0.0, 1.0])

    def poisoned(*args, **kwargs):
        raise AssertionError("diagonalized before the refusal")

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    for bad in (flip, np.array([0.0, 1.0, 2.0]), np.float64(1.0)):
        with pytest.raises(
            ValueError, match="observable 'flip' must be a diagonal of 2 values"
        ):
            thermal_solve(h, 1.0, {"n": number, "flip": bad})


def test_rwa_eigenvectors_have_sharp_excitation_number():
    p = ModelParams(1.0, 0.61803, g1=0.3)
    n_atoms, n_max = 2, 6
    h = build_hamiltonian(HamiltonianKind.DICKE_RWA, p, n_atoms, n_max)
    exc = excitation_diagonal(n_atoms, n_max)
    _, vecs = np.linalg.eigh(h.matrix)
    for k in range(vecs.shape[1]):
        v = vecs[:, k]
        mean = v @ (exc * v)
        second = v @ (exc * exc * v)
        assert abs(second - mean**2) < 1e-12


def _rung(params, n_atoms, beta, target_tol, kind=HamiltonianKind.GENERALIZED_DICKE):
    """The converged ladder rung, half the one a curve point reports."""
    (point,) = photon_density_curve(
        params, beta, (n_atoms,), target_tol=target_tol, kind=kind
    )
    return point.n_max_used // 2


def test_ladder_free_case_converges_at_the_first_rung():
    p = ModelParams(1.0, 1.0)
    assert _rung(p, 2, 3.0, 1e-10) == 8
    # an infinite tolerance accepts rung 8 once its doubling is solved
    assert _rung(p, 2, 3.0, math.inf) == 8


def test_ladder_exhausts_the_ceiling(monkeypatch):
    p = ModelParams(1.0, 1.0, g1=0.9, g2=0.9)
    # n_max = 16 fits, 3 * 17 rows, and its doubling does not
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 3 * 33 - 1)
    with pytest.raises(TruncationConvergenceError, match="n_max=16 "):
        _rung(p, 2, 5.0, 1e-14)
    # a ladder that cannot reach n_max = 16 is refused before any rung
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 40)
    with pytest.raises(DimensionLimitError, match=r"51 rows exceeds limit 40"):
        _rung(p, 2, 5.0, 1e-14)


def test_photon_density_curve_free_case():
    p = ModelParams(1.0, 1.0)
    beta = 1.5
    pts = photon_density_curve(p, beta, (2, 4))
    expected = bose_occupation(beta, p.omega0, 64)
    for pt in pts:
        assert isinstance(pt, CurvePoint)
        assert pt.photons_per_atom == pytest.approx(
            expected / pt.n_atoms, rel=1e-8
        )
        assert pt.truncation_error_estimate < 1e-6
    assert [pt.n_atoms for pt in pts] == [2, 4]


def test_photon_density_curve_subcritical_decreases():
    p = ModelParams(6.0, 1.0, g1=0.98, g2=0.98)
    pts = photon_density_curve(p, 3.30, (2, 4, 6))
    dens = [pt.photons_per_atom for pt in pts]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    assert all(pt.n_max_used >= 8 for pt in pts)


def test_mirror_couplings_converge_like_one_over_n():
    # (g, 0) and (0, g) have the same bound, beta_c and rho in closed form;
    # at finite N, K-blocks against L-blocks differ by about 1/N
    kind = HamiltonianKind.GENERALIZED_DICKE
    rotating, counter = ModelParams(1.0, 1.0, 1.3, 0.0), ModelParams(1.0, 1.0, 0.0, 1.3)
    differences = [
        (
            exact_diag._photon_density(rotating, n_atoms, 48, 4.0, kind)
            - exact_diag._photon_density(counter, n_atoms, 48, 4.0, kind)
        )
        / n_atoms
        for n_atoms in (8, 16, 32, 64)
    ]
    assert all(d > 0.0 for d in differences)
    ratios = [a / b for a, b in zip(differences, differences[1:])]
    assert all(1.7 <= r <= 2.3 for r in ratios), ratios


# (g1, g2): both couplings, each alone, and neither
SECTOR_COUPLINGS = ((0.7, 0.45), (0.0, 0.6), (0.8, 0.0), (0.0, 0.0))

# the collective kinds at N = 1 .. 6, the single-atom kinds at N = 1
KIND_SIZES = [
    (kind, n_atoms)
    for kind in sorted(HamiltonianKind, key=lambda k: k.value)
    for n_atoms in (range(1, 7) if kind in COLLECTIVE_KINDS else (1,))
]


@pytest.mark.parametrize(
    "kind, n_atoms", KIND_SIZES, ids=[f"{k.value}-{n}" for k, n in KIND_SIZES]
)
def test_sector_photon_density_matches_dense_oracle(kind, n_atoms):
    n_max = 8
    number = photon_number_diagonal(n_atoms, n_max)
    for g1, g2 in couplings_taken_by(kind, SECTOR_COUPLINGS):
        p = ModelParams(1.0, 1.3, g1=g1, g2=g2)
        h = build_hamiltonian(kind, p, n_atoms, n_max)
        for beta in (0.3, 3.3, 40.0):
            dense = thermal_solve(h, beta, {"n": number}).observables["n"]
            sector = exact_diag._photon_density(p, n_atoms, n_max, beta, kind)
            assert abs(sector - dense) <= 1e-12, (g1, g2, beta)


def test_sector_spectrum_is_dense_spectrum_with_multiplicities():
    p = ModelParams(1.0, 0.7, g1=0.5, g2=0.3)
    n_atoms, n_max = 5, 4
    dense = build_hamiltonian(
        HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max
    ).eigenvalues()
    pairs = block_stacks(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, n_max)
    sector = []
    for stacked, _, size, multiplicity in pairs:
        eigenvalues = np.linalg.eigvalsh(stacked)
        for half in (0, 1):
            # the padding row, if any, is dropped by index
            kept = eigenvalues[half, : size[half]]
            sector.append(np.repeat(kept, multiplicity[half].astype(int)))
    assert np.allclose(np.sort(np.concatenate(sector)), dense, atol=1e-12)


@pytest.mark.parametrize("n_atoms", range(1, 7))
@pytest.mark.parametrize(
    "kind", sorted(COLLECTIVE_KINDS, key=lambda k: k.value), ids=lambda k: k.value
)
def test_sector_blocks_match_the_kron_reference(kind, n_atoms):
    for g1, g2 in couplings_taken_by(kind, SECTOR_COUPLINGS):
        p = ModelParams(1.0, 1.3, g1=g1, g2=g2)
        stacks = block_stacks(kind, p, n_atoms, 7)
        built = join_blocks(kind, p, stacks, n_atoms, 7)
        reference = kron_spin_blocks(kind, p, n_atoms, 7)
        assert [d for d, _ in built] == [d for d, _ in reference]
        for (_, h), (_, ref) in zip(built, reference, strict=True):
            assert h.shape == ref.shape
            assert np.all(np.abs(h - ref) <= 1e-14 * np.abs(ref)), (g1, g2)


def _parities(block, n_max):
    spin_rows = block.shape[0] // (n_max + 1)
    return np.add.outer(np.arange(spin_rows), np.arange(n_max + 1)).ravel() % 2


@pytest.mark.parametrize("n_max", [4, 5])
@pytest.mark.parametrize(
    "kind", sorted(COLLECTIVE_KINDS, key=lambda k: k.value), ids=lambda k: k.value
)
def test_sector_blocks_have_no_entry_between_parities(kind, n_max):
    p = ModelParams(1.0, 1.3, g1=0.7, g2=0.45)
    for n_atoms in range(1, 7):
        for _, block in kron_spin_blocks(kind, p, n_atoms, n_max):
            parity = _parities(block, n_max)
            assert np.count_nonzero(block[parity == 0][:, parity == 1]) == 0
            assert np.count_nonzero(block[parity == 1][:, parity == 0]) == 0


@pytest.mark.parametrize("n_max", [4, 5])
@pytest.mark.parametrize(
    "kind", sorted(COLLECTIVE_KINDS, key=lambda k: k.value), ids=lambda k: k.value
)
def test_parity_halves_split_the_block_spectrum(kind, n_max):
    for g1, g2 in SECTOR_COUPLINGS:
        p = ModelParams(1.0, 1.3, g1=g1, g2=g2)
        for n_atoms in range(1, 7):
            for _, block in kron_spin_blocks(kind, p, n_atoms, n_max):
                parity = _parities(block, n_max)
                photons = np.arange(block.shape[0]) % (n_max + 1)
                halves = parity_halves(block, n_max)
                assert len(halves) == 2
                for value, (half, number) in enumerate(halves):
                    rows = parity == value
                    assert np.array_equal(half, block[rows][:, rows])
                    assert np.array_equal(number, photons[rows])
                split = np.sort(
                    np.concatenate([np.linalg.eigvalsh(h) for h, _ in halves])
                )
                full = np.linalg.eigvalsh(block)
                assert np.max(np.abs(split - full)) <= 1e-12, (g1, g2, n_atoms)


@pytest.mark.parametrize("n_max", [7, 8])
def test_parity_pairs_match_the_halves_reference(n_max):
    # n_max = 7 gives every block an even row count; n_max = 8 an odd one
    # at even 2j, where the odd half ends in a padding row
    kind = HamiltonianKind.GENERALIZED_DICKE
    # parity pairs are the split of two acting couplings
    for g1, g2 in ((0.7, 0.45), (0.2, 0.9)):
        p = ModelParams(1.0, 1.3, g1=g1, g2=g2)
        for n_atoms in range(1, 8):
            spin = kron_spin_blocks(kind, p, n_atoms, n_max)
            pairs = block_stacks(kind, p, n_atoms, n_max)
            for (d, block), (stacked, photons, size, multiplicity) in zip(
                spin, pairs, strict=True
            ):
                width = (block.shape[0] + 1) // 2
                assert stacked.shape == (2, width, width)
                assert photons.shape == (2, width)
                assert np.array_equal(multiplicity, [d, d])
                halves = parity_halves(block, n_max)
                assert size.tolist() == [h.shape[0] for h, _ in halves]
                eigenvalues = np.linalg.eigvalsh(stacked)
                for value, (half, number) in enumerate(halves):
                    s = size[value]
                    # the reference forms its entries by Kronecker products
                    error = np.abs(stacked[value, :s, :s] - half)
                    assert np.all(error <= 1e-14 * np.abs(half))
                    assert np.array_equal(photons[value, :s], number)
                    # padding is decoupled, has no photons and sorts last
                    assert np.count_nonzero(stacked[value, s:, :s]) == 0
                    assert np.count_nonzero(stacked[value, :s, s:]) == 0
                    assert np.count_nonzero(photons[value, s:]) == 0
                    assert np.all(eigenvalues[value, s:] > eigenvalues[value, s - 1])
                    error = eigenvalues[value, :s] - np.linalg.eigvalsh(half)
                    assert np.max(np.abs(error)) <= 1e-12, (g1, g2, n_atoms)
                assert size[0] - size[1] == block.shape[0] % 2


@pytest.mark.parametrize("n_max", [2, 3, 8])
@pytest.mark.parametrize(
    "kind", sorted(EXCITATION_KINDS, key=lambda k: k.value), ids=lambda k: k.value
)
def test_excitation_blocks_split_the_spin_block(kind, n_max):
    # g1 = 0 makes physical levels degenerate; at Omega = omega0 the
    # K = j block of an integer j is all zero, which a padding row left
    # at diagonal 0 would join
    points = ((1.0, 1.3, 0.7), (1.0, 1.0, 0.0), (1.0, 1.0, 0.45), (0.6, 1.7, 0.2))
    step = 2 if kind is HamiltonianKind.TWO_PHOTON_JC else 1
    collective = kind in COLLECTIVE_KINDS
    zero_levels = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega0, Omega, g1 in points:
            p = ModelParams(omega0, Omega, g1=g1)
            for n_atoms in range(1, 8) if collective else (1,):
                if collective:
                    spin = kron_spin_blocks(kind, p, n_atoms, n_max)
                else:
                    # the dense order q (n_max + 1) + n is a (n_max + 1) + n
                    dense = build_hamiltonian(kind, p, 1, n_max).matrix
                    spin = [(1, dense)]
                ((stacked, photons, size, multiplicity),) = block_stacks(
                    kind, p, n_atoms, n_max
                )
                # one stack for every j, padded to the j = N/2 width
                rows = min(n_atoms, n_max // step) + 1
                assert stacked.shape == (size.size, rows, rows)
                assert photons.shape == multiplicity.shape + (rows,)
                eigenvalues = np.linalg.eigvalsh(stacked)
                kept = np.arange(rows) < size[:, None]
                first = 0
                for d, block in spin:
                    # the K-blocks of this j, K = 0 .. s 2j + n_max
                    two_j = block.shape[0] // (n_max + 1) - 1
                    at = slice(first, first + step * two_j + n_max + 1)
                    first = at.stop
                    assert np.all(multiplicity[at] == d)
                    assert np.all(size[at] <= min(two_j, n_max // step) + 1)
                    # the rows of every K-block, in the spin block's order
                    K = np.arange(at.stop - at.start)[:, None]
                    a = (K - photons[at]) / step
                    index = np.where(kept[at], a * (n_max + 1) + photons[at], -1)
                    assert np.array_equal(
                        np.sort(index[kept[at]]), np.arange(block.shape[0])
                    )
                    for k, s in enumerate(size[at]):
                        b = at.start + k
                        where = index[k, :s].astype(int)
                        # both references form their entries from other
                        # products, b'b from roots, so they are off by rounding
                        assert np.all(
                            np.abs(stacked[b, :s, :s] - block[where[:, None], where])
                            <= 1e-12
                        )
                        assert np.count_nonzero(stacked[b, s:, :s]) == 0
                        assert np.count_nonzero(photons[b, s:]) == 0
                        # padding sorts last
                        assert np.all(eigenvalues[b, s:] > eigenvalues[b, s - 1])
                    physical = np.sort(eigenvalues[at][kept[at]])
                    full = np.linalg.eigvalsh(block)
                    assert np.max(np.abs(physical - full)) <= 1e-12, (
                        p, n_atoms
                    )
                    zero_levels += np.count_nonzero(physical == 0.0)
                assert first == size.size
    assert zero_levels > 0 or not collective


def test_excitation_number_blocks_refuse_bad_sizes(monkeypatch):
    p = ModelParams(1.0, 1.0, g1=0.5)
    # refused on the call, before the stack is asked for
    with pytest.raises(ValueError, match="single-atom model, got N=2"):
        block_stacks(HamiltonianKind.TWO_PHOTON_JC, p, 2, 8)
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 296)
    with pytest.raises(DimensionLimitError):
        block_stacks(HamiltonianKind.DICKE_RWA, p, 8, 32)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_sector_multiplicities_cover_the_register(n_atoms):
    p = ModelParams(1.0, 1.0, g1=0.3, g2=0.2)
    pairs = block_stacks(HamiltonianKind.GENERALIZED_DICKE, p, n_atoms, 2)
    # each spin block's rows, both halves, and its multiplicity d_j
    blocks = [(d[0], size.sum()) for _, _, size, d in pairs]
    assert sum(d * rows // 3 for d, rows in blocks) == 2**n_atoms
    assert [rows // 3 for _, rows in blocks] == list(range(n_atoms + 1, 0, -2))
    # the K-blocks of every spin block, each row counted d_j times
    ((_, _, size, d),) = block_stacks(HamiltonianKind.DICKE_RWA, ModelParams(1.0, 1.0, 0.3), n_atoms, 2)
    assert sum(int(m) * int(s) for m, s in zip(d, size)) == 3 * 2**n_atoms


def test_spin_blocks_refuse_an_n_past_the_float_range(monkeypatch):
    # (1101) 3 rows fit the ceiling, but the largest d_j of 1100 atoms
    # does not fit a float; refused before any multiplicity is formed
    p, rwa = ModelParams(1.0, 1.0, 0.1), HamiltonianKind.DICKE_RWA
    monkeypatch.setattr(operators, "_spin_multiplicities", None)
    refusal = (
        r"^spin multiplicities of N=1100 atoms leave the float range: the "
        r"thermal sums weight 2\^1100 x 3 states by d_j, past the largest "
        r"float \(N=1100, n_max=2\)$"
    )
    for kind in (rwa, HamiltonianKind.GENERALIZED_DICKE):
        with pytest.raises(DimensionLimitError, match=refusal):
            exact_diag._photon_density(p, 1100, 2, 1.0, kind)
    # 6 2^1021 is a float and 6 2^1022 is not: the largest N at n_max = 2
    with pytest.raises(DimensionLimitError, match=r"^spin multiplicities of N=1022 "):
        block_stacks(rwa, p, 1022, 2)
    monkeypatch.undo()
    # at the largest admitted N every Boltzmann factor is about 1, the
    # largest the sums can be, and they stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density = exact_diag._photon_density(p, 1021, 2, 1e-10, rwa)
    assert density == pytest.approx(1.0, rel=1e-9)


def test_sector_builder_guards(monkeypatch):
    p = ModelParams(1.0, 1.0, g1=0.5)
    with pytest.raises(ValueError, match="beta"):
        exact_diag._photon_density(p, 2, 8, 0.0, HamiltonianKind.GENERALIZED_DICKE)
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 296)
    # refused on the call, before the first block is asked for
    with pytest.raises(DimensionLimitError):
        block_stacks(HamiltonianKind.GENERALIZED_DICKE, p, 8, 32)


@pytest.mark.parametrize(
    "kind, g1, n_atoms",
    [
        (HamiltonianKind.INTENSITY_DICKE, 0.5, 8),
        (HamiltonianKind.INTENSITY_DICKE, 0.5, 4),
        (HamiltonianKind.INTENSITY_DICKE, 1.0, 1),
        (HamiltonianKind.INTENSITY_JC, 1.0, 1),
        (HamiltonianKind.TWO_PHOTON_JC, 1.2, 1),
        (HamiltonianKind.TWO_PHOTON_JC, 1.0, 1),
    ],
    ids=[
        "above", "equal", "N=1", "intensity-jc", "two-photon-jc-above",
        "two-photon-jc-equal",
    ],
)
def test_ladder_refuses_intensity_dicke_without_thermal_state(
    kind, g1, n_atoms, monkeypatch
):
    solved = []
    monkeypatch.setattr(
        exact_diag, "_photon_density", lambda *args: solved.append(args)
    )
    p = ModelParams(1.0, 1.0, g1=g1)
    refusal = f"{kind.value} has no thermal state at N={n_atoms}:"
    with pytest.raises(ValueError, match=refusal):
        photon_density_curve(p, 1.0, (n_atoms,), target_tol=1e-6, kind=kind)
    # every N is checked before the first one's ladder starts
    with pytest.raises(ValueError, match=refusal):
        photon_density_curve(p, 1.0, (1, n_atoms), kind=kind)
    assert solved == []


@pytest.mark.parametrize(
    "kind, g1, n_list",
    [
        (HamiltonianKind.INTENSITY_JC, 0.8, (2,)),
        (HamiltonianKind.JAYNES_CUMMINGS, 0.5, (1, 2)),
        (HamiltonianKind.TWO_PHOTON_JC, 1.2, (2, 1)),
    ],
    ids=["intensity-jc", "jaynes-cummings", "two-photon-jc"],
)
def test_ladder_refuses_single_atom_kinds_at_other_n(kind, g1, n_list, monkeypatch):
    solved = []
    monkeypatch.setattr(
        exact_diag, "_photon_density", lambda *args: solved.append(args)
    )
    p = ModelParams(1.0, 1.0, g1=g1)
    # the atom number is checked before the thermal-state rule
    refusal = f"{kind.value} is a single-atom model, got N=2"
    with pytest.raises(ValueError, match=refusal):
        photon_density_curve(p, 1.0, (2,), target_tol=1e-6, kind=kind)
    # every N is checked before the first one's ladder starts
    with pytest.raises(ValueError, match=refusal):
        photon_density_curve(p, 1.0, n_list, kind=kind)
    assert solved == []


@pytest.mark.parametrize("kind", list(HamiltonianKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n_list", [(2, 0), (0,), (1, -1)], ids=str)
def test_ladder_refuses_no_atoms_before_any_rung(kind, n_list, monkeypatch):
    solved = []
    monkeypatch.setattr(
        exact_diag, "_photon_density", lambda *args: solved.append(args)
    )
    p = ModelParams(1.0, 1.0, g1=0.1)
    refusal = f"n_atoms must be at least 1, got {min(n_list)}$"
    with pytest.raises(ValueError, match=refusal):
        photon_density_curve(p, 1.0, n_list, kind=kind)
    with pytest.raises(ValueError, match=refusal):
        photon_density_curve(p, 1.0, (min(n_list),), target_tol=1e-6, kind=kind)
    assert solved == []


@pytest.mark.parametrize(
    "kind", sorted(COLLECTIVE_KINDS, key=lambda k: k.value), ids=lambda k: k.value
)
@pytest.mark.parametrize(
    "n_list, refusal",
    [
        pytest.param(n_list, refusal, id=str(n_list))
        for n_list, refusal in (
            # n_max = 8 at N = 700 has 701 * 9 rows
            ((2, 700), r"matrix of 6309 rows exceeds limit 6000 \(N=700, n_max=8\)"),
            ((700,), r"matrix of 6309 rows exceeds limit 6000 \(N=700, n_max=8\)"),
            # n_max = 8 at N = 400 fits, but its doubling has 401 * 17 rows
            ((400,), r"matrix of 6817 rows exceeds limit 6000 \(N=400, n_max=16\)"),
            # every first rung is checked before any doubling
            ((400, 700), r"matrix of 6309 rows exceeds limit 6000 \(N=700, n_max=8\)"),
        )
    ],
)
def test_ladder_refuses_a_first_rung_past_the_ceiling_before_any_rung(
    kind, n_list, refusal, monkeypatch
):
    solved = []
    monkeypatch.setattr(
        exact_diag, "_photon_density", lambda *args: solved.append(args)
    )
    with pytest.raises(DimensionLimitError, match=refusal):
        photon_density_curve(ModelParams(1.0, 1.0, g1=0.01), 1.0, n_list, kind=kind)
    assert solved == []
    # the last N whose first doubling fits, 352 * 17 = 5984 rows
    exact_diag.check_ladder_inputs(
        ModelParams(1.0, 1.0, g1=0.01), 1.0, 1e-6, kind, (351,)
    )
    with pytest.raises(DimensionLimitError, match=r"matrix of 6001 rows"):
        exact_diag.check_ladder_inputs(
            ModelParams(1.0, 1.0, g1=0.01), 1.0, 1e-6, kind, (352,)
        )


@pytest.mark.parametrize("n_max", [8, 9])
@pytest.mark.parametrize(
    "kind", sorted(HamiltonianKind, key=lambda k: k.value), ids=lambda k: k.value
)
def test_block_stacks_group_parity_pairs_per_j_and_k_blocks_in_one_stack(
    kind, n_max
):
    step = 2 if kind is HamiltonianKind.TWO_PHOTON_JC else 1
    dicke = kind is HamiltonianKind.GENERALIZED_DICKE
    for n_atoms in range(1, 8) if kind in COLLECTIVE_KINDS else (1,):
        two_js = range(n_atoms, -1, -2)
        # a kind of one coupling refuses a g2 it would ignore
        for g1, g2 in couplings_taken_by(kind, (*TWO_COUPLINGS, *ONE_COUPLING)):
            stacks = list(block_stacks(kind, ModelParams(1.0, 1.3, g1, g2), n_atoms, n_max))
            if dicke and g1 and g2:
                # one parity pair per spin block, j = N/2 first
                assert len(stacks) == n_atoms // 2 + 1
                for (h, _, _, _), two_j in zip(stacks, two_js, strict=True):
                    half = ((two_j + 1) * (n_max + 1) + 1) // 2
                    assert h.shape == (2, half, half)
            else:
                # one stack of the K- (or L-) blocks of every spin block
                ((h, _, _, _),) = stacks
                width = min(n_atoms, n_max // step) + 1
                blocks = sum(step * two_j + n_max + 1 for two_j in two_js)
                assert h.shape == (blocks, width, width)


def test_ladders_never_take_the_dense_route(monkeypatch):
    def poisoned(*args, **kwargs):
        raise AssertionError("dense route taken")

    for name in ("build_hamiltonian", "thermal_solve"):
        monkeypatch.setattr(exact_diag, name, poisoned)
    for kind in HamiltonianKind:
        # a kind of one coupling refuses a g2 it would ignore
        p = ModelParams(1.0, 1.3, g1=0.3, g2=0.0 if kind in EXCITATION_KINDS else 0.2)
        n_list = [2, 5] if kind in COLLECTIVE_KINDS else [1]
        pts = photon_density_curve(p, 1.0, n_list, kind=kind)
        assert [pt.n_atoms for pt in pts] == n_list
        assert all(pt.photons_per_atom > 0.0 for pt in pts)


@pytest.mark.parametrize(
    "kind, n_atoms",
    [
        (kind, n_atoms)
        for kind in sorted(HamiltonianKind, key=lambda k: k.value)
        for n_atoms in (range(1, 8) if kind in COLLECTIVE_KINDS else (1,))
    ],
    ids=lambda v: v.value if isinstance(v, HamiltonianKind) else str(v),
)
def test_each_rung_is_one_batched_eigensolve_per_stack(kind, n_atoms, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    pairs = couplings_taken_by(kind, (*TWO_COUPLINGS, *ONE_COUPLING))
    for (g1, g2), n_max in itertools.product(pairs, (8, 9)):
        calls.clear()
        p = ModelParams(1.0, 1.3, g1=g1, g2=g2)
        exact_diag._photon_density(p, n_atoms, n_max, 1.0, kind)
        if kind in EXCITATION_KINDS or not (g1 and g2):
            # one stack for every j
            assert len(calls) == 1
        else:
            # one parity pair per spin block
            assert len(calls) == n_atoms // 2 + 1
            assert all(shape[0] == 2 for shape in calls)


def test_ladder_guard_bounds_the_matrix_actually_diagonalized(monkeypatch):
    p = ModelParams(1.0, 1.0, g1=0.8, g2=0.8)
    # the dense matrix, 2^8 * 33 rows, is past the ceiling ...
    with pytest.raises(DimensionLimitError):
        build_hamiltonian(HamiltonianKind.GENERALIZED_DICKE, p, 8, 32)
    # ... but the ladder diagonalizes spin blocks of at most 9 * 65 rows
    assert _rung(p, 8, 5.0, 1e-6) == 32
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 9 * 33)
    with pytest.raises(TruncationConvergenceError, match="n_max=32 "):
        _rung(p, 8, 5.0, 1e-300)
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 9 * 33 - 1)
    with pytest.raises(TruncationConvergenceError, match="n_max=16 "):
        _rung(p, 8, 5.0, 1e-300)
    # at N = 1 the spin-block bound (N + 1)(n_max + 1) is 2 (n_max + 1); at
    # beta = 0.05 every rung up to n_max = 64 moves the photon number by
    # more than 3
    jc = ModelParams(1.0, 1.0, g1=0.9)
    kind = HamiltonianKind.JAYNES_CUMMINGS
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 2 * 33)
    with pytest.raises(TruncationConvergenceError, match="n_max=32 "):
        _rung(jc, 1, 0.05, 1e-300, kind)
    monkeypatch.setattr(operators, "DIMENSION_LIMIT", 2 * 33 - 1)
    with pytest.raises(TruncationConvergenceError, match="n_max=16 "):
        _rung(jc, 1, 0.05, 1e-300, kind)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_ladder_rejects_bad_beta(beta):
    p = ModelParams(1.0, 1.0, g1=0.3)
    with pytest.raises(ValueError, match="beta"):
        photon_density_curve(p, beta, (2,))


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6, -math.inf])
def test_ladder_rejects_bad_tolerance(tol):
    p = ModelParams(1.0, 1.0, g1=0.3)
    with pytest.raises(ValueError, match="target_tol"):
        photon_density_curve(p, 1.0, (2,), target_tol=tol)


def test_each_rung_is_solved_once_per_call(monkeypatch):
    solved = []
    original = exact_diag._photon_density

    def counting(params, n_atoms, n_max, *rest):
        solved.append((n_atoms, n_max))
        return original(params, n_atoms, n_max, *rest)

    monkeypatch.setattr(exact_diag, "_photon_density", counting)
    p = ModelParams(1.0, 1.0)
    for _ in range(2):
        solved.clear()
        pts = photon_density_curve(p, 3.0, (2, 3), target_tol=1e-10)
        assert [pt.n_max_used for pt in pts] == [16, 16]
        assert solved == [(2, 8), (2, 16), (3, 8), (3, 16)]


def test_richardson_in_inverse_n_removes_each_power_of_one_over_n():
    # a + b/N + c/N^2 at three sizes is extrapolated exactly, and the
    # estimate is the change the last step made
    sizes = [8, 16, 32]
    values = [2.0 + 3.0 / n - 5.0 / n**2 for n in sizes]
    value, error = richardson_in_inverse_n(sizes, values)
    assert value == pytest.approx(2.0, abs=1e-13)
    two_step, _ = richardson_in_inverse_n(sizes[1:], values[1:])
    assert error == pytest.approx(abs(value - two_step), abs=1e-13)
    # two sizes N, 2N: 2 v(2N) - v(N), estimated by its distance from v(2N)
    assert richardson_in_inverse_n([32, 64], [0.5, 0.25]) == (0.0, 0.25)
    with pytest.raises(ValueError, match="two or more sizes"):
        richardson_in_inverse_n([32], [0.5])


def test_excitation_gaps_refuse_a_missing_coupling_and_a_count_past_the_block():
    with pytest.raises(ValueError, match="g1 > 0 and g2 > 0"):
        excitation_gaps(ModelParams(1.0, 1.0, g1=0.3), 4, 8, 2)
    # the top block of N = 2 at n_max 2 has 3 x 3 levels
    p = ModelParams(1.0, 1.0, g1=0.3, g2=0.2)
    assert excitation_gaps(p, 2, 2, 8).shape == (8,)
    with pytest.raises(ValueError, match="count must be 1 to 8, got 9"):
        excitation_gaps(p, 2, 2, 9)


@pytest.mark.parametrize(
    "params, upper_gap",
    [
        (ModelParams(1.0, 1.0, g1=0.3, g2=0.2), 1),
        # the upper mode sits above twice, three and four times the
        # lower, or above twice the lower
        (ModelParams(1.0, 0.5, g1=0.4, g2=0.1), 4),
        (ModelParams(2.0, 1.0, g1=0.1, g2=0.9), 2),
    ],
)
def test_zero_temperature_modes_are_the_large_n_limit_of_the_top_block_gaps(
    params, upper_gap
):
    # Emary and Brandes (PRE 67, 066203, 2003): in the normal phase the
    # one-quantum gaps of the j = N/2 block tend to the collective modes at
    # T = 0, where the thermal factor is one under either trace.  Each
    # closed-form mode is matched to its nearest gap, and the 1/N
    # extrapolant of the N = 32 and 64 gaps lies within its own estimate.
    sizes = (32, 64)
    gaps = [excitation_gaps(params, n_atoms, 24, 5) for n_atoms in sizes]
    modes = mode_energies(params, math.inf)
    assert len(modes) == 2
    for mode, index in zip(modes, (0, upper_gap)):
        nearest = [int(np.argmin(np.abs(g - mode))) for g in gaps]
        assert nearest == [index, index]
        value, error = richardson_in_inverse_n(sizes, [g[index] for g in gaps])
        assert abs(value - mode) <= error, (mode, value, error)
