import itertools
import re

import numpy as np
import pytest

from qmeasure import (
    DecoherenceFunctional,
    DensityOperator,
    GridSpace,
    Hamiltonian,
    HistorySet,
    InconsistentFamily,
    InvalidHistorySet,
    InvalidIndex,
    LinearOperator,
    PureState,
    SIGMA_Z,
    basis_state,
    born_distribution,
    build_measurement_unitary,
    class_operator,
    coarse_grain,
    collapse,
    decoherence_functional,
    free_hamiltonian,
    gaussian_packet,
    history_probabilities,
    is_consistent,
    propagate,
    region_projector,
    repeated_measurement_joint,
    SimulationError,
    spectral_decompose,
)
from conftest import random_density, random_hermitian, random_state

OBS_Z = spectral_decompose(SIGMA_Z)
Z_FAMILY = [OBS_Z.projector(0), OBS_Z.projector(1)]


def zero_hamiltonian(dim):
    return Hamiltonian(LinearOperator(np.zeros((dim, dim))))


def random_families(rng, dim, sizes):
    families = []
    for n_blocks in sizes:
        h = random_hermitian(rng, dim)
        _, evecs = np.linalg.eigh(h.matrix)
        cuts = sorted(rng.choice(range(1, dim), size=n_blocks - 1, replace=False))
        bounds = [0] + list(cuts) + [dim]
        family = []
        for lo, hi in zip(bounds, bounds[1:]):
            block = evecs[:, lo:hi]
            family.append(LinearOperator(block @ block.conj().T))
        families.append(family)
    return families


def random_block_families(rng, dim, sizes):
    """Column blocks of a random unitary from QR, cut at random ranks."""
    families = []
    for n_blocks in sizes:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        cuts = sorted(rng.choice(range(1, dim), size=n_blocks - 1, replace=False))
        bounds = [0] + list(cuts) + [dim]
        families.append([q[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    return families


def random_index_families(rng, dim, sizes):
    """Random partitions of the basis indices 0..dim-1 into index sets."""
    families = []
    for n_sets in sizes:
        cuts = sorted(rng.choice(range(1, dim), size=n_sets - 1, replace=False))
        families.append(np.split(rng.permutation(dim), cuts))
    return families


def taylor_expm(a):
    squarings = max(0, int(np.ceil(np.log2(np.linalg.norm(a, 1) / 0.25))))
    a = a / 2 ** squarings
    term = total = np.eye(len(a), dtype=complex)
    for k in range(1, 25):
        term = term @ a / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


class TestHistorySet:
    def test_rejects_incomplete_family(self, rng):
        H = zero_hamiltonian(2)
        with pytest.raises(ValueError, match="identity"):
            HistorySet(H, basis_state(2, 0), [1.0], [[OBS_Z.projector(0)]])

    def test_rejects_non_projector(self):
        H = zero_hamiltonian(2)
        halves = [LinearOperator(np.eye(2) / 2), LinearOperator(np.eye(2) / 2)]
        with pytest.raises(ValueError, match="projector"):
            HistorySet(H, basis_state(2, 0), [1.0], [halves])

    @pytest.mark.parametrize("entry", [2 * np.eye(2), np.diag([0.0, 2.0])])
    def test_rejects_integer_eigenvalues_other_than_one(self, entry):
        family = [LinearOperator(entry), LinearOperator(np.eye(2) - entry)]
        with pytest.raises(ValueError, match="family 0 entry 0 is not a projector"):
            HistorySet(zero_hamiltonian(2), basis_state(2, 0), [1.0], [family])

    def test_rejects_unordered_times(self):
        H = zero_hamiltonian(2)
        with pytest.raises(ValueError, match="increasing"):
            HistorySet(H, basis_state(2, 0), [2.0, 1.0], [Z_FAMILY, Z_FAMILY])

    @pytest.mark.parametrize("defect, message", [("not_orthonormal", "identity"),
                                                 ("incomplete", "identity"),
                                                 ("wrong_rows", "shape")])
    def test_rejects_bad_block_family(self, rng, defect, message):
        blocks = random_block_families(rng, 4, [2])[0]
        if defect == "not_orthonormal":
            blocks[0] = 1.5 * blocks[0]
        elif defect == "incomplete":
            blocks = blocks[:1]
        else:
            blocks[1] = blocks[1][:-1]
        with pytest.raises(ValueError, match=message):
            HistorySet(zero_hamiltonian(4), random_state(rng, 4), [1.0], [blocks])

    @pytest.mark.parametrize("build, message", [
        (lambda H, s: HistorySet(H, s, [1.0], [Z_FAMILY, Z_FAMILY]), "one projector family"),
        (lambda H, s: HistorySet(H, s, [], []), "at least one time"),
        (lambda H, s: HistorySet(H, s, [2.0, 1.0], [Z_FAMILY, Z_FAMILY]), "increasing"),
        (lambda H, s: HistorySet(H, basis_state(3, 0), [1.0], [Z_FAMILY]), "does not match"),
        (lambda H, s: HistorySet(H, s, [1.0], [[LinearOperator(np.eye(2) / 2)] * 2]),
         "not a projector"),
        (lambda H, s: HistorySet(H, s, [1.0], [[np.eye(3)[:, :1], np.eye(3)[:, 1:]]]),
         "has shape"),
        (lambda H, s: HistorySet(H, s, [1.0], [[[0], Z_FAMILY[1]]]), "mixes"),
        (lambda H, s: HistorySet(H, s, [1.0], [[[0], [2]]]), "outside"),
        (lambda H, s: HistorySet(H, s, [1.0], [[[0]]]), "spans 1 of 2"),
        (lambda H, s: HistorySet(H, s, [1.0], [[[0], [0]]]), "sums to identity"),
        # the dense constructor keeps its four refusals
        (lambda H, s: DecoherenceFunctional([(0,)], np.eye(2) / 2),
         "one matrix entry per history pair required"),
        (lambda H, s: DecoherenceFunctional([(0,), (1,)], [[0.5, 0.1], [0.0, 0.5]]),
         "decoherence functional must be Hermitian"),
        (lambda H, s: DecoherenceFunctional([(0,), (1,)], [[1.5, 0.0], [0.0, -0.5]]),
         "diagonal must be real and nonnegative"),
        (lambda H, s: DecoherenceFunctional([(0,), (1,)], [[0.5, 0.0], [0.0, 0.25]]),
         "entries sum to (0.75+0j), not 1"),
    ])
    def test_refusals_are_simulation_and_value_errors(self, build, message):
        with pytest.raises(InvalidHistorySet, match=re.escape(message)) as err:
            build(zero_hamiltonian(2), basis_state(2, 0))
        assert isinstance(err.value, SimulationError) and isinstance(err.value, ValueError)

    def test_histories_enumeration(self):
        H = zero_hamiltonian(2)
        hs = HistorySet(H, basis_state(2, 0), [1.0, 2.0], [Z_FAMILY, Z_FAMILY])
        assert hs.histories() == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestIndexSetFamilies:
    @pytest.mark.parametrize("dim", [6, 12])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_index_sets_match_identity_column_blocks(self, rng, dim, mixed):
        # the same cells given as dense identity columns, a block family
        H = Hamiltonian(random_hermitian(rng, dim))
        state = random_density(rng, dim) if mixed else random_state(rng, dim)
        cells = random_index_families(rng, dim, [2, 3])
        eye = np.eye(dim, dtype=complex)
        blocks = [[eye[:, idx] for idx in family] for family in cells]
        hs_cells = HistorySet(H, state, [0.4, 1.3], cells)
        hs_blocks = HistorySet(H, state, [0.4, 1.3], blocks)
        D_cells = decoherence_functional(hs_cells).matrix
        assert np.max(np.abs(D_cells - decoherence_functional(hs_blocks).matrix)) <= 1e-14
        for alpha in hs_cells.histories():
            C_cells = class_operator(hs_cells, alpha).matrix
            assert np.max(np.abs(C_cells - class_operator(hs_blocks, alpha).matrix)) <= 1e-14

    def test_index_sets_stored_as_frozen_copies(self):
        cells = [np.array([0, 1], dtype=np.uint8), np.array([2, 3], dtype=np.int32)]
        hs = HistorySet(zero_hamiltonian(4), basis_state(4, 0), [1.0], [cells])
        assert cells[0].flags.writeable and cells[1].flags.writeable
        cells[0][0] = 3
        basis, slices = hs.families[0]
        assert basis.order.dtype == np.intp and not basis.order.flags.writeable
        np.testing.assert_array_equal(basis.order, [0, 1, 2, 3])
        assert slices == (slice(0, 2), slice(2, 4))

    @pytest.mark.parametrize("dim, family, message", [
        (4, [[0, 1], [1, 2]], "family 1 sums to identity with defect 1.000e+00"),
        (4, [[0, 1], [2]], "family 1 spans 3 of 4 dimensions"),
        (4, [[-1, 1], [2, 3]], "family 1 entry 0 has indices outside [0, 4)"),
        (4, [[0, 1], [2, 4]], "family 1 entry 1 has indices outside [0, 4)"),
        (4, [np.array([0, 1], dtype=np.int64), np.array([2, 2 ** 64 - 1], dtype=np.uint64)],
         "family 1 entry 1 has indices outside [0, 4)"),
        (4, [np.array([True, True, False, False]), np.array([False, False, True, True])],
         "family 1 entry 0 has shape (4,), expected (4, r)"),
        (4, [np.array([0.0, 1.0]), [2, 3]], "family 1 entry 0 has shape (2,), expected (4, r)"),
        (4, [[0, 1], np.eye(4)[:, 2:]], "family 1 mixes index sets with blocks"),
        (2, [[0], Z_FAMILY[1]], "family 1 mixes index sets with blocks"),
    ], ids=["repeated", "missing", "negative", "too_large", "unsigned_past_intp", "boolean",
            "float", "mixed_block", "mixed_projector"])
    def test_rejects_bad_index_family(self, dim, family, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            HistorySet(zero_hamiltonian(dim), basis_state(dim, 0), [1.0, 2.0],
                       [[np.arange(dim)], family])

    @pytest.mark.parametrize("bad", [-1, -7, 12, 13])
    @pytest.mark.parametrize("a", [0, 2, 3, 4])
    def test_out_of_range_index_names_its_entry(self, bad, a):
        # five entries, one of them empty, checked in one pass over their
        # concatenation: the message still names the entry holding the index
        dim = 12
        family = [np.arange(0, 3), np.arange(3, 3), np.arange(3, 7), np.arange(7, 9),
                  np.arange(9, 12)]
        family[a] = family[a].copy()
        family[a][0] = bad
        with pytest.raises(ValueError,
                           match=re.escape(f"family 1 entry {a} has indices outside [0, 12)")):
            HistorySet(zero_hamiltonian(dim), basis_state(dim, 0), [1.0, 2.0],
                       [[np.arange(dim)], family])



class TestClassOperator:
    def test_single_time_definition(self, rng):
        H = Hamiltonian(random_hermitian(rng, 2))
        hs = HistorySet(H, basis_state(2, 0), [1.3], [Z_FAMILY])
        C = class_operator(hs, (1,))
        oracle = Z_FAMILY[1].matrix @ propagate(H, 1.3).matrix
        np.testing.assert_allclose(C.matrix, oracle, atol=1e-12)

    def test_identity_families_give_propagator(self, rng):
        H = Hamiltonian(random_hermitian(rng, 3))
        trivial = [LinearOperator(np.eye(3))]
        hs = HistorySet(H, basis_state(3, 0), [0.7, 1.9], [trivial, trivial])
        C = class_operator(hs, (0, 0))
        np.testing.assert_allclose(C.matrix, propagate(H, 1.9).matrix, atol=1e-12)

    def test_class_operators_telescope(self, rng):
        dim = 4
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 3])
        hs = HistorySet(H, random_state(rng, dim), [0.5, 1.1], families)
        total = np.zeros((dim, dim), dtype=complex)
        for alpha in hs.histories():
            total += class_operator(hs, alpha).matrix
        np.testing.assert_allclose(total, propagate(H, 1.1).matrix, atol=1e-10)

    def test_invalid_index(self):
        hs = HistorySet(zero_hamiltonian(2), basis_state(2, 0), [1.0], [Z_FAMILY])
        with pytest.raises(InvalidIndex):
            class_operator(hs, (2,))
        with pytest.raises(InvalidIndex):
            class_operator(hs, (0, 0))


class TestDecoherenceFunctional:
    def test_single_time_diagonal_is_born(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        D = decoherence_functional(hs)
        born = born_distribution(s, OBS_Z)
        np.testing.assert_allclose(D.diagonal(), born.probabilities, atol=1e-12)
        assert np.max(np.abs(D.matrix - np.diag(np.diagonal(D.matrix)))) < 1e-12

    def test_matches_class_operator_trace_oracle(self, rng):
        dim = 4
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 2])
        rho = random_density(rng, dim)
        hs = HistorySet(H, rho, [0.4, 1.0], families)
        D = decoherence_functional(hs)
        for a, alpha in enumerate(hs.histories()):
            Ca = class_operator(hs, alpha).matrix
            for b, beta in enumerate(hs.histories()):
                Cb = class_operator(hs, beta).matrix
                oracle = np.trace(Ca @ rho.matrix @ Cb.conj().T)
                assert abs(D.matrix[a, b] - oracle) < 1e-10

    def test_pure_state_matches_taylor_branches(self, rng):
        # oracle: branch vectors built with a Taylor-series propagator, no
        # eigendecomposition; D is their Gram matrix
        dim = 5
        h = random_hermitian(rng, dim)
        families = random_families(rng, dim, [2, 3])
        psi = random_state(rng, dim)
        times = [0.3, 1.1]
        hs = HistorySet(Hamiltonian(h), psi, times, families)
        U1 = taylor_expm(-1j * h.matrix * 0.3)
        U2 = taylor_expm(-1j * h.matrix * 0.8)
        branches = [P2.matrix @ U2 @ P1.matrix @ U1 @ psi.amplitudes
                    for P1 in families[0] for P2 in families[1]]
        Y = np.array(branches)
        assert np.max(np.abs(decoherence_functional(hs).matrix - Y @ Y.conj().T)) < 1e-12

    @pytest.mark.parametrize("entry", ["block", "projector"])
    def test_block_families_match_dense_projector_oracle(self, rng, entry):
        # oracle: dense P = B B^dag and a Taylor-series propagator, no
        # eigendecomposition; the set gets the blocks or the projectors
        dim = 6
        h = random_hermitian(rng, dim)
        blocks = random_block_families(rng, dim, [3, 2, 4])
        psi = random_state(rng, dim)
        times = [0.2, 0.7, 1.5]
        families = blocks if entry == "block" else \
            [[LinearOperator(B @ B.conj().T) for B in family] for family in blocks]
        D = decoherence_functional(HistorySet(Hamiltonian(h), psi, times, families))
        steps = [taylor_expm(-1j * h.matrix * dt) for dt in np.diff([0.0] + times)]
        branches = []
        for alpha in itertools.product(*(range(len(f)) for f in blocks)):
            v = psi.amplitudes
            for U, family, a in zip(steps, blocks, alpha):
                v = (family[a] @ family[a].conj().T) @ (U @ v)
            branches.append(v)
        Y = np.array(branches)
        assert np.max(np.abs(D.matrix - Y @ Y.conj().T)) <= 1e-12

    @pytest.mark.parametrize("final", ["index", "block", "projector"])
    def test_different_final_entries_give_exact_zero(self, rng, final):
        # Pi_a Pi_b = 0 for a != b, so D vanishes between histories that end
        # in different final entries: exactly, not at roundoff
        dim = 6
        if final == "index":
            last = random_index_families(rng, dim, [3])[0]
        else:
            last = random_block_families(rng, dim, [3])[0]
            if final == "projector":
                last = [LinearOperator(B @ B.conj().T) for B in last]
        hs = HistorySet(Hamiltonian(random_hermitian(rng, dim)), random_state(rng, dim),
                        [0.4, 1.3], [random_families(rng, dim, [2])[0], last])
        D = decoherence_functional(hs).matrix
        ends = np.array([alpha[-1] for alpha in hs.histories()])
        differ = ends[:, None] != ends[None, :]
        assert np.all(D[differ] == 0.0)
        assert np.all(np.abs(D[~differ]) > 0.0)

    def test_three_families_of_each_kind_match_class_operator_oracle(self, rng):
        # oracle: class operators built by hand from dense projectors and a
        # Taylor-series propagator, no eigendecomposition, traced against rho
        dim = 5
        h = random_hermitian(rng, dim)
        blocks = random_block_families(rng, dim, [2])[0]
        projectors = [LinearOperator(B @ B.conj().T)
                      for B in random_block_families(rng, dim, [3])[0]]
        cells = random_index_families(rng, dim, [2])[0]
        rho = random_density(rng, dim)
        times = [0.3, 0.8, 1.6]
        hs = HistorySet(Hamiltonian(h), rho, times, [blocks, projectors, cells])
        D = decoherence_functional(hs)
        dense = [[B @ B.conj().T for B in blocks], [P.matrix for P in projectors],
                 [np.diag(np.isin(np.arange(dim), idx).astype(complex)) for idx in cells]]
        steps = [taylor_expm(-1j * h.matrix * dt) for dt in np.diff([0.0] + times)]
        C = []
        for alpha in hs.histories():
            c = np.eye(dim, dtype=complex)
            for U, family, a in zip(steps, dense, alpha):
                c = family[a] @ U @ c
            C.append(c)
        oracle = np.array([[np.trace(Ca @ rho.matrix @ Cb.conj().T) for Cb in C] for Ca in C])
        assert np.max(np.abs(D.matrix - oracle)) < 1e-10

    @pytest.mark.parametrize("empty", [np.zeros(0, dtype=int), np.zeros((4, 0), dtype=complex)])
    def test_empty_final_entry_gives_zero_rows_and_columns(self, rng, empty):
        dim = 4
        last = [np.array([2, 0]), np.array([3, 1])] if empty.ndim == 1 else \
            random_block_families(rng, dim, [2])[0]
        H = Hamiltonian(random_hermitian(rng, dim))
        psi = random_state(rng, dim)
        first = random_families(rng, dim, [2])[0]
        D = decoherence_functional(
            HistorySet(H, psi, [0.5, 1.0], [first, [last[0], empty, last[1]]])).matrix
        ends_empty = np.array([alpha[-1] == 1 for alpha in itertools.product(range(2), range(3))])
        assert np.all(D[ends_empty] == 0.0) and np.all(D[:, ends_empty] == 0.0)
        without = decoherence_functional(HistorySet(H, psi, [0.5, 1.0], [first, last])).matrix
        np.testing.assert_array_equal(D[np.ix_(~ends_empty, ~ends_empty)], without)

    def test_invariants_random(self, rng):
        dim = 5
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 3])
        hs = HistorySet(H, random_state(rng, dim), [0.3, 0.9], families)
        D = decoherence_functional(hs)
        assert np.max(np.abs(D.matrix - D.matrix.conj().T)) < 1e-10
        diag = np.diagonal(D.matrix)
        assert np.max(np.abs(diag.imag)) < 1e-10
        assert diag.real.min() > -1e-10
        assert abs(D.matrix.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("kind", ["block", "index"])
    def test_unequal_final_widths_with_empty_entry_match_trace_oracle(self, rng, kind):
        # final entries of widths 1, 2, 0, 2 and 2: three width groups and an
        # empty entry; oracle: class operators from dense projectors and a
        # Taylor-series propagator, traced against rho
        dim = 7
        h = random_hermitian(rng, dim)
        first = random_families(rng, dim, [3])[0]
        widths = [1, 2, 0, 2, 2]
        bounds = np.cumsum([0] + widths)
        if kind == "index":
            order = rng.permutation(dim)
            last = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            dense_last = [np.diag(np.isin(np.arange(dim), idx).astype(complex)) for idx in last]
        else:
            q = random_block_families(rng, dim, [1])[0][0]
            last = [q[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            dense_last = [B @ B.conj().T for B in last]
        rho = random_density(rng, dim)
        times = [0.4, 1.3]
        hs = HistorySet(Hamiltonian(h), rho, times, [first, last])
        D = decoherence_functional(hs)
        steps = [taylor_expm(-1j * h.matrix * dt) for dt in np.diff([0.0] + times)]
        C = [dense_last[b] @ steps[1] @ first[a].matrix @ steps[0]
             for a in range(3) for b in range(len(widths))]
        oracle = np.array([[np.trace(Ca @ rho.matrix @ Cb.conj().T) for Cb in C] for Ca in C])
        assert np.max(np.abs(D.matrix - oracle)) <= 1e-10

    def test_mixed_three_time_set_holds_no_dim_by_paths_squared_intermediate(self, rng):
        # P = 16 * 16 = 256 paths into n = 2 final entries at dim 128: D is
        # H x H with H = n P, so D and the copies its checks make stay within
        # 10 n P^2 complex entries (20 MiB); one dim x P x P intermediate
        # alone would take 128 MiB
        import tracemalloc
        dim, n, P = 128, 2, 256
        cols = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
        rho = DensityOperator(cols @ cols.conj().T / np.vdot(cols, cols).real)
        hs = HistorySet(Hamiltonian(random_hermitian(rng, dim)), rho, [0.3, 0.7, 1.2],
                        random_index_families(rng, dim, [16, 16]) + [[np.arange(48),
                                                                       np.arange(48, dim)]])
        tracemalloc.start()
        try:
            D = decoherence_functional(hs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.matrix.shape == (n * P, n * P)
        assert peak <= 10 * n * P * P * 16, f"peak {peak / 2 ** 20:.1f} MiB"


def dense_worst_ratio(M):
    """max |M[a,b]| / sqrt(M[a,a] M[b,b]) over all pairs a < b with nonzero weights."""
    d = np.clip(np.real(np.diagonal(M)), 0.0, None)
    worst = 0.0
    for a, b in itertools.combinations(range(len(d)), 2):
        scale = np.sqrt(d[a] * d[b])
        if scale != 0.0:
            worst = max(worst, abs(M[a, b]) / scale)
    return worst


class TestConsistency:
    def test_diagonal_functional_consistent(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        ok, ratio = is_consistent(decoherence_functional(hs))
        assert ok
        assert ratio == 0.0

    def test_rotated_second_family_inconsistent(self):
        # z-projectors then x-projectors on a superposition interfere
        plus_x = PureState([1.0, 1.0])
        x_family = [LinearOperator(np.array([[0.5, 0.5], [0.5, 0.5]])),
                    LinearOperator(np.array([[0.5, -0.5], [-0.5, 0.5]]))]
        hs = HistorySet(zero_hamiltonian(2), plus_x, [1.0, 2.0],
                        [Z_FAMILY, x_family])
        D = decoherence_functional(hs)
        ok, ratio = is_consistent(D, 1e-8)
        assert not ok
        assert ratio > 0.1
        with pytest.raises(InconsistentFamily):
            history_probabilities(D, 1e-8)


    def test_zero_weight_history_passes_vacuously(self):
        # history 2 has zero diagonal weight; its off-diagonal entry with
        # history 0 is not a ratio and must not count
        D = DecoherenceFunctional([(0,), (1,), (2,)],
                                  [[0.5, 0.05, 0.1], [0.05, 0.2, 0.0], [0.1, 0.0, 0.0]])
        worst = 0.05 / np.sqrt(0.5 * 0.2)
        assert is_consistent(D, 1.0) == (True, pytest.approx(worst, rel=1e-15))
        assert is_consistent(D, 0.1) == (False, pytest.approx(worst, rel=1e-15))

    def test_worst_ratio_matches_pairwise_loop(self, rng):
        hs = HistorySet(Hamiltonian(random_hermitian(rng, 6)), random_state(rng, 6),
                        [0.3, 0.9], random_families(rng, 6, [3, 4]))
        D = decoherence_functional(hs)
        assert is_consistent(D) == (False, dense_worst_ratio(D.matrix))


class TestHistoryProbabilities:
    def test_single_time_family_is_born(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        probs = history_probabilities(decoherence_functional(hs))
        born = born_distribution(s, OBS_Z)
        assert probs.probability((0,)) == pytest.approx(born.probabilities[0],
                                                        abs=1e-12)

    def test_repeated_measurement_recast_as_two_time_family(self, rng):
        # a static two-time z-family reproduces the modeled joint statistics
        # of a plain (non-disturbing) repeated measurement
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0, 2.0], [Z_FAMILY, Z_FAMILY])
        probs = history_probabilities(decoherence_functional(hs))
        model = build_measurement_unitary(OBS_Z)
        joint = repeated_measurement_joint(s, model)
        vals = [-1.0, 1.0]
        for i in range(2):
            for j in range(2):
                assert probs.probability((i, j)) == pytest.approx(
                    joint.probability((vals[i], vals[j])), abs=1e-10)
        # diagonal: squared amplitudes of the measured state
        born = born_distribution(s, OBS_Z)
        for i in range(2):
            assert probs.probability((i, i)) == pytest.approx(
                born.probabilities[i], abs=1e-10)

    def test_coarse_graining_merges_with_cross_terms(self, rng):
        dim = 4
        H = Hamiltonian(random_hermitian(rng, dim))
        families = random_families(rng, dim, [2, 2])
        hs = HistorySet(H, random_state(rng, dim), [0.4, 1.0], families)
        D = decoherence_functional(hs)
        merged = coarse_grain(D, [[(0, 0), (0, 1)], [(1, 0), (1, 1)]])
        for a, group in enumerate(((0, 0), (1, 0))):
            i = hs.histories().index((group[0], 0))
            j = hs.histories().index((group[0], 1))
            expected = (D.matrix[i, i] + D.matrix[j, j] + 2 * D.matrix[i, j].real)
            assert merged.matrix[a, a].real == pytest.approx(expected.real,
                                                             abs=1e-12)
        assert abs(merged.matrix.sum() - 1.0) < 1e-9

    def test_coarse_graining_matches_pairwise_block_sums(self, rng):
        hs = HistorySet(Hamiltonian(random_hermitian(rng, 6)), random_state(rng, 6),
                        [0.3, 0.9], random_families(rng, 6, [3, 4]))
        D = decoherence_functional(hs)
        order = rng.permutation(len(D.histories))
        cuts = sorted(rng.choice(range(1, len(order)), size=4, replace=False))
        groups = [[D.histories[i] for i in part] for part in np.split(order, cuts)]
        merged = coarse_grain(D, groups)
        index = [[D.histories.index(h) for h in group] for group in groups]
        loop = np.array([[D.matrix[np.ix_(ia, ib)].sum() for ib in index] for ia in index])
        assert np.max(np.abs(merged.matrix - loop)) <= 1e-15

    def test_coarse_graining_must_partition(self, rng):
        s = random_state(rng, 2)
        hs = HistorySet(zero_hamiltonian(2), s, [1.0], [Z_FAMILY])
        D = decoherence_functional(hs)
        with pytest.raises(InvalidIndex):
            coarse_grain(D, [[(0,)]])
        with pytest.raises(InvalidIndex):
            coarse_grain(D, [[(0,), (1,)], [(1,)]])


class TestBlockForm:
    """D is stored as its final-entry blocks; each oracle reads the dense D.matrix."""

    @pytest.fixture
    def functional(self, rng):
        hs = HistorySet(Hamiltonian(random_hermitian(rng, 6)), random_density(rng, 6),
                        [0.3, 0.9], random_families(rng, 6, [3, 4]))
        return decoherence_functional(hs)

    def test_coarse_graining_across_final_entries_matches_indicator_product(self, functional):
        D = functional
        # (0, c) with (1, c + 1): every merged pair ends in two different final entries
        spans = [[(0, c), (1, (c + 1) % 4)] for c in range(4)]
        spans += [[(2, 0), (2, 3)], [(2, 1)], [(2, 2)]]
        for groups in (spans, [list(D.histories)]):
            G = np.array([[h in group for h in D.histories] for group in groups], dtype=float)
            merged = coarse_grain(D, groups)
            assert np.max(np.abs(merged.matrix - G @ D.matrix @ G.T)) <= 1e-14
        assert merged.matrix.shape == (1, 1)

    def test_worst_ratio_matches_dense_pairs_on_consistent_family(self, rng):
        # a two-level tag records the first entry, so histories that differ
        # there stop interfering; the dense evolution of H (x) I2 leaks
        # between the tags only at roundoff
        dim = 5
        H = Hamiltonian(LinearOperator(np.kron(random_hermitian(rng, dim).matrix, np.eye(2))))
        first = random_index_families(rng, dim, [2])[0]
        psi = random_state(rng, dim).amplitudes
        tagged = np.zeros((dim, 2), dtype=complex)
        for s, idx in enumerate(first):
            tagged[idx, s] = psi[idx]
        cells = random_index_families(rng, dim, [3])[0]
        families = [[np.concatenate([2 * idx, 2 * idx + 1]) for idx in family]
                    for family in (first, cells)]
        hs = HistorySet(H, PureState(tagged.ravel()), [0.0, 0.8], families)
        D = decoherence_functional(hs)
        ok, worst = is_consistent(D)
        assert ok and 0.0 < worst
        assert worst == dense_worst_ratio(D.matrix)

    def test_diagonal_reads_the_dense_diagonal(self, functional):
        np.testing.assert_array_equal(functional.diagonal(),
                                      np.real(np.diagonal(functional.matrix)))

    def test_matrix_is_read_only(self, functional):
        for D in (functional, coarse_grain(functional, [[h] for h in functional.histories])):
            with pytest.raises(ValueError):
                D.matrix[0, 0] = 1.0

    def test_dense_constructor_copies_its_matrix(self):
        m = np.array([[0.75, 0.1j], [-0.1j, 0.25]])
        D = DecoherenceFunctional([(0,), (1,)], m)
        m[0, 0] = 9.0
        assert m.flags.writeable and D.matrix[0, 0] == 0.75


class TestConditionalization:
    def test_collapse_then_born_matches_diagonal_conditionals(self, rng):
        # a commuting two-time family is exactly consistent; conditioning its
        # diagonal equals projective collapse followed by the Born rule
        H = Hamiltonian(LinearOperator(np.diag([0.3, -0.7]).astype(complex)))
        s = random_state(rng, 2)
        t1, t2 = 0.9, 2.1
        hs = HistorySet(H, s, [t1, t2], [Z_FAMILY, Z_FAMILY])
        D = decoherence_functional(hs)
        ok, _ = is_consistent(D, 1e-9)
        assert ok
        probs = history_probabilities(D, 1e-9)
        for first in range(2):
            total_first = sum(probs.probability((first, j)) for j in range(2))
            if total_first < 1e-12:
                continue
            psi_t1 = H.evolve(s, t1)
            collapsed = collapse(psi_t1, OBS_Z, float(OBS_Z.eigenvalues[first]))
            evolved = H.evolve(collapsed, t2 - t1)
            born = born_distribution(evolved, OBS_Z)
            for j in range(2):
                conditional = probs.probability((first, j)) / total_first
                assert conditional == pytest.approx(born.probabilities[j],
                                                    abs=1e-9)

    def test_two_slit_interference_and_which_way_restoration(self):
        g = GridSpace(128, 32.0)
        H = free_hamiltonian(g, 1.0)
        a, v, w = 4.0, 0.785, 1.0
        left = gaussian_packet(g, -a, +v, w)
        right = gaussian_packet(g, +a, -v, w)
        psi0 = PureState(left.amplitudes + right.amplitudes)
        slits = [region_projector(g, (0, 64)).projector(1),
                 region_projector(g, (64, 128)).projector(1)]
        cells = [region_projector(g, (c * 8, (c + 1) * 8)).projector(1)
                 for c in range(16)]
        t2 = 6.5
        hs = HistorySet(H, psi0, [0.0, t2], [slits, cells])
        D = decoherence_functional(hs)
        ok, ratio = is_consistent(D, 1e-8)
        assert not ok and ratio > 0.1
        # interference: joint screen probability differs from the sum of
        # single-slit diagonal weights
        psi_t = H.evolve(psi0, t2)
        diag = {h: p for h, p in zip(D.histories, D.diagonal())}
        interference = []
        for c, cell in enumerate(cells):
            joint = np.vdot(psi_t.amplitudes, cell.matrix @ psi_t.amplitudes).real
            interference.append(joint - diag[(0, c)] - diag[(1, c)])
        assert max(abs(x) for x in interference) > 0.05

        # tag the slit in an orthogonal two-level record
        tagged = np.zeros(256, dtype=complex)
        tagged[0::2] = slits[0].matrix @ psi0.amplitudes
        tagged[1::2] = slits[1].matrix @ psi0.amplitudes
        eye2 = np.eye(2, dtype=complex)
        H_tag = Hamiltonian(LinearOperator(np.kron(H.op.matrix, eye2)))
        slits_tag = [LinearOperator(np.kron(p.matrix, eye2)) for p in slits]
        cells_tag = [LinearOperator(np.kron(p.matrix, eye2)) for p in cells]
        hs_tag = HistorySet(H_tag, PureState(tagged), [0.0, t2],
                            [slits_tag, cells_tag])
        D_tag = decoherence_functional(hs_tag)
        ok_tag, ratio_tag = is_consistent(D_tag, 1e-8)
        assert ok_tag
        assert ratio_tag < 1e-8
        assert np.max(np.abs(D_tag.matrix - np.diag(np.diagonal(D_tag.matrix)))) \
            < 1e-10
        # additivity restored: coarse-graining over slits gives the screen
        # marginal of the tagged state
        merged = coarse_grain(D_tag, [[(0, c), (1, c)] for c in range(16)])
        psi_tag_t = H_tag.evolve(PureState(tagged), t2)
        for c, cell in enumerate(cells_tag):
            screen = np.vdot(psi_tag_t.amplitudes,
                             cell.matrix @ psi_tag_t.amplitudes).real
            assert merged.matrix[c, c].real == pytest.approx(screen, abs=2e-8)


def test_completeness_sum_rule(rng):
    dim = 4
    H = Hamiltonian(random_hermitian(rng, dim))
    families = random_families(rng, dim, [3, 2])
    hs = HistorySet(H, random_state(rng, dim), [0.6, 1.4], families)
    D = decoherence_functional(hs)
    diag_total = float(np.sum(D.diagonal()))
    offdiag_total = complex(D.matrix.sum()) - diag_total
    assert abs(diag_total + offdiag_total - 1.0) < 1e-9


def test_two_slit_builds_no_dense_projector(monkeypatch):
    import qmeasure.hilbert as hilbert
    from qmeasure import run_scenario, validate_config

    def no_projector_check(*args, **kwargs):
        raise AssertionError("dense projector checked")

    # HistorySet checks a projector entry through hilbert._projector_range
    monkeypatch.setattr(hilbert, "_projector_defect", no_projector_check)
    cfg = validate_config("scenario: two_slit\nparams:\n  n_points: 32\n"
                          "  n_cells: 4\n  box_length: 10.5\n  separation: 2.0\n")
    assert len(run_scenario(cfg).values) == 4


def test_two_slit_history_claims_at_narrow_cells():
    # a cell of 2 points holds so little weight that its interference term
    # stays below the 0.05 floor of interference_term_visible; the four
    # history claims do not depend on the cell width
    from qmeasure import run_scenario, validate_config
    cfg = validate_config("scenario: two_slit\nparams:\n  n_points: 512\n"
                          "  n_cells: 256\n")
    verdicts = {a.name: a.passed for a in run_scenario(cfg).assertions}
    assert all(verdicts[name] for name in (
        "bare_family_inconsistent", "tagged_family_offdiagonal_ratio",
        "tagged_coarse_graining_additive", "tagged_marginal_matches_screen"))
