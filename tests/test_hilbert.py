import warnings

import numpy as np
import pytest

from qmeasure import (
    DensityOperator,
    DimensionMismatch,
    LinearOperator,
    NotHermitian,
    Observable,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    basis_state,
    expectation,
    partial_trace,
    spectral_decompose,
    tensor_product,
)
from qmeasure import GridSpace, InvalidDistribution, InvalidPovm, MeasurementModel, \
    NonExtendable, OutcomeDistribution, Povm, Propagator, UnresolvableWidth, gaussian_packet
from qmeasure.dynamics import Hamiltonian
from qmeasure.hilbert import _check_spectra, _hermitian_within_tol, _identity_defect, \
    _projector_defect, _require_hermitian, _unit_rows, hermiticity_defect
from qmeasure.indefiniteness import indefiniteness_scan
from conftest import random_density, random_hermitian, random_projector, random_state


class TestPureState:
    def test_normalizes_input(self):
        s = PureState([3.0, 4.0])
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert s.amplitudes[0] == pytest.approx(0.6)

    def test_rejects_near_zero_vector(self):
        with pytest.raises(ValueError, match="norm"):
            PureState([1e-9, 0.0])

    def test_amplitudes_are_read_only(self):
        s = PureState([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_unit_norm_invariant_random(self, rng):
        for _ in range(20):
            s = random_state(rng, int(rng.integers(2, 9)))
            assert abs(np.vdot(s.amplitudes, s.amplitudes) - 1) < 1e-10

    def test_accepts_finite_amplitudes_whose_squares_overflow(self):
        # 1e200 squared is inf; the row is rescaled by its largest magnitude first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(PureState([1e200, 0.0]).amplitudes, [1.0, 0.0])
            np.testing.assert_allclose(PureState([1e200, 1e200]).amplitudes,
                                       [2 ** -0.5] * 2, rtol=0, atol=1e-15)
            np.testing.assert_allclose(PureState([-1e200j, 1.0]).amplitudes, [-1j, 0.0],
                                       rtol=0, atol=1e-15)

    def test_huge_row_leaves_the_other_rows_bit_for_bit(self, rng):
        rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        plain = _unit_rows(rows)
        rows[1] *= 1e300
        unit = _unit_rows(rows)
        np.testing.assert_array_equal(unit[[0, 2]], plain[[0, 2]])
        np.testing.assert_allclose(unit[1], plain[1], rtol=0, atol=1e-15)


class TestDensityOperator:
    def test_from_pure_is_projector(self):
        rho = basis_state(2, 0).to_density()
        assert rho.matrix[0, 0] == pytest.approx(1.0)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            DensityOperator([[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator([[1.5, 0.0], [0.0, -0.5]])


class TestSpectralDecompose:
    def test_pauli_z(self):
        obs = spectral_decompose(SIGMA_Z)
        assert list(obs.eigenvalues) == [-1.0, 1.0]
        np.testing.assert_allclose(obs.projector(1).matrix, np.diag([1.0, 0.0]),
                                   atol=1e-12)
        np.testing.assert_allclose(obs.projector(0).matrix, np.diag([0.0, 1.0]),
                                   atol=1e-12)

    def test_identity_fully_degenerate(self):
        obs = spectral_decompose(LinearOperator(np.eye(3)))
        assert obs.n_outcomes == 1
        assert obs.eigenvalues[0] == pytest.approx(1.0)
        np.testing.assert_allclose(obs.projector(0).matrix, np.eye(3), atol=1e-12)

    def test_reconstruction_against_direct_eigensolver(self, rng):
        op = random_hermitian(rng, 6)
        obs = spectral_decompose(op)
        recon = sum(v * p.matrix for v, p in obs.spectrum)
        assert np.max(np.abs(recon - op.matrix)) < 1e-9
        # independent oracle: plain eigh reconstruction of the same matrix
        evals, evecs = np.linalg.eigh(op.matrix)
        oracle = (evecs * evals) @ evecs.conj().T
        assert np.max(np.abs(recon - oracle)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            spectral_decompose(LinearOperator([[0.0, 1.0], [0.0, 0.0]]))

    def test_clusters_split_degeneracies(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        op = LinearOperator(q @ np.diag([1.0, 1.0 + 1e-13, 2.0]) @ q.conj().T)
        obs = spectral_decompose(op)
        assert obs.n_outcomes == 2
        assert obs.multiplicity(0) == 2

    def test_observable_invariants_random(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            obs = spectral_decompose(random_hermitian(rng, dim))
            projs = [p.matrix for _, p in obs.spectrum]
            total = np.zeros((dim, dim), dtype=complex)
            for i, p in enumerate(projs):
                assert np.max(np.abs(p @ p - p)) < 1e-9
                assert np.max(np.abs(p - p.conj().T)) < 1e-9
                for q in projs[i + 1:]:
                    assert np.max(np.abs(p @ q)) < 1e-9
                total += p
            assert np.max(np.abs(total - np.eye(dim))) < 1e-9
            assert np.all(np.diff(obs.eigenvalues) > 0)

    def test_projector_weights_sum_to_one(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 5))
        for _ in range(10):
            s = random_state(rng, 5)
            total = sum(expectation(s, p).real for _, p in obs.spectrum)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestTensorProduct:
    def test_basis_bookkeeping(self):
        s = tensor_product(basis_state(2, 0), basis_state(2, 1))
        np.testing.assert_allclose(s.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_operator_factorization_brute_force(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sa = random_state(rng, 2)
        sb = random_state(rng, 3)
        lhs = tensor_product(LinearOperator(a), LinearOperator(b)).matrix \
            @ tensor_product(sa, sb).amplitudes
        # oracle: act on the factors, then combine with an explicit double loop
        va = a @ sa.amplitudes
        vb = b @ sb.amplitudes
        oracle = np.empty(6, dtype=complex)
        for i in range(2):
            for j in range(3):
                oracle[3 * i + j] = va[i] * vb[j]
        np.testing.assert_allclose(lhs, oracle, atol=1e-12)

    def test_spin_position_entangled_mixture(self):
        # the beam-split mixed state: equal mixture of spin-up with the upper
        # packet and spin-down with the lower packet
        plus_z, minus_z = basis_state(2, 0), basis_state(2, 1)
        up_packet, down_packet = basis_state(2, 0), basis_state(2, 1)
        rho = DensityOperator(
            0.5 * tensor_product(plus_z.to_density(), up_packet.to_density()).matrix
            + 0.5 * tensor_product(minus_z.to_density(), down_packet.to_density()).matrix)
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5   # |+z, up><+z, up|
        expected[3, 3] = 0.5   # |-z, down><-z, down|
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_rejects_mixed_kinds(self):
        with pytest.raises(TypeError):
            tensor_product(basis_state(2, 0), LinearOperator(np.eye(2)))


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = tensor_product(rho_a, rho_b)
        np.testing.assert_allclose(
            partial_trace(joint, [2, 3], keep={0}).matrix, rho_a.matrix, atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(joint, [2, 3], keep={1}).matrix, rho_b.matrix, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = PureState([1, 0, 0, 1]).to_density()
        for keep in ({0}, {1}):
            reduced = partial_trace(bell, [2, 2], keep=keep)
            np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_beam_split_spin_marginal_direct_oracle(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 0.5
        rho[3, 3] = 0.5
        reduced = partial_trace(DensityOperator(rho), [2, 2], keep={0})
        # oracle: explicit index sum rho_spin[i, j] = sum_b rho[ib, jb]
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for b in range(2):
                    oracle[i, j] += rho[2 * i + b, 2 * j + b]
        np.testing.assert_allclose(reduced.matrix, oracle, atol=1e-15)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_order_independent_over_disjoint_factors(self, rng):
        rho = random_density(rng, 2 * 3 * 2)
        a = partial_trace(rho, [2, 3, 2], keep={0, 1})
        a = partial_trace(a, [2, 3], keep={0})
        b = partial_trace(rho, [2, 3, 2], keep={0, 2})
        b = partial_trace(b, [2, 2], keep={0})
        c = partial_trace(rho, [2, 3, 2], keep={0})
        assert np.max(np.abs(a.matrix - c.matrix)) < 1e-12
        assert np.max(np.abs(b.matrix - c.matrix)) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            partial_trace(random_density(rng, 4), [2, 3], keep={0})


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(basis_state(2, 0), SIGMA_Z).real == pytest.approx(1.0)

    def test_symmetry(self):
        plus_x = PureState([1, 1])
        assert abs(expectation(plus_x, SIGMA_Z)) < 1e-12

    def test_projector_expectation_equals_squared_norm(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            proj = random_projector(rng, dim, int(rng.integers(1, dim)))
            s = random_state(rng, dim)
            direct = np.linalg.norm(proj.matrix @ s.amplitudes) ** 2
            assert abs(expectation(s, proj) - direct) < 1e-12

    def test_linear_in_operator(self, rng):
        s = random_state(rng, 4)
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        lhs = expectation(s, LinearOperator(2.0 * a.matrix + 3.0 * b.matrix))
        rhs = 2.0 * expectation(s, a) + 3.0 * expectation(s, b)
        assert abs(lhs - rhs) < 1e-12

    def test_real_for_hermitian(self, rng):
        for _ in range(5):
            assert abs(expectation(random_state(rng, 5),
                                   random_hermitian(rng, 5)).imag) < 1e-10

    def test_density_operator_input(self, rng):
        rho = random_density(rng, 3)
        op = random_hermitian(rng, 3)
        oracle = np.trace(rho.matrix @ op.matrix)
        assert abs(expectation(rho, op) - oracle) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(basis_state(3, 0), SIGMA_X)


class TestObservableConstructor:
    def test_accepts_a_valid_resolution(self):
        obs = Observable([-1.0, 1.0], [[0, 1], [1, 0]], [slice(0, 1), slice(1, 2)])
        np.testing.assert_allclose(obs.operator.matrix, SIGMA_Z.matrix, atol=1e-15)

    def test_copies_the_callers_arrays(self):
        values = np.array([0.0, 1.0])
        basis = np.eye(2, dtype=complex)
        obs = Observable(values, basis, [slice(0, 1), slice(1, 2)])
        assert basis.flags.writeable and values.flags.writeable
        basis[:] = [[0, 1], [1, 0]]
        values[:] = [5.0, 6.0]
        np.testing.assert_array_equal(obs.eigenvalues, [0.0, 1.0])
        np.testing.assert_array_equal(obs.eigenbasis(0), [[1.0], [0.0]])

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Observable([0.0, 1.0], [[1, 1], [0, 1]], [slice(0, 1), slice(1, 2)])

    def test_rejects_descending_eigenvalues(self):
        with pytest.raises(ValueError, match="ascending"):
            Observable([1.0, 0.0], np.eye(2), [slice(0, 1), slice(1, 2)])

    @pytest.mark.parametrize("slices", [[slice(0, 1), slice(1, 2)],
                                        [slice(0, 2), slice(1, 3)],
                                        [slice(0, 1), slice(2, 3)],
                                        [slice(0, 0), slice(0, 3)]])
    def test_rejects_slices_that_do_not_tile(self, slices):
        with pytest.raises(ValueError, match="fill"):
            Observable([0.0, 1.0], np.eye(3), slices)

    def test_rejects_non_square_basis(self):
        with pytest.raises(ValueError, match="square"):
            Observable([1.0], np.eye(3)[:, :2], [slice(0, 2)])


class TestStackedChecks:
    """The invariant checks take a stack; one object is a stack of one."""

    def test_unit_rows_are_pure_states_bit_for_bit(self, rng):
        rows = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        np.testing.assert_array_equal(_unit_rows(rows), [PureState(r).amplitudes for r in rows])

    def test_unit_rows_name_the_first_short_row(self, rng):
        rows = rng.standard_normal((3, 2)) + 0j
        rows[1], rows[2] = 1e-9, 0.0
        with pytest.raises(ValueError, match=r"state norm 1\.414e-09 below floor"):
            _unit_rows(rows)

    def test_spectra_match_spectral_decompose(self, rng):
        ops = [random_hermitian(rng, 4) for _ in range(5)]
        mats = np.array([op.matrix for op in ops])
        evals, evecs = np.linalg.eigh(mats)
        vals, rebuilt = _check_spectra(mats, evals, evecs, [slice(j, j + 1) for j in range(4)])
        for op, v, m in zip(ops, vals, rebuilt):
            obs = spectral_decompose(op)
            np.testing.assert_array_equal(v, obs.eigenvalues)
            np.testing.assert_array_equal(m, obs.operator.matrix)

    def test_spectra_reject_the_failing_member(self, rng):
        mats = np.array([random_hermitian(rng, 3).matrix for _ in range(4)])
        evals, evecs = np.linalg.eigh(mats)
        unit = [slice(j, j + 1) for j in range(3)]
        bent = evecs.copy()
        bent[2, :, 0] *= 1.1
        with pytest.raises(ValueError, match="not orthonormal"):
            _check_spectra(mats, evals, bent, unit)
        shifted = evals.copy()
        shifted[3, 0] += 1e-3
        with pytest.raises(ValueError, match="reconstruction defect"):
            _check_spectra(mats, shifted, evecs, unit)
        mats[1, 0, 1] += 1e-6
        with pytest.raises(NotHermitian, match="1.000e-06"):
            _require_hermitian(mats)
        with pytest.raises(NotHermitian, match="1.000e-06"):
            _check_spectra(mats, evals, evecs, unit)

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_is_not_hermitian(self, entry):
        # an infinite entry made the defect scale infinite too, so inf <= 1e-10 * inf passed;
        # the per-object and the stacked entry points share the check
        matrix = [[1.0, entry], [0.0, 2.0]]
        for build in (Hamiltonian, spectral_decompose):
            with pytest.raises(NotHermitian):
                build(LinearOperator(matrix))
        stack = np.array([np.eye(2), matrix, np.eye(2)], dtype=complex)
        np.testing.assert_array_equal(_hermitian_within_tol(stack), [True, False, True])

    @pytest.mark.parametrize("shape", [(0, 0), (1, 0, 0), (3, 0, 0), (0, 2, 2)])
    def test_empty_matrices_are_hermitian(self, shape):
        mats = np.zeros(shape, dtype=complex)
        assert np.all(hermiticity_defect(mats) == 0.0)
        _require_hermitian(mats)

    def test_zero_dimensional_hamiltonian_is_accepted(self):
        H = Hamiltonian(LinearOperator(np.zeros((0, 0))))
        assert H.dim == 0

    def test_identity_defect_matches_the_dense_difference_bit_for_bit(self, rng):
        # only the diagonal is shifted by 1; every other entry is read as |m_ij|
        for shape in [(1, 1), (5, 5), (4, 7, 7), (2, 3, 16, 16)]:
            for scale in (1e-12, 1.0, 1e3):
                m = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for stack in (m, m + np.eye(shape[-1]), m.real.copy()):
                    oracle = np.max(np.abs(stack - np.eye(shape[-1])), axis=(-2, -1))
                    np.testing.assert_array_equal(_identity_defect(stack), oracle)
        assert _identity_defect(np.eye(3)) == 0.0

    def test_non_finite_defects_read_inf(self):
        stack = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [0.0, 1.0]]])
        np.testing.assert_array_equal(_identity_defect(stack), [0.0, np.inf, np.inf])
        assert _projector_defect(np.full((2, 2), np.nan)) == np.inf


def _nan_isometry_model():
    posts = [basis_state(2, 0), basis_state(2, 1)]
    return MeasurementModel(spectral_decompose(SIGMA_Z), posts, np.full((6, 2), np.nan))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Povm.from_rank_one(["a", "b"], [1, 1], [[np.nan, 0], [0, 1]]),
     InvalidPovm, "effects sum to identity with defect inf"),
    (lambda: Povm.from_rank_one(["a", "b"], [np.inf, 1], [[1, 0], [0, 1]]),
     InvalidPovm, "effects sum to identity with defect inf"),
    (_nan_isometry_model, NonExtendable, "interaction is not an isometry: Gram defect inf"),
    (lambda: Propagator(1.0, np.full((2, 2), np.nan)),
     ValueError, "propagator unitarity defect inf"),
    (lambda: Hamiltonian.from_eigenbasis([0, 1], np.full((2, 2), np.nan)),
     ValueError, "eigenbasis unitarity defect inf"),
    (lambda: indefiniteness_scan(Hamiltonian(SIGMA_Z), basis_state(2, 0), np.full((2, 2), np.nan),
                                 np.linspace(0.0, 1.0, 1000)),
     ValueError, "not a projector: defect inf"),
    (lambda: PureState([np.nan, 1.0]), ValueError, "state norm nan not finite"),
    (lambda: PureState([np.inf, 1.0]), ValueError, "state norm inf not finite"),
    (lambda: gaussian_packet(GridSpace(64, 16.0), 0.0, 0.0, np.nan), UnresolvableWidth,
     "width nan must exceed 3"),
    (lambda: gaussian_packet(GridSpace(64, 16.0), np.nan, 0.0, 1.0), ValueError,
     "state norm nan not finite"),
    (lambda: OutcomeDistribution(["a", "b"], [np.nan, 1.0]), InvalidDistribution,
     "probabilities sum to nan, not 1"),
], ids=["povm-nan-vector", "povm-inf-weight", "measurement-model", "propagator",
        "hamiltonian-eigenbasis", "scan-projector", "state-nan", "state-inf",
        "packet-nan-width", "packet-nan-x0", "distribution-nan"])
def test_nan_fails_the_defect_checks_where_it_enters(build, error, message):
    # NaN > tol is False: a NaN defect, norm, width or total once passed every check it reached
    with np.errstate(invalid="ignore"), pytest.raises(error, match=message):
        build()
