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
    identity,
    partial_trace,
    spectral_decompose,
    tensor_product,
)
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
        obs = spectral_decompose(identity(3))
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
            tensor_product(basis_state(2, 0), identity(2))


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


class TestObservableFromProjectors:
    def test_round_trip(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        rebuilt = Observable.from_projectors(obs.spectrum)
        np.testing.assert_allclose(rebuilt.eigenvalues, obs.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(rebuilt.operator.matrix, obs.operator.matrix,
                                   atol=1e-9)

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            Observable.from_projectors([(0.0, LinearOperator(0.5 * np.eye(2)))])

    @pytest.mark.parametrize("entry", [2 * np.eye(2), np.diag([0.0, 2.0])])
    def test_rejects_integer_eigenvalues_other_than_one(self, entry):
        # 2I and diag(0, 2) have integer eigenvalues but are not idempotent
        with pytest.raises(ValueError, match="not a projector"):
            Observable.from_projectors([(1.0, LinearOperator(entry))])

    def test_builds_no_dense_operator_until_read(self):
        obs = Observable.from_projectors([(-1.0, np.diag([0.0, 1.0])),
                                          (1.0, np.diag([1.0, 0.0]))])
        assert obs._operator is None
        np.testing.assert_allclose(obs.operator.matrix, SIGMA_Z.matrix, atol=1e-15)


class TestObservableConstructor:
    def test_accepts_a_valid_resolution(self):
        obs = Observable([-1.0, 1.0], [[0, 1], [1, 0]], [slice(0, 1), slice(1, 2)])
        np.testing.assert_allclose(obs.operator.matrix, SIGMA_Z.matrix, atol=1e-15)

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
