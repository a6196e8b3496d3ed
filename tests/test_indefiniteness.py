import math
import tracemalloc

import numpy as np
import pytest

from qmeasure import (
    DimensionMismatch,
    EmptyRegion,
    GridSpace,
    Hamiltonian,
    LinearOperator,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    barrier_hamiltonian,
    basis_state,
    born_distribution,
    delocalization_demo,
    ee_link_status,
    free_hamiltonian,
    gaussian_packet,
    indefiniteness_scan,
    invariant_subspace_check,
    region_projector,
    spectral_decompose,
    truncated_gaussian_packet,
)
from conftest import random_hermitian, random_projector, random_state

OBS_Z = spectral_decompose(SIGMA_Z)


class TestEeLinkStatus:
    def test_eigenstate_is_definite(self):
        report = ee_link_status(basis_state(2, 0), OBS_Z)
        assert report.is_definite
        assert report.value == pytest.approx(1.0)
        assert report.residual < report.threshold

    def test_superposition_is_indefinite(self):
        report = ee_link_status(PureState([1, 1]), OBS_Z)
        assert not report.is_definite
        assert sorted(v for v, _ in report.support) == [-1.0, 1.0]
        for _, w in report.support:
            assert w == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_vs_smaller_regions_is_indefinite(self):
        # weight escapes every window that cuts the packet within the range
        # double precision can resolve (far tails underflow to exact zeros)
        g = GridSpace(256, 60.0)
        psi = gaussian_packet(g, 0.0, 0.0, 0.8)
        for halfwidth in (4, 8, 12):
            window = (128 - halfwidth, 128 + halfwidth)
            report = ee_link_status(psi, region_projector(g, window))
            assert not report.is_definite

    def test_phase_invariance(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        s = random_state(rng, 4)
        rotated = PureState(np.exp(1j * 1.234) * s.amplitudes)
        a = ee_link_status(s, obs)
        b = ee_link_status(rotated, obs)
        assert a.status == b.status
        assert [v for v, _ in a.support] == [v for v, _ in b.support]
        np.testing.assert_allclose([w for _, w in a.support],
                                   [w for _, w in b.support], atol=1e-12)

    def test_definite_implies_born_point_mass(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        s = PureState(obs.eigenbasis(2)[:, 0])
        report = ee_link_status(s, obs)
        assert report.is_definite
        d = born_distribution(s, obs)
        assert d.probability(report.value) == pytest.approx(1.0, abs=1e-10)


class TestRegionProjector:
    def test_full_grid_is_identity(self):
        g = GridSpace(16, 8.0)
        obs = region_projector(g, (0, 16))
        assert obs.n_outcomes == 1
        np.testing.assert_allclose(obs.projector(0).matrix, np.eye(16), atol=1e-12)

    def test_contained_state_has_unit_weight(self):
        g = GridSpace(64, 20.0)
        psi = truncated_gaussian_packet(g, 0.0, 0.0, 1.0, (20, 45))
        obs = region_projector(g, (20, 45))
        d = born_distribution(psi, obs)
        assert d.probability(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_tail_weight_oracle(self):
        g = GridSpace(512, 120.0)
        L = 1.1
        psi = gaussian_packet(g, 0.0, 0.0, L)
        halfwidth = int(round(5 * L / g.dx))
        obs = region_projector(g, (256 - halfwidth, 256 + halfwidth + 1))
        inside = born_distribution(psi, obs).probability(1.0)
        # oracle: Gaussian tail integral, P(|x| > 5L) = erfc(5)
        assert 1.0 - inside == pytest.approx(math.erfc(5.0), rel=0.05)
        assert 1.0 - inside < 1e-5

    def test_eigenvalues_are_binary(self):
        g = GridSpace(16, 8.0)
        obs = region_projector(g, (4, 9))
        assert list(obs.eigenvalues) == [0.0, 1.0]

    def test_dense_operator_built_only_when_read(self):
        g = GridSpace(16, 8.0)
        obs = region_projector(g, (4, 9))
        assert obs._operator is None
        inside = np.zeros(16)
        inside[4:9] = 1.0
        np.testing.assert_allclose(obs.operator.matrix, np.diag(inside), rtol=0, atol=1e-15)

    def test_basis_is_permuted_identity(self):
        g = GridSpace(16, 8.0)
        obs = region_projector(g, (4, 9))
        outside_first = [j for j in range(16) if not 4 <= j < 9] + list(range(4, 9))
        basis = np.hstack([obs.eigenbasis(0), obs.eigenbasis(1)])
        np.testing.assert_array_equal(basis, np.eye(16, dtype=complex)[:, outside_first])
        assert basis.dtype == complex

    def test_weights_read_the_basis_in_place(self):
        import tracemalloc
        g = GridSpace(1024, 120.0)
        obs = region_projector(g, (500, 505))
        psi = gaussian_packet(g, 0.0, 0.0, 1.0)
        tracemalloc.start()
        try:
            report = ee_link_status(psi, obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.is_definite
        assert peak <= 2 ** 20  # a conjugated copy of the 1019-column block is 16 MiB

    def test_empty_region_rejected(self):
        g = GridSpace(16, 8.0)
        with pytest.raises(EmptyRegion):
            region_projector(g, (5, 5))


@pytest.fixture(scope="module")
def setup():
    g = GridSpace(256, 60.0)
    width = 1.0
    half = int(round(3 * width / g.dx))
    window = (128 - half, 128 + half + 1)
    psi0 = truncated_gaussian_packet(g, 0.0, 0.0, width, window)
    return g, free_hamiltonian(g, 1.0), psi0, window


class TestDelocalizationDemo:
    def test_zero_time_means_zero_leak(self, setup):
        g, H, psi0, window = setup
        assert delocalization_demo(g, H, psi0, window, 0.0) == 0.0

    def test_short_time_leak_above_floor(self, setup):
        g, H, psi0, window = setup
        natural = 1.0  # m * width^2
        for exponent in (-1, -2, -3, -4):
            out = delocalization_demo(g, H, psi0, window, (10.0 ** exponent) * natural)
            assert out > 1e-12

    def test_momentum_amplitudes_nowhere_zero(self, setup):
        g, _, psi0, _ = setup
        from qmeasure import fourier_map
        phat = np.abs(fourier_map(g) @ psi0.amplitudes)
        assert float(phat.min()) > 1e-300
        assert np.all(phat > 0)

    def test_rejects_state_with_support_outside(self, setup):
        g, H, _, window = setup
        psi = gaussian_packet(g, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            delocalization_demo(g, H, psi, window, 0.1)


class TestIndefinitenessScan:
    def test_invariant_kernel_identically_zero(self, rng):
        H_op = random_hermitian(rng, 5)
        evals, evecs = np.linalg.eigh(H_op.matrix)
        proj = LinearOperator(evecs[:, :2] @ evecs[:, :2].conj().T)
        psi0 = PureState(evecs[:, 4])
        scan = indefiniteness_scan(Hamiltonian(H_op), psi0, proj,
                                   np.linspace(0, 20, 1000))
        assert scan.classification == "identically-zero"
        assert scan.kernel_invariant

    def test_rabi_oscillation_isolated_zeros(self):
        # oracle: <1|psi(t)|^2 = sin^2(t/2) under H = sigma_x/2, zero at 2 pi n
        H = Hamiltonian(LinearOperator([[0, 0.5], [0.5, 0]]))
        proj = LinearOperator(np.diag([0.0, 1.0]))
        times = np.linspace(0.0, 8 * np.pi, 2001)
        scan = indefiniteness_scan(H, basis_state(2, 0), proj, times)
        assert scan.classification == "isolated-zeros"
        np.testing.assert_allclose(scan.series, np.sin(times / 2) ** 2, atol=1e-10)
        zero_times = times[scan.series <= scan.threshold]
        for t in zero_times:
            nearest = round(t / (2 * np.pi))
            assert abs(t - 2 * np.pi * nearest) < (times[1] - times[0])

    def test_generic_system_never_zero(self, rng):
        H = Hamiltonian(random_hermitian(rng, 8))
        proj = random_projector(rng, 8, 3)
        psi0 = random_state(rng, 8)
        scan = indefiniteness_scan(H, psi0, proj, np.linspace(0, 50, 1500))
        assert scan.classification == "never-zero"
        assert scan.minimum > scan.threshold
        assert not scan.kernel_invariant

    def test_stable_under_grid_refinement(self, rng):
        H = Hamiltonian(random_hermitian(rng, 6))
        proj = random_projector(rng, 6, 2)
        psi0 = random_state(rng, 6)
        coarse = indefiniteness_scan(H, psi0, proj, np.linspace(0, 30, 1000))
        fine = indefiniteness_scan(H, psi0, proj, np.linspace(0, 30, 2000))
        assert coarse.classification == fine.classification

    def test_commuting_projector_constant_series(self, rng):
        H_op = random_hermitian(rng, 5)
        evals, evecs = np.linalg.eigh(H_op.matrix)
        proj = LinearOperator(evecs[:, 1:3] @ evecs[:, 1:3].conj().T)
        psi0 = random_state(rng, 5)
        scan = indefiniteness_scan(Hamiltonian(H_op), psi0, proj,
                                   np.linspace(0, 25, 1000))
        assert np.max(np.abs(scan.series - scan.series[0])) < 1e-10

    def test_rejects_non_projector(self, rng):
        H = Hamiltonian(random_hermitian(rng, 3))
        with pytest.raises(ValueError, match="projector"):
            indefiniteness_scan(H, random_state(rng, 3),
                                LinearOperator(np.diag([0.5, 0.5, 0.0])),
                                np.linspace(0, 1, 1000))

    def test_rejects_sparse_time_grid(self, rng):
        H = Hamiltonian(random_hermitian(rng, 3))
        with pytest.raises(ValueError, match="1000"):
            indefiniteness_scan(H, random_state(rng, 3),
                                LinearOperator(np.diag([1.0, 0.0, 0.0])),
                                np.linspace(0, 1, 50))

    def test_rejects_non_finite_times(self, rng):
        times = np.linspace(0, 1, 1000)
        times[500] = np.nan
        with pytest.raises(ValueError, match="finite"):
            indefiniteness_scan(Hamiltonian(random_hermitian(rng, 3)), random_state(rng, 3),
                                LinearOperator(np.diag([1.0, 0.0, 0.0])), times)

    def test_rejects_state_or_projector_of_another_dimension(self, rng):
        H = Hamiltonian(random_hermitian(rng, 4))
        times = np.linspace(0, 1, 1000)
        with pytest.raises(DimensionMismatch, match="state dim 3 vs Hamiltonian dim 4"):
            indefiniteness_scan(H, random_state(rng, 3), random_projector(rng, 4, 2), times)
        with pytest.raises(DimensionMismatch, match="projector dim 5 vs Hamiltonian dim 4"):
            indefiniteness_scan(H, random_state(rng, 4), random_projector(rng, 5, 2), times)
        with pytest.raises(DimensionMismatch, match="state dim 6 vs Hamiltonian dim 4"):
            indefiniteness_scan(H, [random_state(rng, 4), random_state(rng, 6)],
                                [random_projector(rng, 4, 2)] * 2, times)

    def test_rejects_unpaired_states_and_projectors(self, rng):
        H = Hamiltonian(random_hermitian(rng, 4))
        with pytest.raises(ValueError, match="2 states vs 1 projectors"):
            indefiniteness_scan(H, [random_state(rng, 4)] * 2, [random_projector(rng, 4, 2)],
                                np.linspace(0, 1, 1000))

    def test_barrier_hamiltonian_scan_matches_chebyshev_evolution(self, rng):
        # a grid potential is scanned on its dense eigensystem; the oracle evolves
        # by the Chebyshev expansion
        g = GridSpace(64, 20.0)
        H = barrier_hamiltonian(g, 1.0, 2.0, (30, 34))
        psi0 = truncated_gaussian_packet(g, -4.0, 1.0, 1.0, (10, 30))
        proj = region_projector(g, (34, 64)).projector(1).matrix
        times = np.linspace(0.0, 3.0, 1000)
        scan = indefiniteness_scan(H, psi0, proj, times)
        psi_t = H.evolve_amplitudes(psi0.amplitudes, times)
        oracle = np.real(np.sum(psi_t.conj() * (proj @ psi_t), axis=0))
        np.testing.assert_allclose(scan.series, np.clip(oracle, 0.0, None), rtol=0, atol=1e-12)
        assert scan.classification == "isolated-zeros"


def _three_pairs(rng, H):
    """A generic pair, a state in an invariant kernel, and one that is zero at t = 0 only."""
    evals, evecs = H.eigensystem()
    generic = random_state(rng, H.dim)
    kernel = LinearOperator(evecs[:, :2] @ evecs[:, :2].conj().T)
    start = random_state(rng, H.dim)
    complement = LinearOperator(np.eye(H.dim) - np.outer(start.amplitudes, start.amplitudes.conj()))
    return ([generic, PureState(evecs[:, -1]), start],
            [random_projector(rng, H.dim, 2), kernel, complement])


class TestStackedScan:
    """Several (state, projector) pairs scanned on one H and one time grid.

    The oracle evolves each state by itself with ``evolve_amplitudes`` over
    the whole grid and applies the dense projector.
    """

    @pytest.mark.parametrize("grid", [False, True], ids=["dense", "fourier"])
    def test_matches_per_state_loop_bit_for_bit(self, rng, grid):
        H = free_hamiltonian(GridSpace(64, 20.0), 1.0) if grid else Hamiltonian(random_hermitian(rng, 6))
        states, projectors = _three_pairs(rng, H)
        times = np.linspace(0.0, 40.0, 9000)  # three blocks of 3000 times
        scans = indefiniteness_scan(H, states, projectors, times)
        assert [scan.classification for scan in scans] == ["never-zero", "identically-zero",
                                                           "isolated-zeros"]
        assert [scan.kernel_invariant for scan in scans] == [False, True, False]
        for scan, state, projector in zip(scans, states, projectors):
            psi_t = H.evolve_amplitudes(state.amplitudes, times)
            oracle = np.real(np.sum(psi_t.conj() * (projector.matrix @ psi_t), axis=0))
            assert np.array_equal(scan.series, np.clip(oracle, 0.0, None))
            single = indefiniteness_scan(H, state, projector, times)
            assert np.array_equal(single.series, scan.series)
            assert (single.classification, single.kernel_invariant) == (
                scan.classification, scan.kernel_invariant)

    def test_holds_one_block_of_phases_at_a_time(self, rng):
        # 65,536 times at dim 32: each of the 17 blocks' phases take 1.9 MiB, all
        # of them 32 MiB; the series table of two pairs takes 1 MiB
        H = Hamiltonian(random_hermitian(rng, 32))
        states = [random_state(rng, 32), random_state(rng, 32)]
        projectors = [random_projector(rng, 32, 4), random_projector(rng, 32, 16)]
        times = np.linspace(0.0, 10.0, 65536)
        tracemalloc.start()
        try:
            scans = indefiniteness_scan(H, states, projectors, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [scan.classification for scan in scans] == ["never-zero"] * 2
        assert peak < 16 * 2**20


class TestInvariantSubspaceCheck:
    def test_function_of_hamiltonian_invariant(self, rng):
        H_op = random_hermitian(rng, 5)
        evals, evecs = np.linalg.eigh(H_op.matrix)
        f_of_h = LinearOperator(evecs @ np.diag(np.cos(evals)) @ evecs.conj().T)
        obs = spectral_decompose(f_of_h)
        assert all(invariant_subspace_check(Hamiltonian(H_op), obs))

    def test_noncommuting_qubit_pair(self):
        assert invariant_subspace_check(Hamiltonian(SIGMA_Z),
                                        spectral_decompose(SIGMA_X)) == [False, False]

    def test_region_projector_not_invariant_under_free_motion(self):
        g = GridSpace(64, 20.0)
        H = free_hamiltonian(g, 1.0)
        obs = region_projector(g, (24, 41))
        assert invariant_subspace_check(H, obs) == [False, False]
        psi0 = truncated_gaussian_packet(g, 0.0, 0.0, 1.0, (26, 39))
        times = np.linspace(0.0, 10.0, 1200)
        inside = obs.projector(1)
        scan = indefiniteness_scan(H, psi0, inside, times[1:])
        assert scan.classification == "never-zero"

    def test_no_invariant_eigenspace_means_persistently_open(self, rng):
        # every projector expectation stays strictly positive at virtually
        # all sampled times once no eigenspace is preserved by the dynamics
        H = Hamiltonian(random_hermitian(rng, 6))
        obs = spectral_decompose(random_projector(rng, 6, 2))
        assert not any(invariant_subspace_check(H, obs))
        times = np.linspace(0.0, 60.0, 2000)
        for _ in range(5):
            psi = random_state(rng, 6)
            for i in range(obs.n_outcomes):
                block = obs.eigenbasis(i)
                proj = LinearOperator(block @ block.conj().T)
                scan = indefiniteness_scan(H, psi, proj, times)
                assert float(np.mean(scan.series > scan.threshold)) >= 0.99
