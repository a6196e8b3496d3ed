import math
import re
import sys
import warnings

import numpy as np
import pytest

from qmeasure import (
    GridSpace,
    Hamiltonian,
    LinearOperator,
    NotHermitian,
    PureState,
    SIGMA_X,
    UnresolvableWidth,
    barrier_hamiltonian,
    basis_state,
    build_grid_operators,
    expectation,
    free_hamiltonian,
    fourier_map,
    gaussian_packet,
    packet_width,
    propagate,
    truncated_gaussian_packet,
)
from qmeasure.dynamics import _FourierBasis
from qmeasure.hilbert import _DenseBasis, _IndexOrder
from conftest import random_hermitian, random_state


class TestPropagate:
    def test_zero_hamiltonian_is_identity(self):
        H = LinearOperator(np.zeros((3, 3)))
        for t in (0.0, 0.7, -2.5, 100.0):
            np.testing.assert_allclose(propagate(H, t).matrix, np.eye(3), atol=1e-12)

    def test_half_rabi_rotation_closed_form(self):
        # oracle: exp(-i sigma_x t) = cos(t) 1 - i sin(t) sigma_x, at t = pi/2
        U = propagate(SIGMA_X, np.pi / 2).matrix
        np.testing.assert_allclose(U, -1j * SIGMA_X.matrix, atol=1e-12)
        assert abs(U[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_energy_eigenstate_is_stationary(self, rng):
        H = random_hermitian(rng, 4)
        evals, evecs = np.linalg.eigh(H.matrix)
        psi = PureState(evecs[:, 1])
        proj = np.outer(evecs[:, 1], evecs[:, 1].conj())
        for t in (0.3, 1.7, 9.0):
            evolved = PureState(propagate(H, t).matrix @ psi.amplitudes)
            phase_expected = np.exp(-1j * evals[1] * t)
            np.testing.assert_allclose(evolved.amplitudes,
                                       phase_expected * psi.amplitudes, atol=1e-10)
            val = expectation(evolved, LinearOperator(proj))
            assert val.real == pytest.approx(1.0, abs=1e-10)

    def test_group_law(self, rng):
        H = random_hermitian(rng, 5)
        Uab = propagate(H, 1.3).matrix
        Ua_Ub = propagate(H, 0.8).matrix @ propagate(H, 0.5).matrix
        assert np.linalg.norm(Uab - Ua_Ub, 2) < 1e-9

    def test_norm_preservation(self, rng):
        H = random_hermitian(rng, 6)
        s = random_state(rng, 6)
        for t in np.linspace(0.0, 12.0, 7):
            evolved = PureState(propagate(H, t).matrix @ s.amplitudes)
            assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            Hamiltonian(LinearOperator([[0, 1], [0, 0]]))

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            propagate(SIGMA_X, np.inf)

    def test_evolve_rejects_non_finite_time(self, rng):
        H = Hamiltonian(random_hermitian(rng, 3))
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="time must be finite"):
                H.evolve(random_state(rng, 3), t)

    @pytest.mark.parametrize("t,named", [(1.7e308, "1.7e+308"),
                                         ([0.0, 1.0, -1.7e308], "-1.7e+308")])
    def test_evolve_rejects_overflowing_phase(self, t, named):
        # a finite time whose phase E*t leaves the double range gave NaN amplitudes
        # with only a RuntimeWarning
        g = GridSpace(64, 20.0)
        psi = gaussian_packet(g, 0.0, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"overflows at time {named}")):
                free_hamiltonian(g, 1.0).evolve_amplitudes(psi.amplitudes, np.asarray(t))

    def test_hamiltonian_evolve_matches_propagator(self, rng):
        H = Hamiltonian(random_hermitian(rng, 5))
        s = random_state(rng, 5)
        via_matrix = PureState(propagate(H, 2.1).matrix @ s.amplitudes)
        via_evolve = H.evolve(s, 2.1)
        np.testing.assert_allclose(via_evolve.amplitudes, via_matrix.amplitudes,
                                   atol=1e-12)


class TestGridSpace:
    def test_requires_even_minimum_size(self):
        with pytest.raises(ValueError):
            GridSpace(6, 10.0)
        with pytest.raises(ValueError):
            GridSpace(9, 10.0)

    def test_rejects_non_finite_box_length(self):
        for length in (np.nan, np.inf):
            with pytest.raises(ValueError, match="box_length"):
                GridSpace(16, length)

    def test_spacing(self):
        g = GridSpace(16, 8.0)
        assert g.dx == pytest.approx(0.5)
        assert g.positions[0] == pytest.approx(-4.0)
        assert np.all(np.diff(g.positions) > 0)


class TestGridOperators:
    def test_fourier_unitary(self):
        g = GridSpace(64, 20.0)
        F = fourier_map(g)
        assert np.max(np.abs(F.conj().T @ F - np.eye(64))) < 1e-10

    def test_gaussian_fourier_pair(self):
        # oracle: the transform of exp(-x^2/2L^2) is a Gaussian of width 1/L,
        # so the distribution widths obey sigma_x = L/sqrt2, sigma_k = 1/(L sqrt2)
        g = GridSpace(1024, 100.0)
        L = 2.0
        psi = gaussian_packet(g, 0.0, 0.0, L)
        _, _, F = build_grid_operators(g)
        phat = np.abs(F.matrix @ psi.amplitudes) ** 2
        k = g.wavenumbers
        sigma_k = math.sqrt(float(np.sum(phat * k ** 2) - np.sum(phat * k) ** 2))
        assert sigma_k == pytest.approx(1.0 / (L * math.sqrt(2)), rel=0.02)
        x = g.positions
        px = np.abs(psi.amplitudes) ** 2
        sigma_x = math.sqrt(float(np.sum(px * x ** 2) - np.sum(px * x) ** 2))
        assert sigma_x * sigma_k == pytest.approx(0.5, rel=0.02)

    def test_plane_wave_is_single_momentum_mode(self):
        g = GridSpace(32, 16.0)
        k5 = g.wavenumbers[20]
        psi = PureState(np.exp(1j * k5 * g.positions))
        X, P, F = build_grid_operators(g)
        phat = F.matrix @ psi.amplitudes
        assert abs(phat[20]) == pytest.approx(1.0, abs=1e-10)
        mask = np.ones(32, dtype=bool)
        mask[20] = False
        assert np.max(np.abs(phat[mask])) < 1e-10
        val = expectation(psi, P.operator)
        assert val.real == pytest.approx(k5, abs=1e-9)

    def test_position_operator_diagonal(self):
        g = GridSpace(16, 8.0)
        X, _, _ = build_grid_operators(g)
        np.testing.assert_allclose(X.operator.matrix, np.diag(g.positions),
                                   atol=1e-15)
        np.testing.assert_allclose(X.eigenvalues, g.positions, atol=1e-15)

    def test_operators_match_fft_spectral_derivative(self):
        # oracle: P psi = ifft(k fft(psi)) with numpy's own FFT wavenumbers; the
        # centered grid only multiplies F by a diagonal of signs, which cancels in F^dag K F
        g = GridSpace(256, 60.0)
        X, P, _ = build_grid_operators(g)
        k = 2 * np.pi * np.fft.fftfreq(g.n_points, d=g.dx)
        oracle = np.fft.ifft(k[:, None] * np.fft.fft(np.eye(g.n_points), axis=0), axis=0)
        np.testing.assert_allclose(P.operator.matrix, oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(X.operator.matrix, np.diag(g.positions), rtol=0, atol=1e-12)

    def test_builds_no_dense_operator_until_read(self):
        import tracemalloc
        g = GridSpace(1024, 120.0)
        build_grid_operators(g)  # warm caches before measuring
        tracemalloc.start()
        try:
            X, P, F = build_grid_operators(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X._operator is None and P._operator is None
        # only the returned F, a 16 MiB array, and its temporaries: X's and P's bases are O(n)
        assert peak <= 36 * 2 ** 20

    def test_commutator_on_central_states(self):
        g = GridSpace(256, 60.0)
        X, P, _ = build_grid_operators(g)
        x, p = X.operator.matrix, P.operator.matrix
        comm = LinearOperator(x @ p - p @ x)
        psi = gaussian_packet(g, 1.0, 0.4, 2.0)
        assert expectation(psi, comm) == pytest.approx(1j, abs=1e-6)

    def test_grid_observable_invariants_small(self):
        g = GridSpace(16, 8.0)
        X, P, _ = build_grid_operators(g)
        for obs in (X, P):
            total = np.zeros((16, 16), dtype=complex)
            recon = np.zeros((16, 16), dtype=complex)
            for v, proj in obs.spectrum:
                assert np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix)) < 1e-9
                total += proj.matrix
                recon += v * proj.matrix
            assert np.max(np.abs(total - np.eye(16))) < 1e-9
            assert np.max(np.abs(recon - obs.operator.matrix)) < 1e-9


class TestGaussianPacket:
    def test_symmetric_packet_centered(self):
        g = GridSpace(256, 60.0)
        psi = gaussian_packet(g, 0.0, 0.0, 1.5)
        X = build_grid_operators(g)[0]
        assert abs(expectation(psi, X.operator)) < 1e-10
        assert np.max(np.abs(psi.amplitudes.imag)) < 1e-12

    def test_tail_probability_against_erfc_oracle(self):
        g = GridSpace(512, 120.0)
        L, x0 = 1.2, 3.0
        psi = gaussian_packet(g, x0, 0.0, L)
        outside = float(np.sum(np.abs(psi.amplitudes)[np.abs(g.positions - x0) > 5 * L] ** 2))
        # oracle: the |psi|^2 weight beyond 5 widths is erfc(5), since the
        # density is a normal law with sigma = L / sqrt(2)
        oracle = math.erfc(5.0)
        assert outside < 1e-5
        assert outside == pytest.approx(oracle, rel=0.05)

    def test_boosted_packet_mean_momentum(self):
        g = GridSpace(512, 120.0)
        k0 = 1.7
        psi = gaussian_packet(g, 0.0, k0, 2.0)
        P = build_grid_operators(g)[1]
        assert expectation(psi, P.operator).real == pytest.approx(k0, abs=1e-9)

    def test_width_guards(self):
        g = GridSpace(64, 16.0)
        with pytest.raises(UnresolvableWidth):
            gaussian_packet(g, 0.0, 0.0, 0.5)     # below 3 dx
        with pytest.raises(UnresolvableWidth):
            gaussian_packet(g, 0.0, 0.0, 2.0)     # above box/10


class TestFreeSpreading:
    def test_width_law_within_two_percent(self):
        g = GridSpace(512, 120.0)
        L, m = 1.0, 1.0
        psi0 = gaussian_packet(g, 0.0, 0.0, L)
        H = free_hamiltonian(g, m)
        natural = m * L ** 2
        t_max = natural * math.sqrt((g.box_length / 4 / L) ** 2 - 1.0)
        for t in np.linspace(0.0, t_max, 8):
            w_num = packet_width(g, H.evolve(psi0, float(t)))
            w_ref = L * math.sqrt(1.0 + (t / natural) ** 2)
            assert w_num == pytest.approx(w_ref, rel=0.02)


def _dense_free_matrix(g, mass):
    # the kinetic operator written out densely, F^dag diag(k^2 / 2m) F
    F = np.exp(-1j * np.outer(g.wavenumbers, g.positions)) / np.sqrt(g.n_points)
    return F.conj().T @ ((g.wavenumbers ** 2 / (2 * mass))[:, None] * F)


def _eigh_evolution(matrix, psi, t):
    # independent oracle: diagonalize the dense matrix and sum the phases
    evals, evecs = np.linalg.eigh(matrix)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))


class TestKnownEigenbasis:
    def test_free_evolution_matches_dense_eigh(self):
        g = GridSpace(256, 60.0)
        H = free_hamiltonian(g, 1.3)
        dense = _dense_free_matrix(g, 1.3)
        psi = gaussian_packet(g, -3.0, 1.1, 2.0)
        for t in (0.0, 0.37, 2.5, 11.0, 40.0):
            oracle = _eigh_evolution(dense, psi.amplitudes, t)
            assert np.max(np.abs(H.evolve(psi, t).amplitudes - oracle)) <= 1e-12

    def test_free_operator_is_dense_kinetic_matrix(self):
        g = GridSpace(64, 20.0)
        H = free_hamiltonian(g, 0.7)
        assert np.max(np.abs(H.op.matrix - _dense_free_matrix(g, 0.7))) <= 1e-12

    def test_which_way_hamiltonian_matches_kron_eigh(self, rng):
        g = GridSpace(64, 20.0)
        energies, basis = free_hamiltonian(g, 1.0).eigensystem()
        eye2 = np.eye(2, dtype=complex)
        H_kron = Hamiltonian.from_eigenbasis(np.repeat(energies, 2), np.kron(basis, eye2))
        dense_tag = np.kron(_dense_free_matrix(g, 1.0), eye2)
        psi = random_state(rng, 128)
        for H_tag in (H_kron, free_hamiltonian(g, 1.0, tags=2)):
            for t in (0.0, 0.8, 6.5):
                oracle = _eigh_evolution(dense_tag, psi.amplitudes, t)
                assert np.max(np.abs(H_tag.evolve(psi, t).amplitudes - oracle)) <= 1e-12

    def test_energies_ascend_with_their_columns(self, rng):
        H0 = Hamiltonian(random_hermitian(rng, 4))
        evals, evecs = H0.eigensystem()
        order = [2, 0, 3, 1]
        H = Hamiltonian.from_eigenbasis(evals[order], evecs[:, order])
        energies, basis = H.eigensystem()
        np.testing.assert_array_equal(energies, evals)
        np.testing.assert_array_equal(basis, evecs)
        np.testing.assert_allclose(H.op.matrix, H0.op.matrix, atol=1e-12)

    def test_rejects_invalid_eigensystems(self):
        basis = np.eye(3, dtype=complex)
        for energies in ([0.0, np.nan, 1.0], [0.0, 1j, 1.0], [0.0, 1.0]):
            with pytest.raises(ValueError, match="finite real energies and a square basis"):
                Hamiltonian.from_eigenbasis(energies, basis)
        with pytest.raises(ValueError, match="unitarity defect"):
            Hamiltonian.from_eigenbasis([0.0, 1.0, 2.0], 1.001 * basis)
        for energies in (np.zeros(7), np.full(8, np.nan)):
            with pytest.raises(ValueError, match="finite real energies and a square basis"):
                Hamiltonian.from_eigenbasis(energies, _FourierBasis(8))

    def test_non_positive_or_nan_mass_is_rejected(self):
        g = GridSpace(16, 8.0)
        for mass in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="mass"):
                free_hamiltonian(g, mass)
            with pytest.raises(ValueError, match="mass"):
                barrier_hamiltonian(g, mass, 5.0, (2, 4))

    def test_kernel_batches_columns_and_times(self, rng):
        H = Hamiltonian(random_hermitian(rng, 5))
        columns = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        evolved = H.evolve_amplitudes(columns, 1.7)
        times = np.array([0.0, 0.4, 2.2])
        per_time = H.evolve_amplitudes(columns[:, 0], times)
        U = propagate(H, 1.7).matrix
        for j in range(3):
            np.testing.assert_allclose(evolved[:, j], U @ columns[:, j], atol=1e-12)
            np.testing.assert_allclose(per_time[:, j],
                                       propagate(H, times[j]).matrix @ columns[:, 0],
                                       atol=1e-12)

    def test_known_eigensystems_are_not_diagonalized(self, monkeypatch):
        from qmeasure import run_scenario, validate_config

        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        g = GridSpace(128, 40.0)
        psi = free_hamiltonian(g, 1.0).evolve(gaussian_packet(g, 0.0, 1.0, 2.0), 3.0)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        cfg = validate_config("scenario: two_slit\nparams:\n  n_points: 32\n"
                              "  n_cells: 4\n  box_length: 10.5\n  separation: 2.0\n")
        assert len(run_scenario(cfg).values) == 4


def _normalized_columns(rng, rows, cols):
    block = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return block / np.linalg.norm(block, axis=0)


def _basis_with_reference(kind, n, rng):
    """A basis of the given kind and its dense matrix, written out here."""
    if kind == "index":
        order = rng.permutation(n)
        return _IndexOrder(order), np.eye(n, dtype=complex)[:, order]
    if kind == "dense":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return _DenseBasis(q.copy()), q
    tags = {"fourier": 1, "fourier_tagged": 2}[kind]
    return _FourierBasis(n, tags), np.kron(fourier_map(GridSpace(n, 20.0)).conj().T, np.eye(tags))


class TestFourierBasis:
    @pytest.mark.parametrize("kind", ["index", "fourier", "fourier_tagged", "dense"])
    @pytest.mark.parametrize("n", [64, 1024])
    def test_map_matches_dense_fourier_map(self, rng, n, kind):
        # every basis kind against its dense matrix; an index order only moves entries
        V, dense = _basis_with_reference(kind, n, rng)

        def check(got, want):
            if kind == "index":
                np.testing.assert_array_equal(got, want)
            else:
                assert got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12

        dim = V.shape[0]
        block = _normalized_columns(rng, dim, 5)
        for cols in (slice(None), slice(3, 40), rng.permutation(dim)[:17]):
            sub = dense[:, cols]
            check(V.columns(cols), sub)
            for data in (block[:, 0], block):
                check(V.apply_adjoint(data, cols), sub.conj().T @ data)
                coeff = data[:sub.shape[1]]
                if kind in ("index", "dense"):
                    check(V.apply(coeff, cols), sub @ coeff)
                elif sub.shape[1] == dim:   # the Fourier map is only applied whole
                    check(V.apply(coeff), sub @ coeff)

    @pytest.mark.parametrize("n", [8, 10, 64, 66])
    @pytest.mark.parametrize("tags", [1, 2])
    def test_map_matches_centered_dft_at_both_residues_mod_4(self, rng, n, tags):
        # F[m, j] = w^((m - n/2)(j - n/2)) / sqrt(n) with w = exp(-2 pi i / n), written
        # from the centered DFT's definition; n = 2 (mod 4) is where a global sign
        # (-1)^(n/2) would show
        c = np.arange(n) - n // 2
        F = np.kron(np.exp(-2j * np.pi * np.outer(c, c) / n) / np.sqrt(n), np.eye(tags))
        V = _FourierBasis(n, tags)
        block = _normalized_columns(rng, n * tags, 3)
        for data in (block[:, 0], block, block.real):
            assert np.max(np.abs(V.apply_adjoint(data) - F @ data)) <= 1e-12
            assert np.max(np.abs(V.apply(data) - F.conj().T @ data)) <= 1e-12

    def test_free_kernel_batches_columns_and_times(self, rng):
        g = GridSpace(64, 20.0)
        H = free_hamiltonian(g, 0.8)
        dense = _dense_free_matrix(g, 0.8)
        columns = _normalized_columns(rng, 64, 3)
        times = np.array([0.0, 0.9, 4.0])
        evolved = H.evolve_amplitudes(columns, 0.9)
        per_time = H.evolve_amplitudes(columns[:, 0], times)
        for j in range(3):
            np.testing.assert_allclose(evolved[:, j], _eigh_evolution(dense, columns[:, j], 0.9),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(per_time[:, j],
                                       _eigh_evolution(dense, columns[:, 0], times[j]),
                                       rtol=0, atol=1e-12)

    def test_barrier_evolution_matches_complex_eigh(self):
        g = GridSpace(256, 60.0)
        window = (150, 160)
        H = barrier_hamiltonian(g, 1.3, 40.0, window)
        v = np.zeros(256)
        v[150:160] = 40.0
        dense = _dense_free_matrix(g, 1.3) + np.diag(v)  # complex, so a complex eigh
        psi = gaussian_packet(g, -3.0, 1.1, 2.0)
        for t in (0.05, 0.8, 4.0):
            oracle = _eigh_evolution(dense, psi.amplitudes, t)
            assert np.max(np.abs(H.evolve(psi, t).amplitudes - oracle)) <= 1e-12

    def test_real_hamiltonian_uses_real_eigh_and_complex_vectors(self, rng, monkeypatch):
        a = rng.standard_normal((6, 6))
        m = a + a.T
        seen = []
        eigh = np.linalg.eigh

        def spy(matrix, *args, **kwargs):
            seen.append(np.asarray(matrix).dtype)
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        H = Hamiltonian(LinearOperator(m))   # diagonalized here, once
        energies, basis = H.eigensystem()
        monkeypatch.undo()
        assert seen == [np.dtype(float)]
        assert basis.dtype == complex
        np.testing.assert_allclose(energies, np.linalg.eigvalsh(m.astype(complex)),
                                   rtol=0, atol=1e-12)
        psi = random_state(rng, 6)
        for t in (0.0, 0.6, 7.0):
            oracle = _eigh_evolution(m.astype(complex), psi.amplitudes, t)
            assert np.max(np.abs(H.evolve(psi, t).amplitudes - oracle)) <= 1e-12

    def test_grid_evolution_builds_no_dense_fourier_map(self, monkeypatch):
        from qmeasure import run_scenario, validate_config

        def no_dense_map(*args, **kwargs):
            raise AssertionError("dense fourier_map built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qmeasure" and hasattr(module, "fourier_map"):
                monkeypatch.setattr(module, "fourier_map", no_dense_map)
        g = GridSpace(128, 40.0)
        psi = free_hamiltonian(g).evolve(gaussian_packet(g, 0.0, 1.0, 2.0), 3.0)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
        for text in ("scenario: two_slit\nparams:\n  n_points: 32\n  n_cells: 4\n"
                     "  box_length: 10.5\n  separation: 2.0\n",
                     "scenario: wavepacket_spread\nparams:\n  n_points: 64\n"
                     "  box_length: 20.0\n",
                     "scenario: delocalization\nparams:\n  n_points: 128\n"
                     "  box_length: 30.0\n",
                     "scenario: phase_space_povm\nparams:\n  n_points: 64\n  box_length: 8.0\n"
                     "  state_width: 0.6\n  probe_p_index: 10\n  probe_q_index: 20\n"):
            result = run_scenario(validate_config(text))
            assert len(result.values)


def _benchmark_barrier():
    # the delocalization scenario's barrier at 1024 points: height 50 beside the support
    g = GridSpace(1024, 60.0)
    support, window = (461, 564), (566, 583)
    psi0 = truncated_gaussian_packet(g, 0.0, 0.0, 1.0, support)
    v = np.zeros(1024)
    v[window[0]:window[1]] = 50.0
    return g, window, psi0, _dense_free_matrix(g, 1.0) + np.diag(v)


class TestChebyshevBarrier:
    def test_benchmark_barrier_matches_dense_eigh(self):
        g, window, psi0, dense = _benchmark_barrier()
        H = barrier_hamiltonian(g, 1.0, 50.0, window)
        for t in (0.05, -0.7):
            oracle = _eigh_evolution(dense, psi0.amplitudes, t)
            assert np.max(np.abs(H.evolve_amplitudes(psi0.amplitudes, t) - oracle)) <= 1e-12

    def test_batches_columns_and_times(self, rng):
        g = GridSpace(256, 60.0)
        H = barrier_hamiltonian(g, 0.9, 30.0, (140, 150))
        v = np.zeros(256)
        v[140:150] = 30.0
        dense = _dense_free_matrix(g, 0.9) + np.diag(v)
        columns = _normalized_columns(rng, 256, 3)
        times = np.array([0.0, 0.3, -1.2])
        evolved = H.evolve_amplitudes(columns, 0.3)
        per_time = H.evolve_amplitudes(columns[:, 1], times)
        assert evolved.shape == per_time.shape == (256, 3)
        for j in range(3):
            assert np.max(np.abs(evolved[:, j] - _eigh_evolution(dense, columns[:, j], 0.3))) <= 1e-12
            assert np.max(np.abs(per_time[:, j]
                                 - _eigh_evolution(dense, columns[:, 1], times[j]))) <= 1e-12
        np.testing.assert_array_equal(per_time[:, 0], columns[:, 1])

    def test_real_imaginary_and_mixed_parts_match_dense_eigh(self, rng):
        g = GridSpace(256, 60.0)
        H = barrier_hamiltonian(g, 0.9, 30.0, (140, 150))
        v = np.zeros(256)
        v[140:150] = 30.0
        dense = _dense_free_matrix(g, 0.9) + np.diag(v)
        real = truncated_gaussian_packet(g, 0.0, 0.0, 1.5, (110, 139)).amplitudes
        imaginary = 1j * _normalized_columns(rng, 256, 1)[:, 0].real
        block = np.stack([real, _normalized_columns(rng, 256, 1)[:, 0], imaginary], axis=1)
        for t in (0.3, -1.2):
            evolved = H.evolve_amplitudes(imaginary, t)
            assert np.max(np.abs(evolved - _eigh_evolution(dense, imaginary, t))) <= 1e-12
            evolved = H.evolve_amplitudes(block, t)
            for j in range(3):
                oracle = _eigh_evolution(dense, block[:, j], t)
                assert np.max(np.abs(evolved[:, j] - oracle)) <= 1e-12
        times = np.array([0.0, 0.05, 0.7, -2.0])
        per_time = H.evolve_amplitudes(real, times)
        assert per_time.shape == (256, 4)
        for j in range(1, 4):
            oracle = _eigh_evolution(dense, real, times[j])
            assert np.max(np.abs(per_time[:, j] - oracle)) <= 1e-12
        np.testing.assert_array_equal(per_time[:, 0], real)

    def test_real_input_costs_one_real_fft_pair_per_term(self, monkeypatch):
        import qmeasure.dynamics as dynamics
        # 200 points: not a power of two, so no coefficient FFT has the grid's length
        g = GridSpace(200, 50.0)
        H = barrier_hamiltonian(g, 1.0, 40.0, (120, 130))
        real = truncated_gaussian_packet(g, 0.0, 0.0, 1.5, (85, 116)).amplitudes
        calls, terms = {"rfft": [], "irfft": [], "fft": [], "ifft": []}, []

        def spy(name, fn):
            def counted(a, *args, **kwargs):
                calls[name].append(np.shape(a))
                return fn(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)

        for name in calls:
            spy(name, getattr(np.fft, name))
        coefficients = dynamics._chebyshev_coefficients

        def counted_terms(z):
            result = coefficients(z)
            terms.append(len(result))
            return result

        monkeypatch.setattr(dynamics, "_chebyshev_coefficients", counted_terms)
        H.evolve_amplitudes(real, 0.4)
        assert len(terms) == 1 and terms[0] > 2
        assert calls["rfft"] == [(1, 200)] * (terms[0] - 1)
        assert len(calls["irfft"]) == terms[0] - 1
        assert not any(200 in shape for shape in calls["fft"] + calls["ifft"])

    def test_zero_height_matches_free_fft_evolution(self):
        g = GridSpace(256, 60.0)
        H, H0 = barrier_hamiltonian(g, 1.3, 0.0, (10, 20)), free_hamiltonian(g, 1.3)
        psi = gaussian_packet(g, -3.0, 1.1, 2.0)
        for t in (0.05, 0.8, 4.0):
            assert np.max(np.abs(H.evolve(psi, t).amplitudes - H0.evolve(psi, t).amplitudes)) <= 1e-12

    def test_zero_time_is_exact_and_propagator_checks_hold(self, rng):
        g = GridSpace(64, 20.0)
        H = barrier_hamiltonian(g, 1.0, 10.0, (40, 44))
        psi = random_state(rng, 64)
        np.testing.assert_array_equal(H.evolve_amplitudes(psi.amplitudes, 0.0), psi.amplitudes)
        np.testing.assert_array_equal(propagate(H, 0.0).matrix, np.eye(64))
        U = propagate(H, 0.4).matrix
        assert np.max(np.abs(U.conj().T @ U - np.eye(64))) <= 1e-12

    def test_dense_forms_match_in_test_matrix(self):
        g = GridSpace(64, 20.0)
        H = barrier_hamiltonian(g, 0.7, 25.0, (30, 36))
        v = np.zeros(64)
        v[30:36] = 25.0
        dense = _dense_free_matrix(g, 0.7) + np.diag(v)
        assert np.max(np.abs(H.op.matrix - dense)) <= 1e-12
        energies, basis = H.eigensystem()
        np.testing.assert_allclose(energies, np.linalg.eigvalsh(dense), rtol=0, atol=1e-12)
        assert np.max(np.abs(basis @ (energies[:, None] * basis.conj().T) - dense)) <= 1e-12

    def test_evolution_calls_no_eigh_and_builds_no_dense_matrix(self, monkeypatch):
        import tracemalloc
        from qmeasure import run_scenario, validate_config

        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        g, window, psi0, _ = _benchmark_barrier()
        tracemalloc.start()
        try:
            evolved = barrier_hamiltonian(g, 1.0, 50.0, window).evolve(psi0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(np.linalg.norm(evolved.amplitudes) - 1.0) < 1e-12
        assert peak <= 2 ** 20  # a dense 1024 x 1024 complex matrix is 16 MiB
        cfg = validate_config("scenario: delocalization\nparams:\n  n_points: 128\n"
                              "  box_length: 30.0\n")
        assert run_scenario(cfg).all_passed

    def test_rejects_bad_window_and_non_finite_height(self):
        g = GridSpace(16, 8.0)
        for window in ((-1, 4), (4, 4), (6, 3), (10, 17)):
            with pytest.raises(ValueError, match="window"):
                barrier_hamiltonian(g, 1.0, 5.0, window)
        for height in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                barrier_hamiltonian(g, 1.0, height, (2, 4))


def _hamiltonian_of_kind(kind):
    """A 16-dimensional Hamiltonian of each construction route."""
    g = GridSpace(16, 8.0)
    if kind == "dense":
        return Hamiltonian(random_hermitian(np.random.default_rng(3), 16))
    if kind == "free":
        return free_hamiltonian(g)
    if kind == "tagged":
        return free_hamiltonian(GridSpace(8, 8.0), tags=2)
    return barrier_hamiltonian(g, 1.0, 5.0, (2, 4))


class TestEvolveShapes:
    """evolve_amplitudes checks its shape contract once, the same for every Hamiltonian."""

    @pytest.mark.parametrize("kind", ["dense", "free", "tagged", "barrier"])
    @pytest.mark.parametrize("amplitudes, t", [
        ((16, 3), [0.1, 0.2, 0.3]), ((16, 3), [0.1, 0.2]), ((16, 2, 2), 0.1), ((15,), 0.1),
        ((17,), [0.1, 0.2]), ((16,), [[0.1, 0.2]]), ((), 0.1)],
        ids=["block-paired-times", "block-times", "3-d", "short", "long", "2-d-times", "0-d"])
    def test_other_shapes_raise_one_value_error(self, kind, amplitudes, t):
        # a block with an array of times was paired column by column, broadcast or
        # outer-producted depending on the kernel; 3-d input and wrong lengths failed
        # inside numpy, or as an IndexError on a barrier
        H = _hamiltonian_of_kind(kind)
        message = (re.escape(f"amplitudes of shape {amplitudes} with times of shape "
                             f"{np.shape(t)}: need (16,) with a scalar or a 1-d array")
                   + ".*" + re.escape("or (16, m) with a scalar time"))
        with pytest.raises(ValueError, match=message):
            H.evolve_amplitudes(np.ones(amplitudes, dtype=complex), t)

    @pytest.mark.parametrize("tags", [0, -1, 1.5, 2.0, True, np.array([2])])
    def test_free_hamiltonian_needs_positive_integer_tags(self, tags):
        # tags=0 built a dim-0 Hamiltonian; tags=-1 failed inside np.repeat
        with pytest.raises(ValueError, match="tags must be a positive integer"):
            free_hamiltonian(GridSpace(16, 8.0), tags=tags)


class TestConstruction:
    def test_dense_hamiltonian_diagonalizes_once_at_construction(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
        H = Hamiltonian(random_hermitian(rng, 5))
        assert calls == [1]
        psi = random_state(rng, 5)
        H.evolve(psi, 0.3)
        H.evolve_amplitudes(np.eye(5, dtype=complex), 1.1)
        H.eigensystem()
        assert calls == [1]

    def test_potential_needs_the_untagged_fourier_map(self):
        v, energies = np.zeros(8), np.arange(8.0)
        for basis in (_FourierBasis(4, 2), np.eye(8), _IndexOrder(np.arange(8))):
            with pytest.raises(ValueError, match="untagged Fourier map"):
                Hamiltonian.from_eigenbasis(energies, basis, v)
        for potential in (np.zeros(7), v + 1j, np.full(8, np.nan)):
            with pytest.raises(ValueError, match="one finite real value per grid point"):
                Hamiltonian.from_eigenbasis(energies, _FourierBasis(8), potential)


class TestTruncatedPacket:
    def test_exact_zeros_outside_support(self):
        g = GridSpace(128, 40.0)
        psi = truncated_gaussian_packet(g, 0.0, 0.0, 1.0, (50, 79))
        assert np.all(psi.amplitudes[:50] == 0)
        assert np.all(psi.amplitudes[79:] == 0)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_barrier_still_leaks(self):
        g = GridSpace(128, 40.0)
        psi = truncated_gaussian_packet(g, 0.0, 0.0, 1.0, (54, 75))
        H = barrier_hamiltonian(g, 1.0, 80.0, (78, 84))
        evolved = H.evolve(psi, 0.05)
        beyond = float(np.sum(np.abs(evolved.amplitudes[84:]) ** 2))
        assert beyond > 0.0


def test_basis_state_shape():
    s = basis_state(4, 2)
    np.testing.assert_allclose(s.amplitudes, [0, 0, 1, 0], atol=1e-15)
