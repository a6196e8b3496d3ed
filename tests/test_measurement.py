import math

import numpy as np
import pytest

from qmeasure import (
    DimensionMismatch,
    GridSpace,
    ImpossibleOutcome,
    IncompleteTiling,
    InvalidPovm,
    InvalidSmearing,
    LinearOperator,
    Observable,
    OutcomeDistribution,
    Povm,
    PureState,
    SIGMA_Z,
    basis_state,
    born_distribution,
    build_fuzzy_povm,
    build_phase_space_povm,
    collapse,
    gaussian_packet,
    povm_distribution,
    sample_outcome,
    spectral_decompose,
    tensor_product,
    total_variation,
)
from conftest import random_density, random_hermitian, random_state

OBS_Z = spectral_decompose(SIGMA_Z)
PLUS_X = PureState([1.0, 1.0])


class TestOutcomeDistribution:
    def test_clamps_roundoff_negatives(self):
        d = OutcomeDistribution(["a", "b"], [1.0 + 1e-12, -1e-12])
        assert d.probability("b") == 0.0
        assert d.probability("a") == pytest.approx(1.0, abs=1e-11)

    def test_rejects_genuine_negative(self):
        with pytest.raises(ValueError, match="clamp"):
            OutcomeDistribution(["a", "b"], [1.0, -1e-6])

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution(["a", "b"], [0.7, 0.2])


class TestBornDistribution:
    def test_eigenstate(self):
        d = born_distribution(basis_state(2, 0), OBS_Z)
        assert d.as_dict() == {-1.0: 0.0, 1.0: 1.0}

    def test_symmetric_superposition(self):
        d = born_distribution(PLUS_X, OBS_Z)
        assert d.probability(1.0) == pytest.approx(0.5, abs=1e-12)
        assert d.probability(-1.0) == pytest.approx(0.5, abs=1e-12)

    def test_final_beam_state_amplitude_squares(self):
        # the end state of the beam pipeline: alpha_+ |+z>|up> + alpha_- |-z>|down>;
        # the beam populations are the squared amplitudes
        theta = 0.73
        alpha_p, alpha_m = math.cos(theta / 2), math.sin(theta / 2)
        psi4 = PureState(
            alpha_p * tensor_product(basis_state(2, 0), basis_state(2, 0)).amplitudes
            + alpha_m * tensor_product(basis_state(2, 1), basis_state(2, 1)).amplitudes)
        beam = Observable.from_projectors([
            (1.0, LinearOperator(np.diag([1.0, 0, 0, 0]) + np.diag([0, 0, 1.0, 0]))),
            (-1.0, LinearOperator(np.diag([0, 1.0, 0, 0]) + np.diag([0, 0, 0, 1.0]))),
        ])
        d = born_distribution(psi4, beam)
        assert d.probability(1.0) == pytest.approx(alpha_p ** 2, abs=1e-12)
        assert d.probability(-1.0) == pytest.approx(alpha_m ** 2, abs=1e-12)

    def test_outcomes_ascend(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 5))
        d = born_distribution(random_state(rng, 5), obs)
        assert list(d.outcomes) == sorted(d.outcomes)

    def test_spectral_order_invariance(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        permuted = Observable.from_projectors(list(reversed(obs.spectrum)))
        s = random_state(rng, 4)
        a = born_distribution(s, obs)
        b = born_distribution(s, permuted)
        assert a.outcomes == b.outcomes
        np.testing.assert_allclose(a.probabilities, b.probabilities, atol=1e-12)

    def test_density_matrix_input(self, rng):
        rho = random_density(rng, 4)
        obs = spectral_decompose(random_hermitian(rng, 4))
        d = born_distribution(rho, obs)
        for (v, proj), p in zip(obs.spectrum, d.probabilities):
            assert p == pytest.approx(np.trace(rho.matrix @ proj.matrix).real,
                                      abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_distribution(basis_state(3, 0), OBS_Z)


class TestCollapse:
    def test_plus_x_collapses_to_plus_z(self):
        out = collapse(PLUS_X, OBS_Z, 1.0)
        assert out.overlap(basis_state(2, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_unchanged_up_to_phase(self):
        out = collapse(basis_state(2, 1), OBS_Z, -1.0)
        assert out.overlap(basis_state(2, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_projection_direct_oracle(self, rng):
        op = LinearOperator(np.diag([2.0, 2.0, 5.0, 7.0]))
        obs = spectral_decompose(op)
        s = random_state(rng, 4)
        out = collapse(s, obs, 2.0)
        proj = obs.projector(0).matrix
        oracle = proj @ s.amplitudes
        oracle = oracle / np.linalg.norm(oracle)
        phase = np.vdot(oracle, out.amplitudes)
        np.testing.assert_allclose(out.amplitudes, phase * oracle, atol=1e-12)
        assert abs(abs(phase) - 1.0) < 1e-12

    def test_idempotent(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 5))
        s = random_state(rng, 5)
        once = collapse(s, obs, float(obs.eigenvalues[2]))
        twice = collapse(once, obs, float(obs.eigenvalues[2]))
        np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)

    def test_collapse_then_born_is_point_mass(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        s = random_state(rng, 4)
        outcome = float(obs.eigenvalues[1])
        d = born_distribution(collapse(s, obs, outcome), obs)
        assert d.probability(outcome) == pytest.approx(1.0, abs=1e-10)

    def test_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcome):
            collapse(basis_state(2, 0), OBS_Z, -1.0)


class TestSampleOutcome:
    def test_point_distribution(self):
        d = OutcomeDistribution(["a"], [1.0])
        assert all(sample_outcome(d, seed) == "a" for seed in range(50))

    def test_empirical_frequency(self):
        d = born_distribution(PLUS_X, OBS_Z)
        n = 100_000
        hits = sum(1 for seed in range(n) if sample_outcome(d, seed) == 1.0)
        # binomial: 5 sigma around p = 0.5 is well inside +-0.01
        assert abs(hits / n - 0.5) < 0.01

    def test_deterministic_in_seed(self):
        d = born_distribution(PLUS_X, OBS_Z)
        assert sample_outcome(d, 42) == sample_outcome(d, 42)

    def test_sampled_transition_then_remeasure_repeats(self, rng):
        # sample an outcome, apply the corresponding transition, and the
        # repeated measurement is deterministic at that outcome
        obs = spectral_decompose(random_hermitian(rng, 4))
        s = random_state(rng, 4)
        for seed in range(20):
            outcome = sample_outcome(born_distribution(s, obs), seed)
            post = collapse(s, obs, outcome)
            repeat = born_distribution(post, obs)
            assert repeat.probability(outcome) == pytest.approx(1.0, abs=1e-10)
            assert sample_outcome(repeat, seed + 1000) == outcome


class TestPovm:
    def test_pvm_embedding_matches_born(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        povm = Povm([(float(v), p) for v, p in obs.spectrum])
        s = random_state(rng, 4)
        assert total_variation(povm_distribution(s, povm),
                               born_distribution(s, obs)) < 1e-12

    def test_trivial_povm_is_flat(self, rng):
        povm = Povm([("a", LinearOperator(np.eye(2) / 2)),
                     ("b", LinearOperator(np.eye(2) / 2))])
        for _ in range(5):
            d = povm_distribution(random_state(rng, 2), povm)
            np.testing.assert_allclose(d.probabilities, [0.5, 0.5], atol=1e-12)

    def test_fuzzy_measurement_on_eigenstate(self):
        eps = 0.37
        povm = build_fuzzy_povm(OBS_Z, [[1 - eps, eps], [eps, 1 - eps]])
        d = povm_distribution(basis_state(2, 0), povm)
        # outcome 0 collects the +z weight (columns follow ascending eigenvalues:
        # f[0] = (1-eps at -1, eps at +1)); |+z> has Born weight 1 on +1
        assert d.probability(0) == pytest.approx(eps, abs=1e-12)
        assert d.probability(1) == pytest.approx(1 - eps, abs=1e-12)

    def test_rejects_bad_completeness(self):
        with pytest.raises(InvalidPovm):
            Povm([("a", LinearOperator(np.eye(2) / 2))])

    def test_rejects_negative_effect(self):
        with pytest.raises(InvalidPovm):
            Povm([("a", LinearOperator(np.diag([1.5, 1.0]))),
                  ("b", LinearOperator(np.diag([-0.5, 0.0])))])

    def test_total_probability_on_random_states(self, rng):
        eps = 0.2
        povm = build_fuzzy_povm(OBS_Z, [[1 - eps, eps], [eps, 1 - eps]])
        for _ in range(100):
            d = povm_distribution(random_state(rng, 2), povm)
            assert abs(sum(d.probabilities) - 1.0) < 1e-8

    def test_rejects_non_hermitian_effects(self):
        a = np.array([[0.0, 0.3], [-0.3, 0.0]])
        with pytest.raises(InvalidPovm, match="hermiticity"):
            Povm([("a", LinearOperator(np.eye(2) / 2 + a)),
                  ("b", LinearOperator(np.eye(2) / 2 - a))])

    def test_zero_effect_has_probability_zero(self, rng):
        povm = build_fuzzy_povm(OBS_Z, [[1.0, 0.2], [0.0, 0.8], [0.0, 0.0]])
        assert np.array_equal(povm.effect(2).matrix, np.zeros((2, 2)))
        for state in (random_state(rng, 2), random_density(rng, 2)):
            assert povm_distribution(state, povm).probability(2) == 0.0

    def test_rank_two_effect_round_trips(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = (q * [0.3, 0.7, 0.0]) @ q.conj().T
        povm = Povm([("m", LinearOperator(m)), ("rest", LinearOperator(np.eye(3) - m))])
        np.testing.assert_allclose(povm.effect(0).matrix, m, rtol=0, atol=1e-12)
        np.testing.assert_allclose(povm.effect(1).matrix, np.eye(3) - m, rtol=0, atol=1e-12)

    def test_dense_and_rank_one_constructions_agree(self, rng):
        # the columns of a 3 x 5 matrix with orthonormal rows resolve the identity
        q, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        columns = q.conj().T
        weights = np.sum(np.abs(columns) ** 2, axis=0)
        vectors = (columns / np.sqrt(weights)).T
        labels = list(range(5))
        compact = Povm.from_rank_one(labels, weights, vectors)
        dense = Povm([(k, LinearOperator(w * np.outer(v, v.conj())))
                      for k, w, v in zip(labels, weights, vectors)])
        for state in (random_state(rng, 3), random_density(rng, 3)) * 5:
            np.testing.assert_allclose(povm_distribution(state, dense).probabilities,
                                       povm_distribution(state, compact).probabilities,
                                       rtol=0, atol=1e-12)

    def test_density_input(self, rng):
        eps = 0.2
        povm = build_fuzzy_povm(OBS_Z, [[1 - eps, eps], [eps, 1 - eps]])
        rho = random_density(rng, 2)
        d = povm_distribution(rho, povm)
        for i, (_, m) in enumerate(povm.elements):
            assert d.probabilities[i] == pytest.approx(
                np.trace(rho.matrix @ m.matrix).real, abs=1e-12)


class TestFuzzyPovm:
    def test_delta_smearing_recovers_sharp(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 3))
        povm = build_fuzzy_povm(obs, np.eye(3))
        s = random_state(rng, 3)
        sharp = born_distribution(s, obs)
        fuzzy = povm_distribution(s, povm)
        np.testing.assert_allclose(fuzzy.probabilities, sharp.probabilities,
                                   atol=1e-12)

    def test_uniform_smearing_gives_identity_effects(self):
        povm = build_fuzzy_povm(OBS_Z, np.full((4, 2), 0.25))
        for _, m in povm.elements:
            np.testing.assert_allclose(m.matrix, np.eye(2) / 4, atol=1e-12)

    def test_binary_symmetric_convolution_oracle(self, rng):
        eps = 0.1
        povm = build_fuzzy_povm(OBS_Z, [[1 - eps, eps], [eps, 1 - eps]])
        for _ in range(10):
            s = random_state(rng, 2)
            born = born_distribution(s, OBS_Z)
            p_minus, p_plus = born.probabilities
            fuzzy = povm_distribution(s, povm)
            oracle = [(1 - eps) * p_minus + eps * p_plus,
                      eps * p_minus + (1 - eps) * p_plus]
            np.testing.assert_allclose(fuzzy.probabilities, oracle, atol=1e-12)

    def test_degenerate_observable_matches_dense_effects(self, rng):
        values = np.array([1.0, 1.0, 2.0, 3.0])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        A = (q * values) @ q.conj().T
        obs = spectral_decompose(LinearOperator(A))
        f = rng.random((4, 3))
        f /= f.sum(axis=0)
        povm = build_fuzzy_povm(obs, f)
        # oracle: projectors from the test's own eigh, grouped by rounded eigenvalue
        evals, evecs = np.linalg.eigh((A + A.conj().T) / 2)
        projs = [evecs[:, np.round(evals) == v] @ evecs[:, np.round(evals) == v].conj().T
                 for v in (1.0, 2.0, 3.0)]
        effects = [sum(f[k, i] * projs[i] for i in range(3)) for k in range(4)]
        for k in range(4):
            np.testing.assert_allclose(povm.effect(k).matrix, effects[k], rtol=0, atol=1e-12)
        for _ in range(5):
            s = random_state(rng, 4)
            oracle = [np.vdot(s.amplitudes, m @ s.amplitudes).real for m in effects]
            np.testing.assert_allclose(povm_distribution(s, povm).probabilities, oracle,
                                       rtol=0, atol=1e-12)

    def test_builds_from_blocks_without_eigh(self, monkeypatch):
        from qmeasure import build_grid_operators, region_projector
        obs = spectral_decompose(SIGMA_Z)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        povm = build_fuzzy_povm(obs, [[0.9, 0.1], [0.1, 0.9]])
        assert povm_distribution(PLUS_X, povm).probabilities == pytest.approx([0.5, 0.5])
        g = GridSpace(64, 20.0)
        X, P, _ = build_grid_operators(g)
        region = region_projector(g, (10, 20))
        assert (X.n_outcomes, P.n_outcomes, region.multiplicity(1)) == (64, 64, 10)

    def test_rejects_bad_column_sums(self):
        with pytest.raises(InvalidSmearing):
            build_fuzzy_povm(OBS_Z, [[0.9, 0.2], [0.2, 0.9]])

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidSmearing):
            build_fuzzy_povm(OBS_Z, [[1.1, 0.0], [-0.1, 1.0]])


class TestPhaseSpacePovm:
    def test_completeness_on_64_grid(self):
        g = GridSpace(64, 16.0)
        povm = build_phase_space_povm(g, 0.8)
        assert len(povm) == 64 * 64
        assert povm.completeness_deficit() < 1e-6

    def test_incomplete_tiling_rejected(self):
        g = GridSpace(64, 16.0)
        with pytest.raises(IncompleteTiling):
            build_phase_space_povm(g, 0.8, p_indices=range(32))

    def test_displaced_packet_peaks_at_own_cell(self):
        g = GridSpace(48, 16.0)
        povm = build_phase_space_povm(g, 1.2)
        a0, b0 = 30, 10
        idx = list(povm.labels).index((a0, b0))
        effect = povm.effect(idx)
        packet = PureState(np.linalg.eigh(effect.matrix)[1][:, -1])
        d = povm_distribution(packet, povm)
        assert d.outcomes[int(np.argmax(d.probabilities))] == (a0, b0)

    def test_position_marginal_is_smeared_sharp(self):
        g = GridSpace(64, 16.0)
        width = 0.8
        povm = build_phase_space_povm(g, width)
        state = gaussian_packet(g, 1.7, 0.9, 1.4)
        d = povm_distribution(state, povm)
        marg = np.asarray(d.probabilities).reshape(64, 64).sum(axis=0)
        sharp = np.abs(state.amplitudes) ** 2
        blur = np.abs(gaussian_packet(g, 0.0, 0.0, width).amplitudes) ** 2
        # oracle: circular convolution of the sharp Born weights with the
        # packet profile
        oracle = np.array([np.sum(np.roll(blur, b - 32) * sharp) for b in range(64)])
        assert 0.5 * np.sum(np.abs(marg - oracle)) < 1e-10

    def test_rank_one_density_path_matches_pure_path(self):
        g = GridSpace(48, 16.0)
        povm = build_phase_space_povm(g, 1.2)
        state = gaussian_packet(g, 0.9, -0.4, 1.3)
        via_pure = povm_distribution(state, povm)
        via_density = povm_distribution(state.to_density(), povm)
        np.testing.assert_allclose(via_density.probabilities,
                                   via_pure.probabilities, atol=1e-12)

    def test_marginals_never_narrower(self):
        g = GridSpace(64, 16.0)
        povm = build_phase_space_povm(g, 0.8)
        x = g.positions
        for x0, k0, w in ((0.0, 0.0, 1.2), (1.5, 0.7, 1.0), (-2.0, -0.4, 1.4)):
            state = gaussian_packet(g, x0, k0, w)
            marg = np.asarray(povm_distribution(state, povm).probabilities)
            marg = marg.reshape(64, 64).sum(axis=0)
            sharp = np.abs(state.amplitudes) ** 2
            var_m = np.sum(marg * x ** 2) - np.sum(marg * x) ** 2
            var_s = np.sum(sharp * x ** 2) - np.sum(sharp * x) ** 2
            assert var_m >= var_s - 1e-9
