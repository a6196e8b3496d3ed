import math
import tracemalloc

import numpy as np
import pytest

from qmeasure import (
    DimensionMismatch,
    GridSpace,
    ImpossibleOutcome,
    IncompleteTiling,
    InvalidDistribution,
    InvalidPovm,
    InvalidSmearing,
    LinearOperator,
    Observable,
    OutcomeDistribution,
    Povm,
    PureState,
    SIGMA_Z,
    SimulationError,
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
from qmeasure.dynamics import fourier_map
from qmeasure.hilbert import _DenseBasis, _FourierBasis, _IndexOrder
from qmeasure.indefiniteness import region_projector
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

    @pytest.mark.parametrize("outcomes, probs, message", [
        ("ab", [1.0], "one probability per outcome"),
        ("ab", [1.0, -1e-6], "below clamp limit"),
        ("ab", [0.7, 0.2], "sum to 0.8999999999999999, not 1")])
    def test_refusals_are_simulation_and_value_errors(self, outcomes, probs, message):
        with pytest.raises(InvalidDistribution, match=message) as err:
            OutcomeDistribution(outcomes, probs)
        assert isinstance(err.value, SimulationError) and isinstance(err.value, ValueError)


    def test_stacked_normalization_matches_per_row(self, rng):
        from qmeasure.measurement import _normalized
        probs = rng.random((6, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        probs[2, 0] -= 1e-12
        np.testing.assert_array_equal(
            _normalized(probs), [OutcomeDistribution("abc", p).probabilities for p in probs])
        probs[4, 1] = -1e-6
        with pytest.raises(ValueError, match="-1.000e-06 below clamp limit"):
            _normalized(probs)


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


def _observable_of_kind(kind, n, rng):
    """A three-outcome observable on a basis of the given kind, and that basis written out here."""
    if kind == "index":
        order = rng.permutation(n)
        basis, dense = _IndexOrder(order), np.eye(n, dtype=complex)[:, order]
    elif kind == "dense":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        basis, dense = _DenseBasis(q.copy()), q
    else:
        basis, dense = _FourierBasis(n), fourier_map(GridSpace(n, 20.0)).conj().T
    slices = [slice(0, 3), slice(3, 4), slice(4, n)]
    return Observable._wrap([-1.0, 0.5, 2.0], basis, slices), dense, slices


class TestProjectionThroughTheBasis:
    """collapse and the mixed Born weights apply V[:, cols] and its adjoint, never the block."""

    @pytest.mark.parametrize("kind", ["dense", "index", "fourier"])
    def test_collapse_matches_dense_block(self, kind, rng):
        obs, dense, slices = _observable_of_kind(kind, 16, rng)
        s = random_state(rng, 16)
        for value, sl in zip(obs.eigenvalues, slices):
            block = dense[:, sl]
            oracle = block @ (block.conj().T @ s.amplitudes)
            np.testing.assert_allclose(collapse(s, obs, float(value)).amplitudes,
                                       oracle / np.linalg.norm(oracle), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["dense", "index", "fourier"])
    def test_born_weights_match_dense_block(self, kind, rng):
        obs, dense, slices = _observable_of_kind(kind, 16, rng)
        rho, psi = random_density(rng, 16), random_state(rng, 16)
        mixed = [np.trace(dense[:, sl].conj().T @ rho.matrix @ dense[:, sl]).real
                 for sl in slices]
        pure = [np.sum(np.abs(dense[:, sl].conj().T @ psi.amplitudes) ** 2) for sl in slices]
        for state, oracle in ((rho, mixed), (psi, pure)):
            np.testing.assert_allclose(born_distribution(state, obs).probabilities, oracle,
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["dense", "index", "fourier"])
    def test_mixed_born_weights_take_one_transform_pair(self, kind, rng, monkeypatch):
        # one pair of full adjoint applications serves every outcome: one transform
        # of rho per outcome made a Fourier observable's n outcomes cost O(n^3 log n)
        obs, dense, _ = _observable_of_kind(kind, 16, rng)
        fine = Observable._wrap(np.arange(16.0), obs._basis, [slice(j, j + 1) for j in range(16)])
        rho = random_density(rng, 16)
        calls = []
        adjoint = type(obs._basis).apply_adjoint
        monkeypatch.setattr(type(obs._basis), "apply_adjoint",
                            lambda basis, *args: calls.append(args[1:]) or adjoint(basis, *args))
        probs = born_distribution(rho, fine).probabilities
        assert calls == [(), ()]
        oracle = np.diagonal(dense.conj().T @ rho.matrix @ dense).real
        np.testing.assert_allclose(probs, oracle, rtol=0, atol=1e-12)

    def test_collapse_on_a_region_writes_no_dense_block(self):
        # the block of the 4,091 points outside the window took 511 MiB as a dense n x k array
        g = GridSpace(4096, 120.0)
        packet = gaussian_packet(g, 0.0, 0.0, 1.0)
        region = region_projector(g, (2000, 2005))
        tracemalloc.start()
        try:
            out = collapse(packet, region, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
        outside = np.ones(4096, dtype=bool)
        outside[2000:2005] = False
        oracle = np.where(outside, packet.amplitudes, 0.0)
        np.testing.assert_allclose(out.amplitudes, oracle / np.linalg.norm(oracle),
                                   rtol=0, atol=1e-12)


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


    def test_stacked_povm_weights_match_povm_distribution(self, rng):
        from qmeasure.measurement import _povm_weights
        obs = spectral_decompose(random_hermitian(rng, 3))
        povm = build_fuzzy_povm(obs, [[0.7, 0.2, 0.1], [0.2, 0.6, 0.3], [0.1, 0.2, 0.6]])
        states = [random_state(rng, 3) for _ in range(6)]
        # a stack of rows may take another BLAS kernel than one row: equal up to roundoff
        np.testing.assert_allclose(
            _povm_weights(povm, np.array([s.amplitudes for s in states])),
            [povm_distribution(s, povm).probabilities for s in states], rtol=0, atol=1e-15)

    def test_povm_weights_keep_their_bits(self):
        # a flat family's terms are one product conj(psi) R^T and np.abs(...) ** 2;
        # these are their bits for fuzzy_povm's three families on a seeded stack
        from qmeasure.hilbert import _unit_rows
        from qmeasure.measurement import _povm_weights
        draws = np.random.default_rng(11).standard_normal((5, 2, 2))
        psi = _unit_rows(draws[:, 0] + 1j * draws[:, 1])
        expected = {
            "sharp": [("0x1.2b2038d36db6ap-1", "0x1.a9bf8e592492dp-2"),
                      ("0x1.9ea304324af4dp-2", "0x1.30ae7de6da85ap-1"),
                      ("0x1.1050471e17905p-1", "0x1.df5f71c3d0df8p-2"),
                      ("0x1.1c451f82796bfp-2", "0x1.71dd703ec34a0p-1"),
                      ("0x1.af105839c6935p-2", "0x1.2877d3e31cb66p-1")],
            "fuzzy": [("0x1.22802d75f15eep-1", "0x1.baffa5141d424p-2"),
                      ("0x1.b21c035b6f2a4p-2", "0x1.26f1fe52486afp-1"),
                      ("0x1.0d0d05b1ac737p-1", "0x1.e5e5f49ca7194p-2"),
                      ("0x1.49d0e601fabccp-2", "0x1.5b178cff02a19p-1"),
                      ("0x1.bf4046949edc4p-2", "0x1.205fdcb5b091fp-1")],
            "uniform": [("0x1.0000000000000p-1",) * 2] * 5}
        smearings = {"sharp": np.eye(2), "fuzzy": [[0.9, 0.1], [0.1, 0.9]],
                     "uniform": np.full((2, 2), 0.5)}
        for name, f in smearings.items():
            weights = _povm_weights(build_fuzzy_povm(OBS_Z, f), psi)
            assert [tuple(map(float.hex, row)) for row in weights.tolist()] == expected[name]


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

    @pytest.mark.parametrize("p_indices", [None, range(32), range(0, 64, 3)])
    def test_incomplete_position_tiling_rejected(self, p_indices):
        # the reported defect is the exact sum over every term: the oracle sums
        # the rolled, boosted packets of the partial tiling
        g = GridSpace(64, 16.0)
        q_indices = range(32)
        with pytest.raises(IncompleteTiling) as err:
            build_phase_space_povm(g, 0.8, p_indices=p_indices, q_indices=q_indices)
        vectors = _rolled_boosted_packets(g, 0.8, range(64) if p_indices is None else p_indices,
                                          q_indices)
        total = vectors.T @ vectors.conj() * 64 / len(vectors)
        assert f"defect {np.max(np.abs(total - np.eye(64))):.3e}" in str(err.value)

    @pytest.mark.parametrize("n, width, permuted", [
        pytest.param(32, 1.55, False, id="32-1.55"), pytest.param(48, 1.2, False, id="48-1.2"),
        pytest.param(32, 1.55, True, id="32-1.55-permuted")])
    def test_terms_match_rolled_boosted_packets(self, rng, n, width, permuted):
        # oracle: each cell's vector is the fiducial packet shifted circularly by
        # b - n/2 grid steps and multiplied by the boost e^{i k_a x}; weight 1/n
        g = GridSpace(n, 16.0)
        p_idx, q_idx = (rng.permutation(n), rng.permutation(n)) if permuted else (range(n),) * 2
        povm = build_phase_space_povm(g, width, p_indices=p_idx, q_indices=q_idx)
        vectors = _rolled_boosted_packets(g, width, p_idx, q_idx)
        assert list(povm.labels) == [(a, b) for a in p_idx for b in q_idx]
        for cell in (0, n + 3, n * n // 2 + 5, n * n - 1):
            v = vectors[cell]
            np.testing.assert_allclose(povm.effect(cell).matrix, np.outer(v, v.conj()) / n,
                                       rtol=0, atol=1e-12)
        total = vectors.T @ vectors.conj() / n
        deficit = np.max(np.abs(total - np.eye(n)))
        assert abs(povm.completeness_deficit() - deficit) < 1e-12
        pure, mixed = random_state(rng, n), random_density(rng, n)
        oracle_pure = np.abs(vectors.conj() @ pure.amplitudes) ** 2 / n
        oracle_mixed = np.real(np.sum((vectors.conj() @ mixed.matrix) * vectors, axis=1)) / n
        for state, oracle in ((pure, oracle_pure), (mixed, oracle_mixed)):
            np.testing.assert_allclose(povm_distribution(state, povm).probabilities,
                                       oracle / oracle.sum(), rtol=0, atol=1e-12)

    def test_range_top_memory(self):
        # the stored table is one real n x n factor: at n = 256 a term table of
        # all n^2 cells would take 268 MB, and the dense boost and phase tables
        # peaked at 7.5 MiB
        g = GridSpace(256, 16.0)
        state = gaussian_packet(g, 1.7, 0.9, 1.5)
        tracemalloc.start()
        try:
            povm = build_phase_space_povm(g, 0.5)
            povm_distribution(state, povm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_built_family_holds_two_tables_not_n_squared_labels(self):
        # the n^2 label pairs are computed when read: stored as 65,536 tuples
        # at n = 256 they held 6.4 MiB; the boosts are Fourier basis columns,
        # never stored: as a dense table beside the right one they held 2.5 MiB
        tracemalloc.start()
        try:
            povm = build_phase_space_povm(GridSpace(256, 16.0), 0.5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(povm) == 256 * 256
        assert held <= 1.5 * 2 ** 20, f"held {held / 2 ** 20:.2f} MiB"

    def test_cell_labels_follow_permuted_indices_a_major(self, rng):
        g = GridSpace(32, 16.0)
        p_idx, q_idx = rng.permutation(32).tolist(), rng.permutation(32).tolist()
        povm = build_phase_space_povm(g, 1.55, p_indices=p_idx, q_indices=q_idx)
        labels = povm.labels
        cells = [(a, b) for a in p_idx for b in q_idx]
        assert list(labels) == cells and len(labels) == 32 * 32
        assert all(labels.index(cell) == cells.index(cell) for cell in cells)
        for missing in ((32, 0), (0, -1), (1,), "ab", None):
            with pytest.raises(ValueError):
                labels.index(missing)
            assert missing not in labels
        assert labels[-1] == cells[-1] and labels[5] == cells[5]
        assert labels[3:70:7] == tuple(cells[3:70:7]) and labels[::-1] == tuple(cells[::-1])
        with pytest.raises(IndexError):
            labels[32 * 32]
        assert labels == tuple(cells) and tuple(cells) == labels and labels != cells
        assert hash(labels) == hash(tuple(cells))
        with pytest.raises(TypeError):
            labels[0] = (0, 0)
        dist = povm_distribution(gaussian_packet(g, 1.1, -0.3, 1.55), povm)
        assert dist.outcomes is labels
        for cell in (cells[0], cells[40], cells[-1]):
            assert dist.probability(cell) == float(dist.probabilities[cells.index(cell)])

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


def _rolled_boosted_packets(g: GridSpace, width: float, p_indices, q_indices) -> np.ndarray:
    """Cell (a, b)'s vector e^{i k_a x} phi(x - x_b), a-major: phi rolled by b - n/2 steps."""
    phi = gaussian_packet(g, 0.0, 0.0, width).amplitudes
    x, k, n = g.positions, g.wavenumbers, g.n_points
    return np.array([np.exp(1j * k[a] * x) * np.roll(phi, b - n // 2)
                     for a in p_indices for b in q_indices])
