import numpy as np
import pytest

from qmeasure import (
    DimensionMismatch,
    LinearOperator,
    Observable,
    PureState,
    SIGMA_Z,
    basis_state,
    born_distribution,
    build_measurement_unitary,
    collapse_rule_joint,
    modeled_single_measurement,
    repeated_measurement_joint,
    spectral_decompose,
    total_variation,
)
from qmeasure import MeasurementModel, NonExtendable
from qmeasure.modeling import _checked_isometries, _isometries, _modeled_weights, _record_weights
from conftest import random_hermitian, random_state

OBS_Z = spectral_decompose(SIGMA_Z)
PLUS_Z = basis_state(2, 0)
MINUS_Z = basis_state(2, 1)
PLUS_X = PureState([1.0, 1.0])
MINUS_X = PureState([1.0, -1.0])


def kron3(a, b, c):
    return np.kron(a, np.kron(b, c))


class TestBuildMeasurementUnitary:
    def test_nondisturbing_maps_eigenstates_to_records(self):
        model = build_measurement_unitary(OBS_Z)
        # the pointer layout: ready at level 0, outcome i recorded at level i + 1
        ready = np.eye(3)[0]
        # ascending eigenvalue order: outcome 0 is -1 (|1>), outcome 1 is +1 (|0>)
        for i, sys_vec in enumerate((MINUS_Z.amplitudes, PLUS_Z.amplitudes)):
            rec = np.eye(3)[i + 1]
            out = model.unitary.matrix @ np.kron(sys_vec, ready)
            np.testing.assert_allclose(out, np.kron(sys_vec, rec), atol=1e-9)

    def test_absorbing_dumps_into_fixed_state(self):
        model = build_measurement_unitary(OBS_Z, post_states=[PLUS_Z, PLUS_Z])
        ready = np.zeros(model.pointer_dim)
        ready[model.ready_index] = 1.0
        for i, sys_vec in enumerate((MINUS_Z.amplitudes, PLUS_Z.amplitudes)):
            rec = np.zeros(model.pointer_dim)
            rec[model.record_indices[i]] = 1.0
            out = model.unitary.matrix @ np.kron(sys_vec, ready)
            np.testing.assert_allclose(out, np.kron(PLUS_Z.amplitudes, rec),
                                       atol=1e-9)

    def test_unitarity_for_random_disturbance_maps(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            obs = spectral_decompose(random_hermitian(rng, dim))
            posts = [random_state(rng, dim) for _ in range(dim)]
            model = build_measurement_unitary(obs, post_states=posts)
            U = model.unitary.matrix
            assert np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) < 1e-9

    def test_layout_attributes_are_fixed_and_read_only(self):
        model = build_measurement_unitary(spectral_decompose(LinearOperator(np.diag([1.0, 2.0, 3.0]))))
        assert (model.system_dim, model.pointer_dim, model.ready_index,
                model.record_indices) == (3, 4, 0, (1, 2, 3))
        for name in ("system_dim", "pointer_dim", "ready_index", "record_indices"):
            with pytest.raises(AttributeError):
                setattr(model, name, 0)

    def test_rejects_degenerate_observable(self):
        degenerate = spectral_decompose(LinearOperator(np.diag([1.0, 1.0, 2.0])))
        with pytest.raises(ValueError, match="nondegenerate"):
            build_measurement_unitary(degenerate)


class TestIsometry:
    def test_statistics_read_only_the_isometry(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 3))
        model = build_measurement_unitary(obs, post_states=[random_state(rng, 3) for _ in range(3)])
        s = random_state(rng, 3)
        modeled_single_measurement(s, model)
        repeated_measurement_joint(s, model)
        assert model._unitary is None
        U = model.unitary.matrix.reshape(12, 3, 4)
        np.testing.assert_array_equal(U[:, :, model.ready_index], model.isometry)
        assert model.unitary is model.unitary

    def test_isometry_is_the_designated_map(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 3))
        posts = [random_state(rng, 3) for _ in range(3)]
        model = build_measurement_unitary(obs, post_states=posts)
        # outcome i is recorded at pointer level i + 1 of 4
        oracle = sum(np.outer(np.kron(phi.amplitudes, np.eye(4)[i + 1]), obs.eigenbasis(i)[:, 0].conj())
                     for i, phi in enumerate(posts))
        np.testing.assert_allclose(model.isometry, oracle, rtol=0, atol=1e-15)

    def test_constructor_checks_the_isometry(self):
        model = build_measurement_unitary(OBS_Z)
        args = (OBS_Z, model.post_states)
        assert MeasurementModel(*args, model.isometry).isometry.flags.writeable is False
        with pytest.raises(NonExtendable, match="isometry"):
            MeasurementModel(*args, 2 * model.isometry)
        swapped = model.isometry[:, ::-1]  # still an isometry, but records the wrong outcomes
        with pytest.raises(ValueError, match="misses target"):
            MeasurementModel(*args, swapped)
        with pytest.raises(DimensionMismatch):
            MeasurementModel(*args, model.isometry[:4])

    def test_stacked_record_weights_match_completed_unitaries(self, rng):
        # a stack of random models against the pointer marginals of each completed unitary
        obs = [spectral_decompose(random_hermitian(rng, 3)) for _ in range(5)]
        post = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        post /= np.linalg.norm(post, axis=-1, keepdims=True)
        psi = np.array([random_state(rng, 3).amplitudes for _ in range(5)])
        sources = np.array([np.hstack([o.eigenbasis(i) for i in range(3)]) for o in obs])
        stacked = _record_weights(_isometries(sources, post), psi)
        for o, phi, s, weights in zip(obs, post, psi, stacked):
            model = build_measurement_unitary(o, post_states=[PureState(v) for v in phi])
            grid = (model.unitary.matrix @ np.kron(s, np.eye(4)[0])).reshape(3, 4)
            np.testing.assert_allclose(weights, np.sum(np.abs(grid[:, 1:]) ** 2, axis=0),
                                       rtol=0, atol=1e-12)


    def test_stacked_models_match_the_per_object_api(self, rng):
        obs = [spectral_decompose(random_hermitian(rng, 3)) for _ in range(5)]
        posts = [[random_state(rng, 3) for _ in range(3)] for _ in range(5)]
        states = [random_state(rng, 3) for _ in range(5)]
        sources = np.array([np.hstack([o.eigenbasis(i) for i in range(3)]) for o in obs])
        post = np.array([[phi.amplitudes for phi in p] for p in posts])
        isometries = _checked_isometries(sources, post)
        stacked = _modeled_weights(isometries, np.array([s.amplitudes for s in states]))
        for o, p, s, w, weights in zip(obs, posts, states, isometries, stacked):
            model = build_measurement_unitary(o, post_states=p)
            np.testing.assert_array_equal(w, model.isometry)
            np.testing.assert_array_equal(weights, modeled_single_measurement(s, model).probabilities)
        # one model shared by a stack of states
        model = build_measurement_unitary(obs[0], post_states=posts[0])
        np.testing.assert_array_equal(
            _modeled_weights(model.isometry, np.array([s.amplitudes for s in states])),
            [modeled_single_measurement(s, model).probabilities for s in states])

    def test_stacked_models_reject_the_failing_member(self, rng):
        sources = np.array([np.eye(2, dtype=complex)] * 3)
        post = sources.copy()
        post[1, 0] *= 2  # |phi_0| = 2: W^dag W is not 1
        with pytest.raises(NonExtendable, match="Gram defect 3.000e\\+00"):
            _checked_isometries(sources, post)


class TestModeledSingleMeasurement:
    def test_eigenstate_reads_plus_with_certainty(self):
        model = build_measurement_unitary(OBS_Z)
        d = modeled_single_measurement(PLUS_Z, model)
        assert d.probability(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_superposition_reads_amplitude_squares(self):
        lam_p, lam_m = 0.6, 0.8
        psi = PureState([lam_p, lam_m])   # lam_p |+z> + lam_m |-z>
        model = build_measurement_unitary(OBS_Z)
        d = modeled_single_measurement(psi, model)
        assert d.probability(1.0) == pytest.approx(lam_p ** 2, abs=1e-12)
        assert d.probability(-1.0) == pytest.approx(lam_m ** 2, abs=1e-12)

    def test_absorbing_same_statistics_as_nondisturbing(self, rng):
        absorbing = build_measurement_unitary(OBS_Z, post_states=[PLUS_Z, PLUS_Z])
        plain = build_measurement_unitary(OBS_Z)
        for _ in range(10):
            s = random_state(rng, 2)
            assert total_variation(modeled_single_measurement(s, absorbing),
                                   modeled_single_measurement(s, plain)) < 1e-12

    def test_matches_born_for_random_models(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            obs = spectral_decompose(random_hermitian(rng, dim))
            posts = [random_state(rng, dim) for _ in range(dim)]
            model = build_measurement_unitary(obs, post_states=posts)
            s = random_state(rng, dim)
            assert total_variation(modeled_single_measurement(s, model),
                                   born_distribution(s, obs)) < 1e-10

    def test_dimension_mismatch(self):
        model = build_measurement_unitary(OBS_Z)
        with pytest.raises(DimensionMismatch):
            modeled_single_measurement(basis_state(3, 0), model)

    def test_pointer_readout_via_reduced_state(self, rng):
        # the record statistics are literally Born statistics of the pointer
        # observable on the traced-out pointer state
        from qmeasure import partial_trace, tensor_product
        obs = spectral_decompose(random_hermitian(rng, 3))
        model = build_measurement_unitary(obs)
        s = random_state(rng, 3)
        ready = basis_state(model.pointer_dim, model.ready_index)
        joint = PureState(model.unitary.matrix
                          @ tensor_product(s, ready).amplitudes)
        reduced = partial_trace(joint.to_density(),
                                [model.system_dim, model.pointer_dim], keep={1})
        # the record variable: diagonal on the pointer space, one level per index
        dp = model.pointer_dim
        pointer = Observable(np.arange(dp), np.eye(dp), [slice(m, m + 1) for m in range(dp)])
        pointer_dist = born_distribution(reduced, pointer)
        direct = modeled_single_measurement(s, model)
        for i, rec in enumerate(model.record_indices):
            assert pointer_dist.probability(float(rec)) == pytest.approx(
                direct.probability(float(obs.eigenvalues[i])), abs=1e-10)


class TestRepeatedMeasurementJoint:
    def test_nondisturbing_repeats_perfectly(self):
        model = build_measurement_unitary(OBS_Z)
        joint = repeated_measurement_joint(PLUS_X, model)
        d = joint.as_dict()
        assert d[(1.0, 1.0)] == pytest.approx(0.5, abs=1e-10)
        assert d[(-1.0, -1.0)] == pytest.approx(0.5, abs=1e-10)
        assert d[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-10)
        assert d[(-1.0, 1.0)] == pytest.approx(0.0, abs=1e-10)

    def test_absorbing_second_readout_certain(self):
        model = build_measurement_unitary(OBS_Z, post_states=[PLUS_Z, PLUS_Z])
        joint = repeated_measurement_joint(PLUS_X, model)
        # oracle (explicit 18-dim evolution built from scratch): the first
        # interaction leaves |+z> (x) (|m+> + |m->)/sqrt2; the second then
        # records + with certainty
        second_plus = sum(p for (i, j), p in joint.as_dict().items() if j == 1.0)
        assert second_plus == pytest.approx(1.0, abs=1e-10)
        oracle = _brute_force_joint(PLUS_X, [PLUS_Z, PLUS_Z])
        assert total_variation(joint, oracle) < 1e-10

    def test_disturbing_model_brute_force(self):
        model = build_measurement_unitary(OBS_Z, post_states=[MINUS_X, PLUS_X])
        joint = repeated_measurement_joint(PLUS_X, model)
        oracle = _brute_force_joint(PLUS_X, [MINUS_X, PLUS_X])
        assert total_variation(joint, oracle) < 1e-10
        # conditional second-outcome distribution is 50/50 whatever came first
        d = joint.as_dict()
        for first in (-1.0, 1.0):
            p_first = d[(first, 1.0)] + d[(first, -1.0)]
            assert d[(first, 1.0)] / p_first == pytest.approx(0.5, abs=1e-10)

    def test_marginal_over_first_record_matches_single(self, rng):
        for _ in range(5):
            obs = spectral_decompose(random_hermitian(rng, 3))
            posts = [random_state(rng, 3) for _ in range(3)]
            model = build_measurement_unitary(obs, post_states=posts)
            s = random_state(rng, 3)
            joint = repeated_measurement_joint(s, model).as_dict()
            single = modeled_single_measurement(s, model)
            for v in obs.eigenvalues:
                marg = sum(p for (i, j), p in joint.items() if i == float(v))
                assert marg == pytest.approx(single.probability(float(v)), abs=1e-10)

    def test_nondisturbing_iff_no_offdiagonal_mass(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 3))
        eigen_posts = [PureState(obs.eigenbasis(i)[:, 0]) for i in range(3)]
        random_posts = [random_state(rng, 3) for _ in range(3)]
        s = random_state(rng, 3)
        for posts, expect_zero in ((eigen_posts, True), (random_posts, False)):
            model = build_measurement_unitary(obs, post_states=posts)
            joint = repeated_measurement_joint(s, model).as_dict()
            off = sum(p for (i, j), p in joint.items() if i != j)
            if expect_zero:
                assert off < 1e-10
            else:
                assert off > 1e-3


def _brute_force_joint(state, post_states):
    """Independent oracle: hand-build the two-pointer evolution with kron.

    The measured observable is z on a qubit with a 3-level pointer; the
    interaction takes |o_i, ready> to |phi_i, record_i> and acts as the
    identity on everything orthogonal to that slice, which is all the joint
    statistics depend on.
    """
    ds, dp = 2, 3
    ready, rec = 0, [1, 2]   # record index per ascending eigenvalue (-1, +1)
    eigvec = {0: np.array([0.0, 1.0]), 1: np.array([1.0, 0.0])}  # -1 -> |1>, +1 -> |0>
    phi = [p.amplitudes for p in post_states]

    # first interaction on (sys, pointer1)
    psi1 = np.zeros(ds * dp * dp, dtype=complex)
    for i in range(2):
        amp = np.vdot(eigvec[i], state.amplitudes)
        psi1 += amp * kron3(phi[i], np.eye(dp)[rec[i]], np.eye(dp)[ready])
    # second interaction on (sys, pointer2): decompose the system factor again
    psi2 = np.zeros(ds * dp * dp, dtype=complex)
    full = psi1.reshape(ds, dp, dp)
    for j in range(2):
        amp_sys = np.tensordot(eigvec[j].conj(), full, axes=([0], [0]))  # (dp, dp)
        for p1 in range(dp):
            contrib = amp_sys[p1, ready]
            if abs(contrib) > 0:
                psi2 += contrib * kron3(phi[j], np.eye(dp)[p1], np.eye(dp)[rec[j]])
    out = psi2.reshape(ds, dp, dp)
    labels, probs = [], []
    vals = [-1.0, 1.0]
    for i in range(2):
        for j in range(2):
            labels.append((vals[i], vals[j]))
            probs.append(float(np.sum(np.abs(out[:, rec[i], rec[j]]) ** 2)))
    from qmeasure import OutcomeDistribution
    return OutcomeDistribution(labels, probs)


class TestCollapseRuleJoint:
    def test_always_diagonal(self, rng):
        obs = spectral_decompose(random_hermitian(rng, 4))
        joint = collapse_rule_joint(random_state(rng, 4), obs).as_dict()
        off = sum(p for (i, j), p in joint.items() if i != j)
        assert off == 0.0

    def test_plus_x_under_z(self):
        joint = collapse_rule_joint(PLUS_X, OBS_Z).as_dict()
        assert joint[(1.0, 1.0)] == pytest.approx(0.5, abs=1e-12)
        assert joint[(-1.0, -1.0)] == pytest.approx(0.5, abs=1e-12)

    def test_disturbing_model_tv_is_one_half(self):
        model = build_measurement_unitary(OBS_Z, post_states=[MINUS_X, PLUS_X])
        modeled = repeated_measurement_joint(PLUS_X, model)
        predicted = collapse_rule_joint(PLUS_X, OBS_Z)
        assert total_variation(modeled, predicted) == pytest.approx(0.5, abs=1e-9)
