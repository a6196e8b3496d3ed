import math

import numpy as np
import pytest

from qmeasure import (
    InvalidRegime,
    OutsideValidityWindow,
    build_decay_model,
    iterated_projection_survival,
    rabi_zeno,
    survival_probability,
)


@pytest.fixture(scope="module")
def model():
    return build_decay_model(tau=1.0, n_modes=400, bandwidth=40.0)


def _cycle_loop(U, n_cycles):
    """Independent oracle: evolve by the dense U, record the survival, project, repeat.

    Keeps the renormalized undecayed branch (phase included) after every
    cycle and multiplies the per-cycle survival probabilities.
    """
    kept = np.zeros(U.shape[0], dtype=complex)
    kept[0] = 1.0
    state = kept
    survival = 1.0
    for _ in range(n_cycles):
        state = U @ state
        p = abs(state[0]) ** 2
        survival *= p
        if survival == 0.0:
            break
        state = (state[0] / abs(state[0])) * kept
    return survival


class TestBuildDecayModel:
    def test_derived_scales(self, model):
        assert model.delta_omega == pytest.approx(0.1)
        assert model.t_valid == pytest.approx(2 * np.pi / 0.1)
        assert model.t0 == pytest.approx(2 * np.pi / 40.0)
        assert model.coupling == pytest.approx(math.sqrt(0.1 / (2 * math.pi)))

    def test_undecayed_level_at_energy_origin(self, model):
        assert model.hamiltonian.op.matrix[0, 0] == 0.0

    def test_survival_at_zero_is_one(self, model):
        assert survival_probability(model, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_strong_coupling(self):
        with pytest.raises(InvalidRegime):
            build_decay_model(tau=0.1, n_modes=400, bandwidth=40.0)

    def test_rejects_sparse_band(self):
        with pytest.raises(InvalidRegime):
            build_decay_model(tau=1.0, n_modes=100, bandwidth=40.0)

    def test_decay_products_decorrelate_on_band_timescale(self, model):
        # oracle: the band Hamiltonian written out here, evolved by its own eigh
        n = model.n_modes
        H = np.diag(np.concatenate([[0.0], (np.arange(n) - (n - 1) / 2) * model.delta_omega]))
        H[0, 1:] = H[1:, 0] = model.coupling
        evals, evecs = np.linalg.eigh(H)
        dp = np.concatenate([[0.0], np.full(n, 1.0 / np.sqrt(n))])  # uniform over the band
        coeff = evecs.T @ dp

        def autocorrelation(t):
            return complex(np.vdot(dp, evecs @ (np.exp(-1j * evals * t) * coeff)))

        assert abs(autocorrelation(0.0)) == pytest.approx(1.0, abs=1e-12)
        for mult in (1.0, 2.0, 4.0):
            assert abs(autocorrelation(mult * model.t0)) < 0.1


class TestSurvivalProbability:
    def test_one_lifetime(self, model):
        assert survival_probability(model, 1.0) == pytest.approx(math.exp(-1.0),
                                                                 rel=0.03)

    def test_three_lifetimes(self, model):
        assert survival_probability(model, 3.0) == pytest.approx(math.exp(-3.0),
                                                                 rel=0.05)

    def test_outside_validity_window(self, model):
        with pytest.raises(OutsideValidityWindow):
            survival_probability(model, model.t_valid / 2)
        with pytest.raises(OutsideValidityWindow):
            survival_probability(model, -0.1)

    def test_log_slope_matches_decay_rate(self, model):
        ts = np.linspace(0.2, 3.0, 100)
        logs = [math.log(survival_probability(model, t)) for t in ts]
        slope = np.polyfit(ts, logs, 1)[0]
        assert slope == pytest.approx(-1.0, rel=0.03)

    def test_amplitude_law_including_phase(self, model):
        # with the band symmetric about the undecayed level there is no level
        # shift, so the amplitude itself tracks exp(-t / 2 tau) as a real
        # positive number, not just in magnitude
        for t in (0.5, 1.0, 2.0, 3.0):
            amp = model.survival_amplitude(t)
            assert abs(amp - math.exp(-t / 2)) < 0.02
            assert abs(amp.imag) < 0.01

    def test_unitarity_of_underlying_evolution(self, model):
        psi0 = model.undecayed_state()
        for t in (0.0, 0.4, 1.0, 2.7):
            psi = model.hamiltonian.evolve(psi0, t)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-10


class TestIteratedProjection:
    def test_single_cycle_reproduces_survival(self, model):
        T = 0.8
        assert iterated_projection_survival(model, T, T) == pytest.approx(
            survival_probability(model, T), abs=1e-12)

    def test_product_identity_oracle(self, model):
        # the closed form |A(delta)|^(2n) against the evolve-and-project cycle
        # loop run with a dense U(delta) from the test's own diagonalization
        evals, evecs = np.linalg.eigh(model.hamiltonian.op.matrix)
        for delta in (0.25, 0.0625, model.t0 / 10):
            n = int(np.floor(1.0 / delta + 1e-12))
            U = (evecs * np.exp(-1j * evals * delta)) @ evecs.conj().T
            assert iterated_projection_survival(model, delta, 1.0) == pytest.approx(
                _cycle_loop(U, n), rel=1e-10)

    def test_infrequent_projection_leaves_decay_law_alone(self, model):
        # delta well above the band correlation time: statistics unaffected
        for delta in (0.5, 1.0):
            assert delta > 3 * model.t0
            s = iterated_projection_survival(model, delta, 1.0)
            assert s == pytest.approx(math.exp(-1.0), rel=0.05)

    def test_zeno_freezing_along_sweep(self, model):
        tau = model.tau
        deltas = [tau / 4, tau / 16, tau / 64, model.t0 / 10, model.t0 / 50]
        survivals = [iterated_projection_survival(model, d, tau) for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(survivals, survivals[1:]))
        assert survivals[-1] > 0.9

    def test_window_checked(self, model):
        with pytest.raises(OutsideValidityWindow):
            iterated_projection_survival(model, model.t_valid / 4, model.t_valid)

    def test_rejects_horizon_below_one_cycle(self, model):
        with pytest.raises(ValueError):
            iterated_projection_survival(model, 1.0, 0.5)


class TestRabiZeno:
    def test_single_projection_full_flip(self):
        assert rabi_zeno(math.pi, 1) < 1e-30

    def test_ten_projections_closed_form(self):
        oracle = math.cos(math.pi / 20) ** 20
        assert rabi_zeno(math.pi, 10) == pytest.approx(oracle, abs=1e-9)

    def test_closed_form_across_counts(self):
        for n in range(1, 65):
            oracle = math.cos(math.pi / (2 * n)) ** (2 * n)
            assert rabi_zeno(math.pi, n) == pytest.approx(oracle, abs=1e-9)

    def test_monotone_and_approaching_one(self):
        counts = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
        values = [rabi_zeno(math.pi, n) for n in counts]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_matches_cycle_loop(self):
        # oracle: exp(-i sigma_x t / 2) = cos(t/2) 1 - i sin(t/2) sigma_x
        for theta, n in ((math.pi, 1), (math.pi, 7), (2.3, 40), (0.4, 300)):
            step = theta / n
            U = np.array([[math.cos(step / 2), -1j * math.sin(step / 2)],
                          [-1j * math.sin(step / 2), math.cos(step / 2)]])
            oracle = _cycle_loop(U, n)
            assert rabi_zeno(theta, n) == pytest.approx(oracle, rel=1e-10, abs=1e-30)

    def test_rejects_zero_projections(self):
        with pytest.raises(ValueError):
            rabi_zeno(math.pi, 0)
