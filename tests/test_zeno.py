import math
import warnings

import numpy as np
import pytest

from qmeasure import (
    InvalidRegime,
    OutsideValidityWindow,
    UnresolvedSpectrum,
    build_decay_model,
    iterated_projection_survival,
    rabi_zeno,
    survival_probability,
)
from qmeasure import zeno
from qmeasure.zeno import _comb_tails


@pytest.fixture(scope="module")
def model():
    return build_decay_model(tau=1.0, n_modes=400, bandwidth=40.0)


def _band_hamiltonian(model):
    """The dense (N+1)^2 band Hamiltonian, written out here from the model's scales."""
    n = model.n_modes
    H = np.diag(np.concatenate([[0.0], (np.arange(n) - (n - 1) / 2) * model.delta_omega]))
    H[0, 1:] = H[1:, 0] = model.coupling
    return H


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
        # the spectrum's first two moments as the level sees them are the
        # entries <0|H|0> and <0|H^2|0> of the band Hamiltonian written out here
        H = _band_hamiltonian(model)
        assert H[0, 0] == 0.0
        assert abs(np.sum(model.weights * model.energies) - H[0, 0]) < 1e-12
        assert np.sum(model.weights * model.energies ** 2) == pytest.approx(
            (H @ H)[0, 0], rel=1e-12)

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
        evals, evecs = np.linalg.eigh(_band_hamiltonian(model))
        dp = np.concatenate([[0.0], np.full(n, 1.0 / np.sqrt(n))])  # uniform over the band
        coeff = evecs.T @ dp

        def autocorrelation(t):
            return complex(np.vdot(dp, evecs @ (np.exp(-1j * evals * t) * coeff)))

        assert abs(autocorrelation(0.0)) == pytest.approx(1.0, abs=1e-12)
        for mult in (1.0, 2.0, 4.0):
            assert abs(autocorrelation(mult * model.t0)) < 0.1


class TestCombSpectrum:
    @pytest.mark.parametrize("n_modes", [200, 400, 1000])
    def test_matches_dense_eigh(self, n_modes):
        model = build_decay_model(tau=1.0, n_modes=n_modes, bandwidth=40.0)
        evals, evecs = np.linalg.eigh(_band_hamiltonian(model))
        weights = evecs[0] ** 2
        assert model.energies.shape == model.weights.shape == (n_modes + 1,)
        assert np.max(np.abs(model.energies - evals)) <= 1e-12
        assert np.max(np.abs(model.weights - weights)) <= 1e-12
        assert abs(np.sum(model.weights) - 1.0) <= 1e-12
        # survival over criterion 3's window
        ts = np.linspace(0.2, 3.0, 141)
        dense = np.abs(np.exp(-1j * np.multiply.outer(ts, evals)) @ weights) ** 2
        assert np.max(np.abs([survival_probability(model, t) for t in ts] - dense)) <= 1e-12

    def test_amplitude_rejects_non_finite_time(self, model):
        for t in (np.nan, np.inf):
            with pytest.raises(ValueError, match="time must be finite"):
                model.survival_amplitude(t)

    def test_amplitude_rejects_overflowing_phase(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflows at time 1\.7e\+308"):
                model.survival_amplitude(1.7e308)

    def test_arrays_are_read_only(self, model):
        for arr in (model.energies, model.weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("k,s", [(17, 1e-9), (17, 1e-6), (17, 0.5), (17, 1 - 1e-6),
                                     (17, 1 - 2 ** -30), (0, 0.25), (298, 0.75),
                                     (-1, 1e-3), (-1, 0.5), (-1, 1 - 1e-6),
                                     (299, 1e-6), (299, 0.5), (299, 1 - 1e-3)])
    def test_psi_sums_against_brute_force(self, k, s):
        # sum_j 1/(u - j) and sum_j 1/(u - j)^2 over the comb j = 0..n-1 at u = k + s,
        # near both poles of a gap and in both outer gaps; the lattice terms pi cot(pi s)
        # and pi^2 / sin^2(pi s) are taken from the pole nearer s.  Each sum must hold to
        # 1e-12 of the largest magnitude it adds up: next to a band edge's missing pole
        # the lattice term and the tail cancel to O(1) from O(1/distance) or its square
        n = 300
        terms = [1.0 / ((k - j) + s) for j in range(n)]
        near = s if s < 0.5 else s - 1.0  # distance to the nearer lattice point, exact
        tail, tail2 = _comb_tails(np.array([float(k)]), np.array([s]), n)
        cot, csc2 = np.pi / math.tan(np.pi * near), (np.pi / math.sin(np.pi * near)) ** 2
        first, second = cot + tail[0], csc2 - tail2[0]
        assert abs(first - math.fsum(terms)) <= 1e-12 * max(abs(cot), math.fsum(map(abs, terms)))
        assert abs(second - math.fsum(t * t for t in terms)) <= 1e-12 * csc2

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(zeno, "SECULAR_MAX_SWEEPS", 1)
        with pytest.raises(UnresolvedSpectrum, match="unconverged"):
            build_decay_model(tau=1.0, n_modes=400, bandwidth=40.0)

    @pytest.mark.parametrize("defect,message", [(lambda E, w: (E, 1.01 * w), "sum to"),
                                                (lambda E, w: (E * np.nan, w), "non-finite")])
    def test_defective_spectrum_raises(self, monkeypatch, defect, message):
        solve = zeno._comb_spectrum
        monkeypatch.setattr(zeno, "_comb_spectrum", lambda n, b: defect(*solve(n, b)))
        with pytest.raises(UnresolvedSpectrum, match=message):
            build_decay_model(tau=1.0, n_modes=400, bandwidth=40.0)

    def test_rejects_overflowing_band_decay_product(self):
        with pytest.raises(InvalidRegime, match="overflows"):
            build_decay_model(tau=1e300, n_modes=400, bandwidth=1e10)


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
        # the dense evolution the amplitude stands for: unitary, and its
        # undecayed component is the model's A(t)
        evals, evecs = np.linalg.eigh(_band_hamiltonian(model))
        psi0 = model.undecayed_state().amplitudes
        for t in (0.0, 0.4, 1.0, 2.7):
            psi = evecs @ (np.exp(-1j * evals * t) * (evecs.T @ psi0))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10
            assert abs(psi[0] - model.survival_amplitude(t)) < 1e-12


class TestIteratedProjection:
    def test_single_cycle_reproduces_survival(self, model):
        T = 0.8
        assert iterated_projection_survival(model, T, T) == pytest.approx(
            survival_probability(model, T), abs=1e-12)

    def test_product_identity_oracle(self, model):
        # the closed form |A(delta)|^(2n) against the evolve-and-project cycle
        # loop run with a dense U(delta) from the test's own diagonalization
        evals, evecs = np.linalg.eigh(_band_hamiltonian(model))
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

    @pytest.mark.parametrize("counts, named", [
        (2.5, "2.5"), (True, "True"), (0, "0"), (-3, "-3"), (3.0, "3.0"),
        (np.array([4, 0, 5]), "0"), (np.array([1.0, 2.5]), "1.0"), ([True, False], "True"),
    ])
    def test_rejects_counts_that_are_not_integers_at_least_one(self, counts, named):
        # a float count was once truncated into a survival (2.5 gave 0.3466)
        # and a bool counted as 1
        with pytest.raises(ValueError, match=rf"got {named}$"):
            rabi_zeno(math.pi, counts)

    @pytest.mark.parametrize("theta", [math.pi, 1.234, 2 * math.pi])
    def test_scalar_and_array_counts_match_closed_form(self, theta):
        counts = np.arange(1, 4097)
        oracle = np.array([math.cos(theta / (2 * n)) ** (2 * n) for n in range(1, 4097)])
        stacked = rabi_zeno(theta, counts)
        scalars = [rabi_zeno(theta, n) for n in range(1, 4097)]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (4096,)
        assert all(type(value) is float for value in scalars)
        # the roundoff of |amplitude|^2N grows as 2N ulps: 1.8e-12 at N = 4096
        np.testing.assert_allclose(stacked, oracle, rtol=0, atol=1e-11)
        np.testing.assert_allclose(scalars, oracle, rtol=0, atol=1e-11)

    def test_array_counts_keep_their_shape(self):
        counts = np.array([[1, 2], [3, 40]], dtype=np.int32)
        values = rabi_zeno(1.0, counts)
        assert values.shape == (2, 2)
        assert values[1, 1] == pytest.approx(math.cos(1.0 / 80) ** 80, abs=1e-12)
        assert rabi_zeno(1.0, np.int64(3)) == pytest.approx(math.cos(1.0 / 6) ** 6, abs=1e-12)
