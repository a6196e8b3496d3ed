"""Acceptance suite: one test per release criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every expected value is either closed-form or produced by an
independent oracle computed in this file.
"""

import math
import time

import numpy as np

from qmeasure import (
    GridSpace,
    LinearOperator,
    PureState,
    SIGMA_Z,
    born_distribution,
    build_decay_model,
    build_fuzzy_povm,
    build_grid_operators,
    build_measurement_unitary,
    build_phase_space_povm,
    collapse,
    collapse_rule_joint,
    decoherence_functional,
    free_hamiltonian,
    gaussian_packet,
    Hamiltonian,
    HistorySet,
    history_probabilities,
    is_consistent,
    iterated_projection_survival,
    modeled_single_measurement,
    packet_width,
    povm_distribution,
    rabi_zeno,
    repeated_measurement_joint,
    run_scenario,
    spectral_decompose,
    survival_probability,
    total_variation,
    truncated_gaussian_packet,
    validate_config,
)

OBS_Z = spectral_decompose(SIGMA_Z)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(num: int, name: str, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail}")


def test_criterion_01_born_modeled_equivalence():
    rng = np.random.default_rng(1)
    with _Timer() as timer:
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            obs = spectral_decompose(LinearOperator(h + h.conj().T))
            state = PureState(rng.standard_normal(dim)
                              + 1j * rng.standard_normal(dim))
            posts = [PureState(rng.standard_normal(dim)
                               + 1j * rng.standard_normal(dim))
                     for _ in range(dim)]
            model = build_measurement_unitary(obs, post_states=posts)
            worst = max(worst, total_variation(
                modeled_single_measurement(state, model),
                born_distribution(state, obs)))
    ok = worst < 1e-10 and timer.elapsed < 5.0
    _report(1, "born/modeled equivalence",
            ok, f"worst TV {worst:.3e} (tol 1e-10), {timer.elapsed:.2f}s")
    assert worst < 1e-10
    assert timer.elapsed < 5.0


def test_criterion_02_repeatability_only_without_disturbance():
    with _Timer() as timer:
        plus_x = PureState([1.0, 1.0])
        minus_x = PureState([1.0, -1.0])
        plain = build_measurement_unitary(OBS_Z)
        joint = repeated_measurement_joint(plus_x, plain).as_dict()
        offdiag = sum(p for (i, j), p in joint.items() if i != j)
        disturbing = build_measurement_unitary(OBS_Z,
                                               post_states=[minus_x, plus_x])
        tv = total_variation(repeated_measurement_joint(plus_x, disturbing),
                             collapse_rule_joint(plus_x, OBS_Z))
    ok = offdiag < 1e-10 and abs(tv - 0.5) < 1e-9 and timer.elapsed < 1.0
    _report(2, "repeatability holds only when non-disturbing", ok,
            f"off-diag {offdiag:.3e} (tol 1e-10), |TV - 1/2| {abs(tv - 0.5):.3e} "
            f"(tol 1e-9), {timer.elapsed:.2f}s")
    assert offdiag < 1e-10
    assert abs(tv - 0.5) < 1e-9
    assert timer.elapsed < 1.0


def _finite_band_pole(tau: float, bandwidth: float):
    """Decay rate and residue of the pole of a flat band of finite width.

    A level coupled to a flat band of width W with golden-rule rate
    Gamma = 1/tau has self-energy Sigma(z) = (Gamma / 2 pi)
    ln((z + W/2) / (z - W/2)).  Its decaying pole z = -i Gamma'/2 satisfies
    Gamma' = Gamma [1 + (2/pi) arctan(Gamma'/W)], with residue
    Z = [1 - (2 Gamma / pi) W / (W^2 + Gamma'^2)]^-1 (Fonda, Ghirardi &
    Rimini, Rep. Prog. Phys. 41, 587 (1978)).  The survival probability's
    exponential law is then |Z|^2 exp(-Gamma' t); both factors tend to the
    golden-rule values as 1 + O(1/(W tau)).  Returns (Gamma', |Z|^2, the
    pole equation's residual).
    """
    gamma = 1.0 / tau

    def pole_map(rate):
        return gamma * (1.0 + (2.0 / math.pi) * math.atan(rate / bandwidth))

    rate = gamma
    for _ in range(100):  # contraction factor ~ 2 / (pi W tau)
        rate = pole_map(rate)
    residue = 1.0 / (1.0 - (2.0 * gamma / math.pi) * bandwidth
                     / (bandwidth ** 2 + rate ** 2))
    return rate, residue ** 2, abs(rate - pole_map(rate))


def test_criterion_03_exponential_decay():
    tau, bandwidth = 1.0, 40.0
    rate, weight, pole_residual = _finite_band_pole(tau, bandwidth)
    with _Timer() as timer:
        model = build_decay_model(tau=tau, n_modes=400, bandwidth=bandwidth)
        ts = np.linspace(0.2, 3.0, 141)
        survival = [survival_probability(model, t) for t in ts]
        law = [weight * math.exp(-rate * t) for t in ts]
        worst = max(abs(p - q) / q for p, q in zip(survival, law))
    # distance from the infinite-band (golden-rule) law, reported only
    worst_golden = max(abs(p - math.exp(-t / tau)) / math.exp(-t / tau)
                       for p, t in zip(survival, ts))
    ok = worst <= 0.03 and pole_residual <= 1e-12 and timer.elapsed < 10.0
    _report(3, "exponential decay law", ok,
            f"max rel err {worst:.4f} (tol 0.03) from finite-band law "
            f"{weight:.5f}*exp(-{rate * tau:.5f} t/tau) on t in [0.2, 3]; "
            f"{worst_golden:.4f} from exp(-t/tau) (not asserted), "
            f"{timer.elapsed:.2f}s")
    assert pole_residual <= 1e-12
    assert timer.elapsed < 10.0
    assert worst <= 0.03


def test_criterion_04_zeno_freezing():
    with _Timer() as timer:
        model = build_decay_model(tau=1.0, n_modes=400, bandwidth=40.0)
        deltas = [1 / 4, 1 / 16, 1 / 64, model.t0 / 10, model.t0 / 50]
        survivals = [iterated_projection_survival(model, d, 1.0) for d in deltas]
        monotone = all(b >= a - 1e-12 for a, b in zip(survivals, survivals[1:]))
        frozen = survivals[-1]
        worst_rabi = max(abs(rabi_zeno(math.pi, n)
                             - math.cos(math.pi / (2 * n)) ** (2 * n))
                         for n in range(1, 65))
    ok = monotone and frozen > 0.9 and worst_rabi < 1e-9 and timer.elapsed < 20.0
    _report(4, "projective freezing", ok,
            f"sweep monotone {monotone}, frozen survival {frozen:.4f} (floor "
            f"0.9), rabi worst err {worst_rabi:.2e} (tol 1e-9), "
            f"{timer.elapsed:.2f}s")
    assert monotone
    assert frozen > 0.9
    assert worst_rabi < 1e-9
    assert timer.elapsed < 20.0


def test_criterion_05_povm_validity():
    rng = np.random.default_rng(5)
    with _Timer() as timer:
        g = GridSpace(64, 16.0)
        povm = build_phase_space_povm(g, 0.8)
        deficit = povm.completeness_deficit()
        sharp = build_fuzzy_povm(OBS_Z, np.eye(2))
        worst = 0.0
        for _ in range(50):
            s = PureState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            worst = max(worst, float(np.max(np.abs(
                np.asarray(povm_distribution(s, sharp).probabilities)
                - np.asarray(born_distribution(s, OBS_Z).probabilities)))))
    ok = deficit < 1e-6 and worst < 1e-12 and timer.elapsed < 10.0
    _report(5, "POVM validity", ok,
            f"completeness deficit {deficit:.2e} (tol 1e-6), delta-smearing "
            f"worst err {worst:.2e} (tol 1e-12), {timer.elapsed:.2f}s")
    assert deficit < 1e-6
    assert worst < 1e-12
    assert timer.elapsed < 10.0


def test_criterion_06_uncertainty_and_fourier():
    with _Timer() as timer:
        g = GridSpace(1024, 100.0)
        psi = gaussian_packet(g, 0.0, 0.0, 2.0)
        F = build_grid_operators(g)[2]
        x, k = g.positions, g.wavenumbers
        px = np.abs(psi.amplitudes) ** 2
        sigma_x = math.sqrt(float(np.sum(px * x ** 2) - np.sum(px * x) ** 2))
        pk = np.abs(F.matrix @ psi.amplitudes) ** 2
        sigma_k = math.sqrt(float(np.sum(pk * k ** 2) - np.sum(pk * k) ** 2))
        product = sigma_x * sigma_k

        gc = GridSpace(256, 60.0)
        half = int(round(3.0 / gc.dx))
        window = (128 - half, 128 + half + 1)
        compact = truncated_gaussian_packet(gc, 0.0, 0.0, 1.0, window)
        Fc = build_grid_operators(gc)[2]
        momentum_mags = np.abs(Fc.matrix @ compact.amplitudes)
        min_mag = float(momentum_mags.min())
    ok = (abs(product - 0.5) <= 0.01 and min_mag > 1e-300
          and np.all(momentum_mags > 0) and timer.elapsed < 5.0)
    _report(6, "uncertainty product and spectral delocalization", ok,
            f"sigma_x*sigma_k {product:.6f} (0.5 within 2%), min momentum "
            f"magnitude {min_mag:.3e} (floor 1e-300), {timer.elapsed:.2f}s")
    assert abs(product - 0.5) <= 0.01
    assert min_mag > 1e-300
    assert np.all(momentum_mags > 0)
    assert timer.elapsed < 5.0


def test_criterion_07_immediate_delocalization():
    with _Timer() as timer:
        g = GridSpace(256, 60.0)
        width, mass = 1.0, 1.0
        half = int(round(3 * width / g.dx))
        window = (128 - half, 128 + half + 1)
        psi0 = truncated_gaussian_packet(g, 0.0, 0.0, width, window)
        H = free_hamiltonian(g, mass)
        outside_mask = np.ones(g.n_points, dtype=bool)
        outside_mask[window[0]:window[1]] = False
        natural = mass * width ** 2
        leaks = []
        for exponent in (-1, -2, -3, -4):
            psi_t = H.evolve(psi0, (10.0 ** exponent) * natural)
            leaks.append(float(np.sum(np.abs(psi_t.amplitudes[outside_mask]) ** 2)))
    ok = min(leaks) > 1e-12 and timer.elapsed < 10.0
    _report(7, "immediate delocalization", ok,
            f"min outside probability {min(leaks):.3e} (floor 1e-12) over "
            f"eps in 1e-1..1e-4 natural times, {timer.elapsed:.2f}s")
    assert min(leaks) > 1e-12
    assert timer.elapsed < 10.0


def test_criterion_08_gaussian_spreading_law():
    with _Timer() as timer:
        g = GridSpace(1024, 120.0)
        width, mass = 1.0, 1.0
        psi0 = gaussian_packet(g, 0.0, 0.0, width)
        H = free_hamiltonian(g, mass)
        natural = mass * width ** 2
        t_max = natural * math.sqrt((g.box_length / 4 / width) ** 2 - 1.0)
        worst = 0.0
        for t in np.linspace(0.0, t_max, 12):
            w_num = packet_width(g, H.evolve(psi0, float(t)))
            w_ref = width * math.sqrt(1.0 + (t / natural) ** 2)
            worst = max(worst, abs(w_num - w_ref) / w_ref)
    ok = worst <= 0.02 and timer.elapsed < 10.0
    _report(8, "free spreading law", ok,
            f"max rel err {worst:.4f} (tol 0.02) up to width = box/4, "
            f"{timer.elapsed:.2f}s")
    assert worst <= 0.02
    assert timer.elapsed < 10.0


def test_criterion_09_consistency_machinery():
    with _Timer() as timer:
        table = run_scenario(validate_config("scenario: two_slit"))
        by_name = {a.name: a for a in table.assertions}
        interference = by_name["interference_term_visible"]
        ratio = by_name["tagged_family_offdiagonal_ratio"]
        additivity = by_name["tagged_coarse_graining_additive"]
    ok = (interference.passed and ratio.passed and additivity.passed
          and timer.elapsed < 15.0)
    _report(9, "two-slit consistency machinery", ok,
            f"max |interference| {interference.value:.4f} (floor 0.05), tagged "
            f"off-diagonal ratio {ratio.value:.2e} (tol 1e-8), additivity err "
            f"{additivity.value:.2e} (tol 2e-8), {timer.elapsed:.2f}s")
    assert interference.passed
    assert ratio.passed
    assert additivity.passed
    assert timer.elapsed < 15.0


def test_criterion_10_conditionalization_equivalence():
    rng = np.random.default_rng(10)
    with _Timer() as timer:
        z_family = [OBS_Z.projector(0), OBS_Z.projector(1)]
        worst = 0.0
        for _ in range(20):
            energies = rng.standard_normal(2)
            H = Hamiltonian(LinearOperator(np.diag(energies).astype(complex)))
            s = PureState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            t1, t2 = 0.7, 1.9
            hs = HistorySet(H, s, [t1, t2], [z_family, z_family])
            D = decoherence_functional(hs)
            consistent, _ = is_consistent(D, 1e-9)
            assert consistent
            probs = history_probabilities(D, 1e-9)
            for first in range(2):
                total_first = sum(probs.probability((first, j)) for j in range(2))
                if total_first < 1e-9:
                    continue
                collapsed = collapse(H.evolve(s, t1), OBS_Z,
                                     float(OBS_Z.eigenvalues[first]))
                born = born_distribution(H.evolve(collapsed, t2 - t1), OBS_Z)
                for j in range(2):
                    worst = max(worst, abs(
                        probs.probability((first, j)) / total_first
                        - born.probabilities[j]))
    ok = worst < 1e-9 and timer.elapsed < 5.0
    _report(10, "collapse as conditionalization", ok,
            f"worst conditional mismatch {worst:.2e} (tol 1e-9), "
            f"{timer.elapsed:.2f}s")
    assert worst < 1e-9
    assert timer.elapsed < 5.0


def test_criterion_11_beam_split_pipeline():
    with _Timer() as timer:
        table = run_scenario(validate_config("scenario: stern_gerlach"))
        thetas = table.values[:, 0].tolist()
        worst = max(table.values[:, 4])
        all_passed = table.all_passed
    expected_thetas = [i * math.pi / 6 for i in range(7)]
    grid_ok = np.allclose(thetas, expected_thetas, atol=1e-12)
    ok = all_passed and grid_ok and worst < 1e-9 and timer.elapsed < 1.0
    _report(11, "beam-split pipeline", ok,
            f"worst |Pr(+) - cos^2(theta/2)| {worst:.2e} (tol 1e-9) over 7 "
            f"angles, {timer.elapsed:.2f}s")
    assert all_passed
    assert grid_ok
    assert worst < 1e-9
    assert timer.elapsed < 1.0
