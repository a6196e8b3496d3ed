"""Config-driven experiment runner: every demonstration as a seeded batch run.

Each scenario wires module operations into a reproducible pipeline, emits a
result table (CSV) plus a JSON sidecar of metadata and PASS/FAIL assertions,
and is deterministic: identical (config, seed) produces byte-identical
output.  The assertions are the module-level acceptance checks a scenario
exercises; no physics lives here that is not already in the modules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import yaml

from . import __version__
from .errors import ParseError, RangeError, SimulationError
from .dynamics import (
    GridSpace,
    Hamiltonian,
    _FourierBasis,
    _check_width,
    barrier_hamiltonian,
    free_hamiltonian,
    gaussian_packet,
    packet_width,
    truncated_gaussian_packet,
)
from .hilbert import (
    DensityOperator,
    LinearOperator,
    PureState,
    SIGMA_X,
    SIGMA_Z,
    _born_weights,
    _check_spectra,
    _degenerate_spectra,
    _unit_rows,
    basis_state,
    partial_trace,
    spectral_decompose,
    tensor_product,
)
from .histories import (
    HistorySet,
    coarse_grain,
    decoherence_functional,
    history_probabilities,
    is_consistent,
)
from .indefiniteness import (
    delocalization_demo,
    ee_link_status,
    indefiniteness_scan,
    invariant_subspace_check,
    region_projector,
)
from .measurement import (
    _normalized,
    _povm_weights,
    build_fuzzy_povm,
    build_phase_space_povm,
    povm_distribution,
    total_variation,
)
from .modeling import (
    _checked_isometries,
    _modeled_weights,
    build_measurement_unitary,
    collapse_rule_joint,
    repeated_measurement_joint,
)
from .zeno import _rabi_survivals, build_decay_model, iterated_projection_survival, \
    survival_probability


@dataclass(frozen=True)
class ParamSpec:
    """One documented scenario parameter with its validity range."""

    default: object
    kind: type
    doc: str
    unit: str = ""
    low: float | None = None
    high: float | None = None

    def check(self, value, path: str, violations: list[str]):
        if self.kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                violations.append(f"{path}: expected integer, got {value!r}")
                return None
        elif self.kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                violations.append(f"{path}: expected number, got {value!r}")
                return None
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the double range
                value = np.inf
            if not np.isfinite(value):
                violations.append(f"{path}: expected a finite number, got {value!r}")
                return None
        if self.low is not None and value < self.low:
            violations.append(f"{path}: {value} below minimum {self.low}")
        if self.high is not None and value > self.high:
            violations.append(f"{path}: {value} above maximum {self.high}")
        return value


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario run request."""

    scenario: str
    params: dict
    seed: int

    def config_hash(self) -> str:
        canonical = json.dumps({"scenario": self.scenario, "params": self.params},
                               sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    value: float
    tolerance: float


@dataclass
class ResultTable:
    """Columns of reals plus run metadata and the scenario's assertions."""

    columns: list[tuple[str, str]]          # (name, unit)
    rows: list[tuple[float, ...]]
    metadata: dict
    assertions: list[Assertion] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def to_csv(self) -> str:
        header = ",".join(f"{name} [{unit}]" if unit else name
                          for name, unit in self.columns)
        lines = [header]
        for row in self.rows:
            lines.append(",".join(repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def sidecar(self) -> dict:
        return {
            "scenario": self.metadata["scenario"],
            "version": self.metadata["version"],
            "seed": self.metadata["seed"],
            "config_hash": self.metadata["config_hash"],
            "params": self.metadata["params"],
            "assertions": [
                {"name": a.name, "pass": a.passed, "value": a.value,
                 "tolerance": a.tolerance}
                for a in self.assertions
            ],
        }

    def sidecar_json(self) -> str:
        return json.dumps(self.sidecar(), sort_keys=True, indent=2) + "\n"

    def to_json(self) -> str:
        payload = self.sidecar()
        payload["columns"] = [{"name": n, "unit": u} for n, u in self.columns]
        payload["rows"] = [[float(v) for v in row] for row in self.rows]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _near(name: str, value: float, tolerance: float) -> Assertion:
    return Assertion(name, bool(abs(value) <= tolerance), float(value), float(tolerance))


def _above(name: str, value: float, floor: float) -> Assertion:
    return Assertion(name, bool(value > floor), float(value), float(floor))


def _flag(name: str, ok: bool) -> Assertion:
    return Assertion(name, bool(ok), 1.0 if ok else 0.0, 0.0)


# ---------------------------------------------------------------------------
# scenario implementations

# trials stacked into one computation: a block's arrays stay far below 1 MiB
TRIAL_BLOCK = 256


def _blocks(n: int) -> list[range]:
    """range(n) cut into consecutive blocks of at most TRIAL_BLOCK."""
    return [range(a, min(a + TRIAL_BLOCK, n)) for a in range(0, n, TRIAL_BLOCK)]


def _require(params: dict, *limits: tuple[str, bool, str]):
    """RangeError ``params.<field>: <value> <why>`` for the first (field, holds, why) that fails."""
    for name, holds, why in limits:
        if not holds:
            raise RangeError([f"params.{name}: {params[name]} {why}"])


def _finite_box(params: dict) -> tuple[str, bool, str]:
    """The limit on box_length^2, which bounds the squared distances of a packet centred
    in the box and, for any width below box_length / 10, 2 * width^2."""
    box = params["box_length"]
    return "box_length", np.isfinite(box * box), "overflows box_length^2"


def _run_stern_gerlach(params: dict, seed: int) -> tuple[list, list, list]:
    n_thetas = params["theta_steps"]
    thetas = np.linspace(0.0, np.pi, n_thetas)
    plus_z = basis_state(2, 0)
    minus_z = basis_state(2, 1)
    beam_plus = basis_state(2, 0)
    beam_minus = basis_state(2, 1)

    rho1 = DensityOperator.maximally_mixed(2)
    branch_plus = tensor_product(plus_z.to_density(), beam_plus.to_density())
    branch_minus = tensor_product(minus_z.to_density(), beam_minus.to_density())
    rho2 = DensityOperator(0.5 * branch_plus.matrix + 0.5 * branch_minus.matrix)

    spin_marginal = partial_trace(rho2, [2, 2], keep={0})
    marginal_err = float(np.max(np.abs(spin_marginal.matrix - rho1.matrix)))

    # conditionalize on the kept (+) beam: the entangled mixture collapses to
    # a pure product state, no interference terms survive
    keep_beam = np.kron(np.eye(2), beam_plus.to_density().matrix)
    conditioned = keep_beam @ rho2.matrix @ keep_beam
    conditioned = conditioned / np.trace(conditioned)
    rho3 = DensityOperator(conditioned)
    purity_err = abs(rho3.purity() - 1.0)
    spin3 = partial_trace(rho3, [2, 2], keep={0})
    spin_state = PureState(np.linalg.eigh(spin3.matrix)[1][:, -1])

    obs_z = spectral_decompose(SIGMA_Z)
    split_model = build_measurement_unitary(obs_z)
    plus, minus = obs_z.outcome_index(1.0), obs_z.outcome_index(-1.0)

    rows = []
    worst = 0.0
    for block in _blocks(n_thetas):
        theta = thetas[block.start:block.stop]
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        # exp(-i theta sigma_y / 2) for each theta
        rotation = np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), -1, 0)
        rotated = _unit_rows(rotation @ spin_state.amplitudes)
        probs = _modeled_weights(split_model.isometry, rotated)
        expected = np.cos(theta / 2) ** 2
        err = np.abs(probs[:, plus] - expected)
        worst = max(worst, float(np.max(err)))
        rows += zip(theta.tolist(), probs[:, plus].tolist(), probs[:, minus].tolist(),
                    expected.tolist(), err.tolist())

    columns = [("theta", "rad"), ("pr_plus", ""), ("pr_minus", ""),
               ("expected_plus", ""), ("abs_error", "")]
    assertions = [
        _near("beam_split_preserves_spin_marginal", marginal_err, 1e-12),
        _near("conditioned_state_is_pure", purity_err, 1e-12),
        _near("final_probabilities_match_squared_amplitudes", worst, 1e-9),
        _flag("conditioned_spin_is_plus_z",
              abs(spin_state.overlap(plus_z) - 1.0) < 1e-12),
    ]
    return columns, rows, assertions


def _run_repeated_measurement(params: dict, seed: int) -> tuple[list, list, list]:
    rng = np.random.default_rng(seed)
    obs_z = spectral_decompose(SIGMA_Z)
    plus_x = PureState([1.0, 1.0])
    minus_x = PureState([1.0, -1.0])
    plus_z = basis_state(2, 0)

    nondisturbing = build_measurement_unitary(obs_z)
    absorbing = build_measurement_unitary(obs_z, post_states=[plus_z, plus_z])
    disturbing = build_measurement_unitary(obs_z, post_states=[plus_x, minus_x])

    joint_nd = repeated_measurement_joint(plus_x, nondisturbing)
    offdiag = sum(p for (i, j), p in joint_nd.as_dict().items() if i != j)

    joint_abs = repeated_measurement_joint(plus_x, absorbing)
    second_plus = sum(p for (i, j), p in joint_abs.as_dict().items() if j == 1.0)

    joint_dist = repeated_measurement_joint(plus_x, disturbing)
    collapse_joint = collapse_rule_joint(plus_x, obs_z)
    tv = total_variation(joint_dist, collapse_joint)

    # random (observable, state, disturbance) triples, drawn a block at a time: the
    # block's dimensions, then per dimension its h parts and its state draws.  The
    # stream depends on no verdict; one stacked eigh per dimension judges the block,
    # and a degenerate h is checked as any observable and skipped.
    worst_equiv = 0.0
    for block in _blocks(params["n_random"]):
        dims = rng.integers(2, 5, size=len(block))
        for dim in range(2, 5):
            m = np.count_nonzero(dims == dim)
            parts = rng.standard_normal((m, 2, dim, dim))
            draws = rng.standard_normal((m, dim + 1, 2, dim))
            h = parts[:, 0] + 1j * parts[:, 1]
            h = h + h.conj().transpose(0, 2, 1)
            evals, evecs = np.linalg.eigh(h)
            degenerate = _degenerate_spectra(evals)
            for skipped in h[degenerate]:
                spectral_decompose(LinearOperator(skipped))
            kept = ~degenerate
            if kept.any():
                worst_equiv = max(worst_equiv, _modeled_born_worst_tv(
                    h[kept], evals[kept], evecs[kept], draws[kept]))

    rows = []
    for code, joint in ((0.0, joint_nd), (1.0, joint_abs), (2.0, joint_dist)):
        for (i, j), p in joint.as_dict().items():
            rows.append((code, float(i), float(j), float(p)))

    columns = [("model", "0=plain 1=absorbing 2=disturbing"),
               ("first_outcome", ""), ("second_outcome", ""), ("probability", "")]
    assertions = [
        _near("nondisturbing_offdiagonal_mass", offdiag, 1e-10),
        _near("absorbing_second_readout_certain", second_plus - 1.0, 1e-10),
        _near("disturbing_tv_from_collapse_rule", tv - 0.5, 1e-9),
        _near("modeled_equals_born_worst_tv", worst_equiv, 1e-10),
    ]
    return columns, rows, assertions


def _modeled_born_worst_tv(h, evals, evecs, draws) -> float:
    """The worst TV between modeled pointer statistics and the Born rule over m trials.

    ``h`` stacks m Hermitian (n, n) matrices, ``evals`` and ``evecs`` their
    ``eigh`` output, and ``draws`` (m, n + 1, 2, n) the normal draws (real,
    then imaginary) of each trial's state and n post-measurement states.
    The trials go through the stacked forms of spectral_decompose, PureState,
    build_measurement_unitary, modeled_single_measurement and born_distribution.
    """
    m, n = evals.shape
    unit = [slice(j, j + 1) for j in range(n)]
    _check_spectra(h, evals, evecs, unit)
    amplitudes = _unit_rows((draws[:, :, 0] + 1j * draws[:, :, 1]).reshape(-1, n))
    psi, post = amplitudes[::n + 1], amplitudes.reshape(m, n + 1, n)[:, 1:]
    modeled = _modeled_weights(_checked_isometries(evecs, post), psi)
    # V^dag psi per trial, as a dense basis applies its adjoint
    born = _normalized(_born_weights((psi.conj()[:, None, :] @ evecs)[:, 0].conj(), unit))
    return float(np.max(0.5 * np.sum(np.abs(modeled - born), axis=1)))


def _run_zeno_decay(params: dict, seed: int) -> tuple[list, list, list]:
    tau = params["tau"]
    horizon = params["horizon_over_tau"] * tau
    # DecayModel's t0 and recurrence window T_valid, checked against the law's last
    # time and each sweep's n_cycles * delta before any solve
    bandwidth, n_modes = params["bandwidth"], params["n_modes"]
    t0, t_valid = 2 * np.pi / bandwidth, 2 * np.pi / (bandwidth / n_modes)
    deltas = [tau / 4, tau / 16, tau / 64, t0 / 10, t0 / 50]
    longest = max([3 * tau] + [np.floor(horizon / d + 1e-12) * d for d in deltas])
    _require(params,  # the last survival time and the horizon, then the window
             ("tau", np.isfinite(max(3 * tau, horizon)),
              "overflows the longest time max(3, horizon_over_tau) * tau"),
             ("bandwidth", longest <= t_valid / 3,
              f"puts time {longest:.4g} past the recurrence-safe window "
              f"2 pi n_modes / (3 bandwidth) = {t_valid / 3:.4g}"))
    model = build_decay_model(tau, n_modes, bandwidth)

    rows = []
    survivals = []
    for delta in deltas:
        n_cycles = int(np.floor(horizon / delta + 1e-12))
        s = iterated_projection_survival(model, delta, horizon)
        survivals.append(s)
        rows.append((float(delta), float(n_cycles), float(s)))

    monotone = all(b >= a - 1e-12 for a, b in zip(survivals, survivals[1:]))

    ts = np.linspace(0.2 * tau, 3 * tau, 141)
    survival = [survival_probability(model, t) for t in ts]
    rel_errs = [abs(s - np.exp(-t / tau)) / np.exp(-t / tau) for s, t in zip(survival, ts)]
    slope = float(np.polyfit(ts, np.log(survival), 1)[0])

    columns = [("delta", "s"), ("n_cycles", ""), ("survival", "")]
    assertions = [
        _flag("survival_monotone_along_sweep", monotone),
        _above("frozen_survival_at_finest_delta", survivals[-1], 0.9),
        _near("exponential_law_max_rel_error", max(rel_errs), 0.03),
        _near("log_survival_slope_rel_error", slope * tau + 1.0, 0.03),
    ]
    return columns, rows, assertions


def _run_zeno_rabi(params: dict, seed: int) -> tuple[list, list, list]:
    theta = params["theta"]
    ns = np.arange(1, params["n_max"] + 1)
    # rabi_zeno's kernel on every count at once: bench/layers.py counts a rabi_zeno
    # call's cycles as int(n_projections), which an array of counts would fail
    simulated = _rabi_survivals(theta, ns)
    # libm's pow per count, as rabi_zeno: numpy's array power can differ in the last bit
    closed = np.array([c ** (2 * n) for c, n in zip(np.cos(theta / (2 * ns)).tolist(), ns.tolist())])
    errs = np.abs(simulated - closed)
    rows = list(zip(ns.astype(float).tolist(), simulated.tolist(), closed.tolist(), errs.tolist()))
    monotone = bool(np.all(simulated[2:] >= simulated[1:-1] - 1e-12))  # from N = 2 on
    columns = [("n_projections", ""), ("survival", ""), ("closed_form", ""),
               ("abs_error", "")]
    assertions = [
        _near("simulated_matches_closed_form", float(np.max(errs, initial=0.0)), 1e-9),
        _flag("survival_monotone_for_n_at_least_2", monotone),
    ]
    if abs(theta - np.pi) < 1e-12:
        assertions.append(_near("single_projection_full_flip", float(simulated[0]), 1e-30))
    return columns, rows, assertions


def _grid(params: dict) -> GridSpace:
    """The scenario's grid; RangeError naming n_points when it is odd."""
    _require(params, ("n_points", params["n_points"] % 2 == 0, "must be even"))
    return GridSpace(params["n_points"], params["box_length"])


def _run_wavepacket_spread(params: dict, seed: int) -> tuple[list, list, list]:
    g = _grid(params)
    width = params["width"]
    mass = params["mass"]
    _check_width(g, width)  # before the horizon is scaled by it
    horizon = float(np.sqrt((g.box_length / 4 / width) ** 2 - 1.0))  # until width box_length/4
    natural = mass * (width * width)  # inf, not OverflowError
    _require(params, ("mass", np.isfinite(horizon * natural),
                      f"overflows the last time {horizon:.4g} * mass * width^2"),
             _finite_box(params))
    H = free_hamiltonian(g, mass)
    psi0 = gaussian_packet(g, 0.0, 0.0, width)

    t_max = natural * horizon
    times = np.linspace(0.0, t_max, params["n_times"])
    fourier = _FourierBasis(g.n_points)
    momentum = fourier.apply_adjoint(psi0.amplitudes)
    fourier_unitarity = _transform_defect(fourier, psi0.amplitudes, momentum)

    rows = []
    worst = 0.0
    worst_norm = 0.0
    block = max(1, EVOLVE_BLOCK // g.n_points)  # times per stacked evolution
    for lo in range(0, times.size, block):
        block_times = times[lo:lo + block]
        # the raw kernel output, a column per time: a PureState would renormalize the drift away
        evolved = H.evolve_amplitudes(psi0.amplitudes, block_times)
        fourier_unitarity = max(fourier_unitarity, _transform_defect(
            fourier, evolved, fourier.apply_adjoint(evolved)))
        for t, amplitudes in zip(block_times, evolved.T):
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(amplitudes)) - 1.0))
            psi_t = PureState(amplitudes)
            w_num = packet_width(g, psi_t)
            w_ref = width * np.sqrt(1.0 + (t / natural) ** 2)
            rel = abs(w_num - w_ref) / w_ref
            worst = max(worst, rel)
            rows.append((float(t), float(w_num), float(w_ref), float(rel)))

    x = g.positions
    k = g.wavenumbers
    px = np.abs(psi0.amplitudes) ** 2
    sx = np.sqrt(float(np.sum(px * x ** 2) - np.sum(px * x) ** 2))
    pk = np.abs(momentum) ** 2
    sk = np.sqrt(float(np.sum(pk * k ** 2) - np.sum(pk * k) ** 2))
    mean_p = float(np.sum(pk * k))

    columns = [("t", "s"), ("width_numeric", "length"), ("width_predicted", "length"),
               ("rel_error", "")]
    assertions = [
        _near("spreading_law_max_rel_error", worst, 0.02),
        _near("norm_preservation", worst_norm, 1e-10),
        _near("uncertainty_product_minus_half", sx * sk - 0.5, 0.01),
        _near("fourier_map_unitarity", fourier_unitarity, 1e-10),
        _near("mean_momentum_at_rest", mean_p, 1e-10),
    ]
    return columns, rows, assertions


EVOLVE_BLOCK = 8192  # entries, 128 KiB of complex: the same memory at any n_times


def _transform_defect(fourier: _FourierBasis, amplitudes, momentum) -> float:
    """max of |F^dag F v - v| and | ||Fv|| - ||v|| | over the columns v of ``amplitudes``.

    ``momentum`` is Fv, the transform the scenario reads.  The round trip
    misses a map scaled by c whose inverse is scaled by 1/c; Parseval's
    identity does not.
    """
    round_trip = np.max(np.abs(fourier.apply(momentum) - amplitudes))
    parseval = np.max(np.abs(np.linalg.norm(momentum, axis=0) - np.linalg.norm(amplitudes, axis=0)))
    return float(max(round_trip, parseval))


def _run_delocalization(params: dict, seed: int) -> tuple[list, list, list]:
    g = _grid(params)
    width = params["width"]
    mass = params["mass"]
    _check_width(g, width)  # before the window and the times are scaled by it
    half = int(round(params["support_halfwidth"] * width / g.dx))
    center = g.n_points // 2
    window = (center - half, center + half + 1)
    barrier_lo = window[1] + 2
    barrier_window = (barrier_lo, barrier_lo + max(2, int(round(width / g.dx))))
    natural = mass * (width * width)
    phase = 0.05 * natural * params["barrier_height"]
    _require(params,
             ("support_halfwidth", barrier_window[1] <= g.n_points,
              f"widths of support plus the barrier beside it need {barrier_window[1]} of "
              f"{g.n_points} grid points"),
             ("mass", np.isfinite(natural), "overflows mass * width^2"),
             ("barrier_height", phase <= BARRIER_PHASE_CAP,
              f"puts the barrier phase 0.05 * mass * width^2 * barrier_height = {phase:.4g} rad "
              f"above {BARRIER_PHASE_CAP:.0e}"),
             _finite_box(params))
    psi0 = truncated_gaussian_packet(g, g.positions[center], 0.0, width, window)
    H = free_hamiltonian(g, mass)

    zero_leak = delocalization_demo(g, H, psi0, window, 0.0)
    rows = []
    min_outside = np.inf
    for exponent in range(-1, params["min_exponent"] - 1, -1):
        eps = (10.0 ** exponent) * natural
        outside = delocalization_demo(g, H, psi0, window, eps)
        min_outside = min(min_outside, outside)
        rows.append((float(eps), float(outside)))

    report = ee_link_status(psi0, region_projector(g, (center - 2, center + 3)))
    momentum_amps = np.abs(_FourierBasis(g.n_points).apply_adjoint(psi0.amplitudes))
    min_momentum = float(momentum_amps.min())

    Hb = barrier_hamiltonian(g, mass, params["barrier_height"], barrier_window)
    psi_b = Hb.evolve(psi0, 0.05 * natural)
    beyond = float(np.sum(np.abs(psi_b.amplitudes[barrier_window[1]:]) ** 2))

    columns = [("epsilon", "s"), ("outside_probability", "")]
    assertions = [
        _near("no_leak_at_zero_time", zero_leak, 0.0),
        _above("instant_leak_exceeds_floor", min_outside, 1e-12),
        _above("momentum_support_everywhere_positive", min_momentum, 1e-300),
        _flag("narrow_region_value_indefinite", not report.is_definite),
        _above("finite_barrier_leaks", beyond, 0.0),
    ]
    return columns, rows, assertions


BARRIER_PHASE_CAP = 1e4  # rad; the barrier's Chebyshev order grows with it


def _two_slit_grid(params: dict):
    g = _grid(params)
    a = params["separation"]
    v = params["boost"]
    w = params["packet_width"]
    left = gaussian_packet(g, -a, +v, w)
    right = gaussian_packet(g, +a, -v, w)
    psi0 = PureState(left.amplitudes + right.amplitudes)
    # position cells are index sets: slices of the grid's point indices
    points = np.arange(g.n_points)
    half = g.n_points // 2
    slit_family = [points[:half], points[half:]]
    per = g.n_points // params["n_cells"]
    screen_family = [points[c * per:(c + 1) * per] for c in range(params["n_cells"])]
    return g, psi0, slit_family, screen_family


def _block_weight(cell: np.ndarray, amplitudes: np.ndarray) -> float:
    """<psi|P|psi> = ||psi[cell]||^2 for P the projector onto an index set."""
    coeffs = amplitudes[cell]
    return float(np.real(np.vdot(coeffs, coeffs)))


def _run_two_slit(params: dict, seed: int) -> tuple[list, list, list]:
    half_box = params["box_length"] / 2
    top_energy = (np.pi * params["n_points"] / params["box_length"]) ** 2 / (2 * params["mass"])
    _require(params,
             ("n_cells", params["n_points"] % params["n_cells"] == 0,
              f"must divide n_points={params['n_points']}"),
             ("separation", params["separation"] <= half_box,
              f"must not exceed box_length/2={half_box}"),
             ("packet_width", np.isfinite(2 * params["packet_width"] * params["packet_width"]),
              "overflows 2 * packet_width^2"),
             ("boost", np.isfinite(params["boost"] * half_box), "overflows boost * box_length/2"),
             ("screen_time", np.isfinite(top_energy * params["screen_time"]),
              f"overflows the phase of the top kinetic energy (pi/dx)^2/2m = {top_energy:.4g}"))
    g, psi0, slit_family, screen_family = _two_slit_grid(params)
    H = free_hamiltonian(g, params["mass"])
    t2 = params["screen_time"]
    eps = params["eps"]
    n_cells = params["n_cells"]

    hs = HistorySet(H, psi0, times=[0.0, t2],
                    families=[slit_family, screen_family])
    D = decoherence_functional(hs)
    _, ratio = is_consistent(D, eps)

    diag = {h: p for h, p in zip(D.histories, np.real(np.diagonal(D.matrix)))}
    psi_t = H.evolve(psi0, t2)
    p_joint = [_block_weight(cell, psi_t.amplitudes) for cell in screen_family]
    rows = []
    max_interf = 0.0
    for c in range(n_cells):
        p1 = diag[(0, c)]
        p2 = diag[(1, c)]
        interf = p_joint[c] - p1 - p2
        max_interf = max(max_interf, abs(interf))
        rows.append((float(c), float(p1), float(p2), float(p_joint[c]), float(interf)))

    # which-way variant: a two-level tag records the slit at preparation
    # amplitude of (x, slit s) at index 2x + s
    tagged = np.zeros((g.n_points, 2), dtype=complex)
    for s, cell in enumerate(slit_family):
        tagged[cell, s] = psi0.amplitudes[cell]
    psi_tagged = PureState(tagged.ravel())
    # the tag does not move: H (x) I2, each level doubled
    H_tagged = free_hamiltonian(g, params["mass"], tags=2)
    slit_tagged = [(2 * cell[:, None] + np.arange(2)).ravel() for cell in slit_family]
    screen_tagged = [(2 * cell[:, None] + np.arange(2)).ravel() for cell in screen_family]
    hs_tagged = HistorySet(H_tagged, psi_tagged, times=[0.0, t2],
                           families=[slit_tagged, screen_tagged])
    D_tagged = decoherence_functional(hs_tagged)
    consistent_tagged, ratio_tagged = is_consistent(D_tagged, eps)

    # a failed consistency check leaves the additivity claims maximally wrong
    additivity_err = 1.0
    marginal_err = 1.0
    if consistent_tagged:
        additivity_err = 0.0
        marginal_err = 0.0
        probs = history_probabilities(D_tagged, eps).as_dict()
        merged = coarse_grain(D_tagged, [[(0, c), (1, c)] for c in range(n_cells)])
        blocks = np.real(np.diagonal(merged.matrix))
        psi_tag_t = H_tagged.evolve(psi_tagged, t2)
        for c, block in enumerate(blocks):
            summed = probs[(0, c)] + probs[(1, c)]
            additivity_err = max(additivity_err, abs(block - summed))
            screen_prob = _block_weight(screen_tagged[c], psi_tag_t.amplitudes)
            marginal_err = max(marginal_err, abs(block - screen_prob))

    columns = [("cell", ""), ("p_slit1", ""), ("p_slit2", ""), ("p_joint", ""),
               ("interference", "")]
    assertions = [
        _above("interference_term_visible", max_interf, 0.05),
        _above("bare_family_inconsistent", ratio, 0.1),
        _near("tagged_family_offdiagonal_ratio", ratio_tagged, eps),
        _near("tagged_coarse_graining_additive", additivity_err, 2 * eps),
        _near("tagged_marginal_matches_screen", marginal_err, 2 * eps),
    ]
    return columns, rows, assertions


def _run_phase_space_povm(params: dict, seed: int) -> tuple[list, list, list]:
    g = _grid(params)
    half_box = g.box_length / 2
    _require(params,
             ("probe_p_index", params["probe_p_index"] < g.n_points,
              f"must be below n_points={g.n_points}"),
             ("probe_q_index", params["probe_q_index"] < g.n_points,
              f"must be below n_points={g.n_points}"),
             ("state_x0", abs(params["state_x0"]) <= half_box,
              f"lies outside the box [-{half_box}, {half_box}]"),
             _finite_box(params),
             ("state_k0", np.isfinite(params["state_k0"] * half_box),
              "overflows the phase state_k0 * box_length/2"))
    povm = build_phase_space_povm(g, params["packet_width"])
    deficit = povm.completeness_deficit()

    state = gaussian_packet(g, params["state_x0"], params["state_k0"],
                            params["state_width"])
    dist = povm_distribution(state, povm)
    n = g.n_points
    grid2d = np.asarray(dist.probabilities).reshape(n, n)
    marginal_q = grid2d.sum(axis=0)

    sharp = np.abs(state.amplitudes) ** 2
    blur = np.abs(gaussian_packet(g, 0.0, 0.0, params["packet_width"]).amplitudes) ** 2
    # oracle, one circulant product: convolved[b] = sum_j blur[j - b + n/2 mod n] sharp[j]
    shifts = (np.arange(n) - np.arange(n)[:, None] + n // 2) % n
    convolved = blur[shifts] @ sharp
    tv_exact = 0.5 * float(np.sum(np.abs(marginal_q - convolved)))
    tv_sharp = 0.5 * float(np.sum(np.abs(marginal_q - sharp)))

    x = g.positions
    var_sharp = float(np.sum(sharp * x ** 2) - np.sum(sharp * x) ** 2)
    var_marg = float(np.sum(marginal_q * x ** 2) - np.sum(marginal_q * x) ** 2)

    a0, b0 = params["probe_p_index"], params["probe_q_index"]
    probe = povm.effect(list(povm.labels).index((a0, b0))).matrix
    # rank one, w |phi><phi|: column j is w phi conj(phi_j), largest where the diagonal peaks
    probe_state = PureState(probe[:, int(np.argmax(np.real(np.diagonal(probe))))])
    probe_dist = povm_distribution(probe_state, povm)
    peak = probe_dist.outcomes[int(np.argmax(probe_dist.probabilities))]

    rows = [(float(b), float(marginal_q[b]), float(convolved[b]),
             float(abs(marginal_q[b] - convolved[b]))) for b in range(n)]
    columns = [("q_index", ""), ("position_marginal", ""),
               ("smeared_sharp_marginal", ""), ("abs_diff", "")]
    assertions = [
        _near("completeness_deficit", deficit, 1e-6),
        _near("marginal_equals_smeared_sharp", tv_exact, 1e-10),
        _near("marginal_close_to_sharp_for_narrow_packet", tv_sharp, 0.05),
        _above("smearing_never_narrows", var_marg - var_sharp, -1e-9),
        _flag("displaced_packet_peaks_at_own_cell", peak == (a0, b0)),
    ]
    return columns, rows, assertions


def _run_fuzzy_povm(params: dict, seed: int) -> tuple[list, list, list]:
    rng = np.random.default_rng(seed)
    eps = params["confusion"]
    obs = spectral_decompose(SIGMA_Z)

    sharp_povm = build_fuzzy_povm(obs, np.eye(2))
    fuzzy = build_fuzzy_povm(obs, [[1 - eps, eps], [eps, 1 - eps]])
    uniform = build_fuzzy_povm(obs, np.full((2, 2), 0.5))

    worst_sharp = 0.0
    worst_conv = 0.0
    worst_uniform = 0.0
    rows = []
    for block in _blocks(params["n_random"]):
        # each state's real then imaginary draws, in the seed's order
        draws = rng.standard_normal((len(block), 2, 2))
        psi = _unit_rows(draws[:, 0] + 1j * draws[:, 1])
        born = _normalized(obs._weights(psi))
        sharp_p, fuzzy_p, uniform_p = (_povm_weights(povm, psi)
                                       for povm in (sharp_povm, fuzzy, uniform))
        worst_sharp = max(worst_sharp, float(np.max(np.abs(sharp_p - born))))
        p_minus, p_plus = born.T
        expected = np.stack([(1 - eps) * p_minus + eps * p_plus,
                             eps * p_minus + (1 - eps) * p_plus], axis=1)
        worst_conv = max(worst_conv, float(np.max(np.abs(fuzzy_p - expected))))
        worst_uniform = max(worst_uniform, float(np.max(np.abs(uniform_p - 0.5))))
        rows += zip(map(float, block), p_plus.tolist(), fuzzy_p[:, 1].tolist(),
                    expected[:, 1].tolist())

    columns = [("state_index", ""), ("sharp_plus", ""), ("fuzzy_plus", ""),
               ("convolved_plus", "")]
    assertions = [
        _near("delta_smearing_recovers_sharp", worst_sharp, 1e-12),
        _near("confusion_matrix_convolution", worst_conv, 1e-12),
        _near("uniform_smearing_is_flat", worst_uniform, 1e-12),
    ]
    return columns, rows, assertions


def _run_hegerfeldt_scan(params: dict, seed: int) -> tuple[list, list, list]:
    rng = np.random.default_rng(seed)
    dim = params["dim"]
    rank = params["rank"]
    # the commuting projector would be the identity, with no kernel
    _require(params, ("rank", rank < dim, f"must be below dim {dim}"))
    times = np.linspace(0.0, params["t_max"], params["n_times"])

    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = Hamiltonian(LinearOperator(h + h.conj().T))
    evals, evecs = H.eigensystem()
    last_phase = params["t_max"] * float(np.max(np.abs(evals)))  # the last phase E t
    _require(params, ("t_max", np.isfinite(last_phase), "overflows the phases E t"))
    q, _ = np.linalg.qr(rng.standard_normal((dim, rank))
                        + 1j * rng.standard_normal((dim, rank)))
    proj = LinearOperator(q @ q.conj().T)
    psi0 = PureState(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))

    # projector commuting with H, initial state in its kernel
    proj_comm = LinearOperator(evecs[:, :rank] @ evecs[:, :rank].conj().T)
    psi_kernel = PureState(evecs[:, -1])
    psi_comm = PureState(evecs @ rng.standard_normal(dim))

    # two-level rotation dips to zero at isolated instants
    H2 = Hamiltonian(LinearOperator([[0, 0.5], [0.5, 0]]))
    proj2 = LinearOperator(np.diag([0.0, 1.0]).astype(complex))
    rabi_times = np.linspace(0.0, 8 * np.pi, params["n_times"])
    rabi_scan = indefiniteness_scan(H2, basis_state(2, 0), proj2, rabi_times)

    # structural checks
    obs_fn_of_h = spectral_decompose(LinearOperator(
        evecs @ np.diag(np.sign(evals) + 2.0) @ evecs.conj().T))
    invariant_fn = invariant_subspace_check(H, obs_fn_of_h)
    invariant_x = invariant_subspace_check(Hamiltonian(SIGMA_Z),
                                           spectral_decompose(SIGMA_X))

    # no invariant eigenspace -> every outcome stays open almost always
    obs_generic = spectral_decompose(proj)
    invariant_generic = invariant_subspace_check(H, obs_generic)
    pairs = [(psi0, proj), (psi_kernel, proj_comm), (psi_comm, proj_comm)]
    if not any(invariant_generic):
        outcomes = [obs_generic.projector(i) for i in range(obs_generic.n_outcomes)]
        for re, im in rng.standard_normal((5, 2, dim)):
            pairs += [(PureState(re + 1j * im), outcome) for outcome in outcomes]
    # every scan on H in one call: each block of times has its phases computed once
    generic, kernel_scan, comm_series, *open_scans = indefiniteness_scan(H, *zip(*pairs), times)
    comm_drift = float(np.max(np.abs(comm_series.series - comm_series.series[0])))
    positive_fraction = min((float(np.mean(scan.series > scan.threshold)) for scan in open_scans),
                            default=1.0)

    rows = list(zip(times.tolist(), generic.series.tolist()))
    columns = [("t", "s"), ("projector_expectation", "")]
    assertions = [
        _flag("generic_scan_never_zero", generic.classification == "never-zero"),
        _flag("kernel_scan_identically_zero",
              kernel_scan.classification == "identically-zero"),
        _near("commuting_projector_expectation_constant", comm_drift, 1e-10),
        _flag("rotation_scan_isolated_zeros",
              rabi_scan.classification == "isolated-zeros"),
        _flag("function_of_h_eigenspaces_invariant", all(invariant_fn)),
        _flag("noncommuting_eigenspaces_not_invariant", not any(invariant_x)),
        _above("no_invariant_eigenspace_positive_fraction", positive_fraction, 0.99),
    ]
    return columns, rows, assertions


# ---------------------------------------------------------------------------
# registry, validation, dispatch


@dataclass(frozen=True)
class ScenarioSpec:
    doc: str
    params: dict[str, ParamSpec]
    runner: Callable


SCENARIOS: dict[str, ScenarioSpec] = {
    "stern_gerlach": ScenarioSpec(
        "Beam split, conditioning on the kept beam, spin rotation, final split",
        {
            "theta_steps": ParamSpec(7, int, "number of rotation angles in [0, pi]",
                                     low=2, high=10001),
        },
        _run_stern_gerlach),
    "repeated_measurement": ScenarioSpec(
        "Two successive modeled measurements vs the collapse-rule prediction",
        {
            "n_random": ParamSpec(100, int,
                                  "random (state, observable, disturbance) triples",
                                  low=1, high=100000),
        },
        _run_repeated_measurement),
    "zeno_decay": ScenarioSpec(
        "Quasi-continuum decay law and survival under iterated projection",
        {
            "tau": ParamSpec(1.0, float, "decay time", unit="s", low=1e-6),
            "bandwidth": ParamSpec(40.0, float, "quasi-continuum band width",
                                   unit="1/s", low=1e-6),
            "n_modes": ParamSpec(400, int, "number of band modes", low=200,
                                 high=20000),
            # the longest projection interval is tau/4: a shorter horizon holds no cycle
            "horizon_over_tau": ParamSpec(1.0, float,
                                          "projection horizon in units of tau",
                                          low=0.25, high=10.0),
        },
        _run_zeno_decay),
    "zeno_rabi": ScenarioSpec(
        "Two-level rotation interrupted by 1..N projections",
        {
            "theta": ParamSpec(float(np.pi), float, "total rotation angle",
                               unit="rad", low=1e-9, high=2 * float(np.pi)),
            "n_max": ParamSpec(10, int, "largest projection count", low=1,
                               high=4096),
        },
        _run_zeno_rabi),
    "wavepacket_spread": ScenarioSpec(
        "Free Gaussian spreading vs the analytic width law; Fourier kinematics",
        {
            "n_points": ParamSpec(1024, int, "grid points", low=8, high=4096),
            "box_length": ParamSpec(120.0, float, "periodic box length",
                                    unit="length", low=1e-3),
            "width": ParamSpec(1.0, float, "initial packet width", unit="length",
                               low=1e-6),
            "mass": ParamSpec(1.0, float, "particle mass", low=1e-9),
            "n_times": ParamSpec(12, int, "time samples", low=2, high=1000),
        },
        _run_wavepacket_spread),
    "delocalization": ScenarioSpec(
        "Compact support is destroyed instantly under free or barrier dynamics",
        {
            "n_points": ParamSpec(256, int, "grid points", low=8, high=4096),
            "box_length": ParamSpec(60.0, float, "periodic box length",
                                    unit="length", low=1e-3),
            "width": ParamSpec(1.0, float, "packet width", unit="length", low=1e-6),
            "mass": ParamSpec(1.0, float, "particle mass", low=1e-9),
            "support_halfwidth": ParamSpec(3.0, float,
                                           "support half-width in packet widths",
                                           low=1.0, high=20.0),
            "min_exponent": ParamSpec(-4, int,
                                      "smallest time decade, in units of m*width^2",
                                      low=-8, high=-1),
            "barrier_height": ParamSpec(50.0, float, "finite barrier height",
                                        low=0.0),
        },
        _run_delocalization),
    "two_slit": ScenarioSpec(
        "Interference breaks history additivity; a which-way tag restores it",
        {
            "n_points": ParamSpec(128, int, "grid points", low=16, high=1024),
            "box_length": ParamSpec(32.0, float, "periodic box length",
                                    unit="length", low=1e-3),
            "packet_width": ParamSpec(1.0, float, "slit packet width",
                                      unit="length", low=1e-6),
            "separation": ParamSpec(4.0, float, "slit half-separation",
                                    unit="length", low=0.0),
            "boost": ParamSpec(0.785, float, "packet boost toward the center",
                               unit="1/length"),
            "screen_time": ParamSpec(6.5, float, "propagation time to the screen",
                                     unit="s", low=1e-6),
            "mass": ParamSpec(1.0, float, "particle mass", low=1e-9),
            "n_cells": ParamSpec(16, int, "screen cells", low=2, high=256),
            "eps": ParamSpec(1e-8, float, "consistency threshold", low=0.0,
                             high=1.0),
        },
        _run_two_slit),
    "phase_space_povm": ScenarioSpec(
        "Unsharp joint position/momentum measurement from displaced packets",
        {
            "n_points": ParamSpec(128, int, "grid points", low=8, high=256),
            "box_length": ParamSpec(16.0, float, "periodic box length",
                                    unit="length", low=1e-3),
            "packet_width": ParamSpec(0.5, float, "fiducial packet width",
                                      unit="length", low=1e-6),
            "state_x0": ParamSpec(1.7, float, "probe state position"),
            "state_k0": ParamSpec(0.9, float, "probe state momentum"),
            "state_width": ParamSpec(1.5, float, "probe state width", low=1e-6),
            "probe_p_index": ParamSpec(80, int, "cell used for the peak check",
                                       low=0, high=255),
            "probe_q_index": ParamSpec(40, int, "cell used for the peak check",
                                       low=0, high=255),
        },
        _run_phase_space_povm),
    "fuzzy_povm": ScenarioSpec(
        "Imperfect readout as a smeared projective measurement",
        {
            "confusion": ParamSpec(0.1, float, "misreport probability", low=0.0,
                                   high=0.5),
            "n_random": ParamSpec(50, int, "random probe states", low=1,
                                  high=100000),
        },
        _run_fuzzy_povm),
    "hegerfeldt_scan": ScenarioSpec(
        "Zero-set structure of projector expectations along unitary histories",
        {
            "dim": ParamSpec(8, int, "system dimension", low=2, high=64),
            "rank": ParamSpec(3, int, "projector rank", low=1, high=63),
            "n_times": ParamSpec(1200, int, "time grid size", low=1000,
                                 high=100000),
            "t_max": ParamSpec(60.0, float, "scan horizon", unit="s", low=1e-3),
        },
        _run_hegerfeldt_scan),
}


def validate_config(raw_text: str) -> ScenarioConfig:
    """Parse and range-check a YAML config, reporting every violation at once.

    The document must carry ``scenario`` plus optional ``seed`` and
    ``params``; unknown keys anywhere are rejected.
    """
    try:
        data = yaml.safe_load(raw_text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if data is None:
        raise ParseError("empty configuration")
    if not isinstance(data, dict):
        raise ParseError(f"expected a mapping at top level, got {type(data).__name__}")
    unknown_top = set(data) - {"scenario", "seed", "params"}
    if unknown_top:
        raise ParseError(f"unknown top-level keys: {sorted(unknown_top)}")
    name = data.get("scenario")
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ParseError(
            f"unknown scenario {name!r}; valid names: {sorted(SCENARIOS)}")
    spec = SCENARIOS[name]

    violations: list[str] = []
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        violations.append(f"seed: expected a nonnegative integer, got {seed!r}")
        seed = 0
    raw_params = data.get("params") or {}
    if not isinstance(raw_params, dict):
        raise ParseError("params must be a mapping")
    params = {}
    for key, pspec in spec.params.items():
        if key in raw_params:
            value = pspec.check(raw_params[key], f"params.{key}", violations)
            params[key] = value if value is not None else pspec.default
        else:
            params[key] = pspec.default
    for key in raw_params:
        if key not in spec.params:
            violations.append(f"params.{key}: unknown parameter for {name}")
    if violations:
        raise RangeError(violations)
    return ScenarioConfig(scenario=name, params=params, seed=int(seed))


def run_scenario(cfg: ScenarioConfig) -> ResultTable:
    """Dispatch a validated config to its scenario and collect the results.

    Module errors raised while running propagate with the scenario named in
    the message.
    """
    if cfg.scenario not in SCENARIOS:
        raise ParseError(f"unknown scenario {cfg.scenario!r}")
    spec = SCENARIOS[cfg.scenario]
    try:
        columns, rows, assertions = spec.runner(cfg.params, cfg.seed)
    except RangeError:
        raise
    except SimulationError as exc:
        exc.args = (f"scenario {cfg.scenario!r}: {exc}",)
        raise
    metadata = {
        "scenario": cfg.scenario,
        "version": __version__,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "params": dict(sorted(cfg.params.items())),
    }
    return ResultTable(columns=columns, rows=rows, metadata=metadata,
                       assertions=list(assertions))
