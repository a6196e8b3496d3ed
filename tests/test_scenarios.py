import dataclasses
import json
import re
import runpy
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from qmeasure import (
    SIGMA_Z,
    GridSpace,
    LinearOperator,
    ParseError,
    PureState,
    RangeError,
    SCENARIOS,
    SimulationError,
    born_distribution,
    build_fuzzy_povm,
    build_measurement_unitary,
    free_hamiltonian,
    gaussian_packet,
    packet_width,
    povm_distribution,
    run_scenario,
    spectral_decompose,
    validate_config,
)
from qmeasure.cli import main as cli_main
from qmeasure.scenarios import TRIAL_BLOCK

ROOT = Path(__file__).resolve().parents[1]

# inputs that once ended in a bare ValueError: a horizon shorter than the first
# projection interval tau/4, packets centred far outside the periodic box, and
# an odd grid
INPUT_HOLES = [("zeno_decay", "horizon_over_tau", 0.2),
               ("phase_space_povm", "state_x0", -50.0),
               ("two_slit", "separation", 1e6),
               ("wavepacket_spread", "n_points", 255)]

# delocalization configs that validate field by field but cannot run, and the
# field each RangeError names: a support window wider than the grid, a barrier
# window past its end, an odd grid, a natural time m*width^2 beyond the double
# range, and a barrier phase 0.05*m*width^2*height above its 1e4 rad cap
DELOCALIZATION_HOLES = [({"support_halfwidth": 20.0, "width": 5.0}, "support_halfwidth"),
                        ({"support_halfwidth": 9.0, "width": 3.0}, "support_halfwidth"),
                        ({"n_points": 255}, "n_points"),
                        ({"mass": 1e308, "width": 5.0}, "mass"),
                        ({"mass": 1e4, "barrier_height": 50.0}, "barrier_height")]

# packet configs that once overflowed: positions squared past the double range
# (a NaN initial leak, NaN or infinite widths, an OverflowError from 2 * width^2)
# and a boost k0 whose phase k0 * x is past it; the field each RangeError names
PACKET_OVERFLOW_HOLES = [
    ("delocalization", {"n_points": 128, "box_length": 1.2e155, "width": 1.0e154,
                        "mass": 1.0e-9, "barrier_height": 0.0}, "box_length"),
    ("wavepacket_spread", {"n_points": 128, "box_length": 1.2e155, "width": 1.0e154,
                           "mass": 1.0e-9}, "box_length"),
    ("wavepacket_spread", {"n_points": 4096, "box_length": 5.0e154, "width": 1.0e153,
                           "mass": 1.0e-9}, "box_length"),
    ("phase_space_povm", {"n_points": 64, "box_length": 3.0e155, "packet_width": 1.5e154,
                          "state_width": 1.5e154, "state_x0": 0.0, "probe_p_index": 10,
                          "probe_q_index": 10}, "box_length"),
    ("phase_space_povm", {"state_k0": 1.0e308}, "state_k0")]

# configs that validate field by field but cannot run, and the field each
# RangeError names: a zeno_decay time past the recurrence-safe window (it ended
# in an OutsideValidityWindow naming no field), a hegerfeldt_scan projector of
# rank >= dim, which has no kernel (the run failed kernel_scan_identically_zero),
# a t_max whose phase E t leaves the double range (NaN series), and a
# phase_space_povm probe cell off the grid (the refusal named neither index),
# a packet width outside the band a grid resolves, in phase_space_povm,
# two_slit, delocalization and wavepacket_spread (an UnresolvableWidth that
# named no field, or the field ``width`` that two_slit does not have), and a
# zeno_decay bandwidth * tau below the weak-coupling floor of 20 (an
# InvalidRegime naming no field)
CROSS_FIELD_HOLES = [
    ("zeno_decay", {"n_modes": 200, "bandwidth": 80.0, "horizon_over_tau": 10.0}, "bandwidth"),
    ("hegerfeldt_scan", {"dim": 4, "rank": 5}, "rank"),
    ("hegerfeldt_scan", {"dim": 8, "rank": 8}, "rank"),
    ("hegerfeldt_scan", {"dim": 8, "rank": 3, "t_max": 1.7e308}, "t_max"),
    ("phase_space_povm", {"n_points": 64, "probe_p_index": 10, "probe_q_index": 64},
     "probe_q_index"),
    ("phase_space_povm", {"n_points": 64, "probe_p_index": 64, "probe_q_index": 10},
     "probe_p_index"),
    ("phase_space_povm", {"n_points": 96}, "packet_width"),
    ("phase_space_povm", {"state_width": 2.0}, "state_width"),
    ("two_slit", {"packet_width": 0.1}, "packet_width"),
    ("delocalization", {"width": 0.5}, "width"),
    ("wavepacket_spread", {"width": 20.0}, "width"),
    ("zeno_decay", {"tau": 20.0, "bandwidth": 0.25}, "bandwidth")]

DOUBLE_MAX = float(np.finfo(float).max)
SQUARE_EDGE = st.floats(1e153, 1e156)  # box lengths whose square leaves the double range


@st.composite
def _delocalization_params(draw):
    """delocalization's documented ranges, with n_points capped at 128.

    Each field is drawn from a common range two times in three and from
    the rest of its range otherwise: most grids are even, the width is
    drawn in grid spacings inside the resolvable band (3 dx, box_length /
    10) or across its edges, and mass, box length and barrier height reach
    far up the double range, so configs that run and configs that are
    refused both occur.
    """
    def mostly(common, rare):  # two draws in three from the common range
        return st.one_of(common, common, rare)

    n = draw(mostly(st.integers(16, 64).map(lambda half: 2 * half), st.integers(8, 128)))
    box = draw(mostly(st.floats(1e-3, 100.0), st.floats(1e-3, 1e300)))
    width = max(1e-6, box / n * draw(mostly(st.floats(3.01, max(3.02, n / 10.1)),
                                            st.floats(1.0, 1.0 + n / 8))))
    return {"n_points": n, "box_length": box, "width": width,
            "mass": draw(mostly(st.floats(1e-9, 10.0), st.floats(1e-9, 1e300))),
            "support_halfwidth": draw(mostly(st.floats(1.0, 4.0), st.floats(1.0, 20.0))),
            "min_exponent": draw(st.integers(-8, -1)),
            "barrier_height": draw(mostly(st.floats(0.0, 100.0), st.floats(0.0, 1e300)))}


@st.composite
def _two_slit_params(draw):
    """two_slit's documented ranges, with n_points capped at 128.

    As for delocalization, each field is drawn from a common range two
    times in three and from the rest of its range otherwise: most grids are
    even with a cell count that divides them, the packet width is drawn in
    grid spacings inside the resolvable band (3 dx, box_length / 10) or
    across its edges, and separation, boost, screen time and mass reach far
    up the double range.
    """
    def mostly(common, rare):  # two draws in three from the common range
        return st.one_of(common, common, rare)

    n = draw(mostly(st.integers(8, 64).map(lambda half: 2 * half), st.integers(16, 128)))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    box = draw(mostly(st.floats(1e-3, 100.0), st.floats(1e-3, 1e300)))
    width = max(1e-6, box / n * draw(mostly(st.floats(3.01, max(3.02, n / 10.1)),
                                            st.floats(1.0, 1.0 + n / 8))))
    return {"n_points": n, "box_length": box, "packet_width": width,
            "separation": draw(mostly(st.floats(0.0, box / 2), st.floats(0.0, 1e300))),
            "boost": draw(mostly(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300))),
            "screen_time": draw(mostly(st.floats(1e-6, 20.0), st.floats(1e-6, 1e300))),
            "mass": draw(mostly(st.floats(1e-9, 10.0), st.floats(1e-9, 1e300))),
            "n_cells": draw(mostly(st.sampled_from(divisors), st.integers(2, 256))),
            "eps": draw(st.floats(0.0, 1.0))}


@st.composite
def _wavepacket_params(draw):
    """wavepacket_spread's documented ranges, with n_points capped at 128.

    As for delocalization: the width is drawn in grid spacings inside the
    resolvable band or across its edges, and box length and mass reach the
    top of the double range.  One example in four sits in the overflow
    window instead: an even grid, a box length whose square leaves the
    double range, a width inside its resolvable band (whose square stays
    finite) and a mass of at most 1, so that the natural time m * width^2
    is finite too and the run reaches the positions squared.
    """
    def mostly(common, rare):  # two draws in three from the common range
        return st.one_of(common, common, rare)

    n_times = draw(mostly(st.integers(2, 20), st.integers(2, 1000)))
    if draw(st.integers(0, 3)) == 0:
        n = 2 * draw(st.integers(4, 64))
        box = draw(st.floats(1.4e154, 1.2e155))
        return {"n_points": n, "box_length": box,
                "width": box / n * draw(st.floats(3.01, max(3.02, n / 10.1))),
                "mass": draw(st.floats(1e-9, 1.0)), "n_times": n_times}
    n = draw(mostly(st.integers(4, 64).map(lambda half: 2 * half), st.integers(8, 128)))
    box = draw(mostly(st.floats(1e-3, 100.0), st.floats(1e-3, DOUBLE_MAX) | SQUARE_EDGE))
    width = max(1e-6, box / n * draw(mostly(st.floats(3.01, max(3.02, n / 10.1)),
                                            st.floats(1.0, 1.0 + n / 8))))
    return {"n_points": n, "box_length": box, "width": width,
            "mass": draw(mostly(st.floats(1e-9, 10.0), st.floats(1e-9, DOUBLE_MAX))),
            "n_times": n_times}


@st.composite
def _zeno_decay_params(draw):
    """zeno_decay's documented ranges, the whole n_modes range up to 20,000 included.

    Two draws in three put bandwidth * tau in [20, 500], across the
    weak-coupling floor and the recurrence window's edge, with tau spread
    over twelve decades; the rest draw tau and bandwidth each from its
    whole unbounded range, with one in two from 1e150 to 1e300, where the
    product and the phases E t can leave the double range.
    """
    def mostly(common, rare):  # two draws in three from the common range
        return st.one_of(common, common, rare)

    tau = draw(mostly(st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
                      st.floats(1e-6, DOUBLE_MAX) | st.floats(1e150, 1e300)))
    product = draw(st.floats(20.0, 500.0))
    bandwidth = draw(mostly(st.just(max(1e-6, product / tau)),
                            st.floats(1e-6, DOUBLE_MAX) | st.floats(1e150, 1e300)))
    return {"tau": tau, "bandwidth": bandwidth,
            "n_modes": draw(mostly(st.integers(200, 2000), st.integers(200, 20000))),
            "horizon_over_tau": draw(st.floats(0.25, 10.0))}


SEEDS = st.integers(0, 2 ** 63 - 1)


@st.composite
def _stern_gerlach_config(draw):
    """stern_gerlach's documented range, with theta_steps capped at 2000."""
    return {"scenario": "stern_gerlach", "seed": draw(SEEDS),
            "params": {"theta_steps": draw(st.integers(2, 2000))}}


@st.composite
def _repeated_measurement_config(draw):
    """repeated_measurement's documented range with n_random capped at 300, any seed."""
    return {"scenario": "repeated_measurement", "seed": draw(SEEDS),
            "params": {"n_random": draw(st.integers(1, 300))}}


@st.composite
def _fuzzy_povm_config(draw):
    """fuzzy_povm's whole confusion range [0, 0.5], n_random capped at 300, any seed."""
    return {"scenario": "fuzzy_povm", "seed": draw(SEEDS),
            "params": {"confusion": draw(st.floats(0.0, 0.5)),
                       "n_random": draw(st.integers(1, 300))}}


@st.composite
def _zeno_rabi_config(draw):
    """zeno_rabi's whole documented range; half the draws take theta = pi, a full flip."""
    theta = draw(st.just(float(np.pi)) | st.floats(1e-9, 2 * float(np.pi)))
    return {"scenario": "zeno_rabi", "seed": draw(SEEDS),
            "params": {"theta": theta, "n_max": draw(st.integers(1, 4096))}}


@st.composite
def _hegerfeldt_config(draw):
    """hegerfeldt_scan with dim <= 16 and n_times <= 2000; rank and t_max over their whole ranges.

    Two draws in three take rank below dim and t_max up to 100; the rest
    take rank from 1 to 63 and t_max up to the top of the double range.
    """
    def mostly(common, rare):  # two draws in three from the common range
        return st.one_of(common, common, rare)

    dim = draw(st.integers(2, 16))
    return {"scenario": "hegerfeldt_scan", "seed": draw(SEEDS),
            "params": {"dim": dim,
                       "rank": draw(mostly(st.integers(1, dim - 1), st.integers(1, 63))),
                       "n_times": draw(st.integers(1000, 2000)),
                       "t_max": draw(mostly(st.floats(1e-3, 100.0),
                                            st.floats(1e-3, DOUBLE_MAX)))}}


@st.composite
def _phase_space_params(draw):
    """phase_space_povm's documented ranges, with n_points capped at 64.

    Both widths are drawn in grid spacings inside the resolvable band or
    across its edges, the probe cells mostly on the grid, and box length,
    state position and state momentum reach the ends of the double range;
    box lengths are also drawn where their square leaves it.
    """
    def mostly(common, rare):  # two draws in three from the common range
        return st.one_of(common, common, rare)

    n = draw(mostly(st.integers(4, 32).map(lambda half: 2 * half), st.integers(8, 64)))
    box = draw(mostly(st.floats(1e-3, 100.0), st.floats(1e-3, DOUBLE_MAX) | SQUARE_EDGE))

    def width():
        return max(1e-6, box / n * draw(mostly(st.floats(3.01, max(3.02, n / 10.1)),
                                               st.floats(1.0, 1.0 + n / 8))))

    return {"n_points": n, "box_length": box, "packet_width": width(), "state_width": width(),
            "state_x0": draw(mostly(st.floats(-box / 2, box / 2),
                                    st.floats(-DOUBLE_MAX, DOUBLE_MAX))),
            "state_k0": draw(mostly(st.floats(-3.0, 3.0), st.floats(-DOUBLE_MAX, DOUBLE_MAX))),
            "probe_p_index": draw(mostly(st.integers(0, n - 1), st.integers(0, 255))),
            "probe_q_index": draw(mostly(st.integers(0, n - 1), st.integers(0, 255)))}


def _run_validated(config: dict):
    """run_scenario on a validated config: its ResultTable, or the SimulationError it raised.

    A RangeError must name exactly one field, and one the scenario declares.
    """
    cfg = validate_config(yaml.safe_dump(config))
    try:
        return run_scenario(cfg)
    except SimulationError as exc:
        if isinstance(exc, RangeError):
            assert len(exc.violations) == 1, exc.violations
            named = re.match(r"params\.(\w+):", exc.violations[0])
            assert named and named[1] in SCENARIOS[cfg.scenario].params, exc.violations
        return exc


def _check_trial_scenario(config: dict):
    """Run one validated config: it runs or raises SimulationError, with finite values.

    The assertions of these scenarios hold for every valid config, so each must also pass.
    """
    result = _run_validated(config)
    if isinstance(result, SimulationError):
        return
    assert len(result.values)
    assert all(np.isfinite(a.value) for a in result.assertions), result.assertions
    assert result.all_passed, result.assertions


class TestValidateConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = validate_config("scenario: zeno_rabi")
        assert cfg.scenario == "zeno_rabi"
        assert cfg.params["n_max"] == 10
        assert cfg.params["theta"] == pytest.approx(np.pi)
        assert cfg.seed == 0

    def test_unknown_scenario_lists_valid_names(self):
        with pytest.raises(ParseError) as err:
            validate_config("scenario: warp_drive")
        assert "zeno_decay" in str(err.value)

    def test_negative_tau_names_field(self):
        with pytest.raises(RangeError) as err:
            validate_config("scenario: zeno_decay\nparams:\n  tau: -1.0")
        assert any("tau" in v for v in err.value.violations)

    @pytest.mark.parametrize("scenario,name,value", [("zeno_decay", "tau", ".nan"),
                                                     ("wavepacket_spread", "box_length", ".inf")])
    def test_non_finite_numbers_rejected(self, scenario, name, value):
        with pytest.raises(RangeError) as err:
            validate_config(f"scenario: {scenario}\nparams:\n  {name}: {value}\n")
        assert err.value.violations == [
            f"params.{name}: expected a finite number, got {value[1:]}"]

    def test_integer_beyond_double_range_rejected(self):
        with pytest.raises(RangeError) as err:
            validate_config("scenario: zeno_decay\nparams:\n  tau: 1" + "0" * 400 + "\n")
        assert err.value.violations == ["params.tau: expected a finite number, got inf"]

    def test_every_violation_reported(self):
        raw = ("scenario: zeno_decay\n"
               "params:\n  tau: -1.0\n  n_modes: 10\n  unknown_knob: 3\n")
        with pytest.raises(RangeError) as err:
            validate_config(raw)
        text = "\n".join(err.value.violations)
        assert "tau" in text and "n_modes" in text and "unknown_knob" in text
        assert len(err.value.violations) == 3

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParseError):
            validate_config("scenario: zeno_rabi\nextra: 1")

    def test_bad_yaml_rejected(self):
        with pytest.raises(ParseError):
            validate_config("scenario: [unterminated")

    def test_type_check(self):
        with pytest.raises(RangeError):
            validate_config("scenario: zeno_rabi\nparams:\n  n_max: 3.5")


# YAML 1.1 corners a C and a pure-Python parser could read differently
YAML_CORNERS = [
    "scenario: zeno_rabi\nseed: 0x1A\nparams:\n  n_max: 0x10\n",
    "scenario: zeno_decay\nparams:\n  tau: .inf\n",
    "scenario: zeno_decay\nparams:\n  tau: -.Inf\n",
    "\ufeffscenario: zeno_rabi\nparams:\n  n_max: 12\n",
    "scenario: zeno_rabi\nseed: yes\nparams:\n  theta: 1e3\n",
    "scenario: zeno_rabi\nparams:\n  n_max: 0o17\n  theta: 1_000.5\n",
]


def _loader_cases():
    """(id, YAML text): the shipped configs, every workload config at seeds 0 and 7, the corners."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    return ([pytest.param(path.read_text(), id=path.name)
             for path in sorted((ROOT / "configs").glob("*.yaml"))]
            + [pytest.param(text, id=f"{name}-{scenario}-seed{seed}") for seed in (0, 7)
               for name in workloads["WORKLOADS"]
               for scenario, text in workloads["config_texts"](name, seed)]
            + [pytest.param(text, id=f"corner{i}") for i, text in enumerate(YAML_CORNERS)])


def _parse_or_error(raw):
    try:
        return repr(validate_config(raw))
    except (ParseError, RangeError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestYamlLoaders:
    """validate_config reads with libyaml's CSafeLoader when PyYAML has it, else SafeLoader."""

    @pytest.fixture(params=["c", "python"])
    def loader(self, request, monkeypatch):
        if request.param == "c":
            if not yaml.__with_libyaml__:
                pytest.skip("PyYAML built without libyaml")
        else:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        return request.param

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("raw", _loader_cases())
    def test_loaders_agree(self, raw, monkeypatch):
        data = yaml.load(raw, Loader=yaml.CSafeLoader)
        assert repr(data) == repr(yaml.load(raw, Loader=yaml.SafeLoader))
        fast = _parse_or_error(raw)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert fast == _parse_or_error(raw)

    def test_corner_values(self, loader):
        assert validate_config(YAML_CORNERS[0]).seed == 26
        assert validate_config(YAML_CORNERS[0]).params["n_max"] == 16
        assert validate_config(YAML_CORNERS[3]).params["n_max"] == 12
        with pytest.raises(RangeError, match="expected a finite number, got inf"):
            validate_config(YAML_CORNERS[1])
        with pytest.raises(RangeError, match="seed: expected a nonnegative integer, got True"):
            validate_config(YAML_CORNERS[4])

    @pytest.mark.parametrize("raw", [
        "scenario: [unterminated",
        "scenario: zeno_rabi\n  params: {",
        "scenario: !!python/object:os.system {}\n",
        "scenario: !!python/object/apply:os.system ['true']\n",
        "scenario: zeno_rabi\nparams: !!python/name:os.system\n",
    ], ids=["unterminated", "bad_indent", "object", "apply", "name"])
    def test_malformed_and_unsafe_raise_parse_error(self, loader, raw):
        with pytest.raises(ParseError, match="invalid YAML"):
            validate_config(raw)


class TestRunScenario:
    def test_every_scenario_has_documented_params(self):
        for name, spec in SCENARIOS.items():
            assert spec.doc
            for pname, p in spec.params.items():
                assert p.doc, f"{name}.{pname} lacks documentation"

    @pytest.mark.parametrize("name", [
        "stern_gerlach", "repeated_measurement", "zeno_rabi", "fuzzy_povm",
        "delocalization", "two_slit", "hegerfeldt_scan", "phase_space_povm",
        "wavepacket_spread",
    ])
    def test_scenarios_pass(self, name):
        start = time.perf_counter()
        table = run_scenario(validate_config(f"scenario: {name}"))
        elapsed = time.perf_counter() - start
        failed = [a.name for a in table.assertions if not a.passed]
        assert not failed, f"{name} failed {failed}"
        assert len(table.values)
        assert elapsed < 60.0

    def test_zeno_decay_scenario(self):
        table = run_scenario(validate_config("scenario: zeno_decay"))
        by_name = {a.name: a for a in table.assertions}
        assert by_name["survival_monotone_along_sweep"].passed
        assert by_name["frozen_survival_at_finest_delta"].passed
        assert by_name["log_survival_slope_rel_error"].passed
        # the scenario measures the distance from the infinite-band law
        # exp(-t/tau); 0.0309 is the finite band's departure from that law,
        # not a shortfall of the model (it follows its own finite-band law
        # to 0.0067, acceptance criterion 3); the value is stable and pinned
        exp_law = by_name["exponential_law_max_rel_error"]
        assert exp_law.value == pytest.approx(0.0309, abs=0.0005)

    def test_norm_preservation_sees_kernel_drift(self, monkeypatch):
        from qmeasure import Hamiltonian
        kernel = Hamiltonian.evolve_amplitudes
        monkeypatch.setattr(Hamiltonian, "evolve_amplitudes",
                            lambda self, amplitudes, t: 1.01 * kernel(self, amplitudes, t))
        table = run_scenario(validate_config(
            "scenario: wavepacket_spread\nparams:\n  n_points: 256\n  box_length: 60.0\n"))
        norm = {a.name: a for a in table.assertions}["norm_preservation"]
        assert not norm.passed
        assert norm.value == pytest.approx(0.01, rel=1e-9)

    def test_fourier_unitarity_sees_round_trip_drift(self, monkeypatch):
        # F^dag puts a 1.01 drift on the centre sample, in the evolution too, so the
        # evolved state at t = 0 carries 1.01 psi0[c] there and its round trip
        # adds 0.01 of that
        from qmeasure.dynamics import _FourierBasis
        apply = _FourierBasis.apply
        g = GridSpace(256, 60.0)
        centre = int(np.argmin(np.abs(g.positions)))

        def drift_on_centre(self, coefficients):
            out = apply(self, coefficients)
            out[centre] *= 1.01
            return out

        monkeypatch.setattr(_FourierBasis, "apply", drift_on_centre)
        table = run_scenario(validate_config(
            "scenario: wavepacket_spread\nparams:\n  n_points: 256\n  box_length: 60.0\n"))
        unitarity = {a.name: a for a in table.assertions}["fourier_map_unitarity"]
        psi0 = np.exp(-g.positions ** 2 / 2.0)  # exp(-x^2 / 2 width^2) at width 1, normalized here
        psi0 /= np.linalg.norm(psi0)
        assert not unitarity.passed
        assert unitarity.value == pytest.approx(0.01 * 1.01 * psi0[centre], rel=1e-9)

    def test_fourier_unitarity_sees_scaled_map_pair(self, monkeypatch):
        # F scaled by 1 + eps and F^dag by its inverse: the round trip cancels and
        # only Parseval's identity sees the fault, eps times a unit norm
        from qmeasure.dynamics import _FourierBasis
        eps = 1e-6
        apply, adjoint = _FourierBasis.apply, _FourierBasis.apply_adjoint
        monkeypatch.setattr(_FourierBasis, "apply_adjoint",
                            lambda self, amplitudes: (1 + eps) * adjoint(self, amplitudes))
        monkeypatch.setattr(_FourierBasis, "apply",
                            lambda self, coefficients: apply(self, coefficients) / (1 + eps))
        table = run_scenario(validate_config(
            "scenario: wavepacket_spread\nparams:\n  n_points: 256\n  box_length: 60.0\n"))
        unitarity = {a.name: a for a in table.assertions}["fourier_map_unitarity"]
        assert not unitarity.passed
        assert unitarity.value == pytest.approx(eps, rel=1e-9)

    def test_determinism_byte_identical(self):
        cfg = validate_config("scenario: fuzzy_povm\nseed: 7")
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.to_csv() == b.to_csv()
        assert a.sidecar_json() == b.sidecar_json()
        assert a.to_json() == b.to_json()

    def test_seed_recorded_in_sidecar(self):
        cfg = validate_config("scenario: fuzzy_povm\nseed: 99")
        payload = json.loads(run_scenario(cfg).sidecar_json())
        assert payload["seed"] == 99
        assert payload["scenario"] == "fuzzy_povm"
        assert {"name", "pass", "value", "tolerance"} <= set(
            payload["assertions"][0])

    def test_csv_shape(self):
        table = run_scenario(validate_config("scenario: zeno_rabi"))
        lines = table.to_csv().strip().split("\n")
        assert len(lines) == len(table.values) + 1
        assert lines[0].split(",")[0] == "n_projections"

    @pytest.mark.parametrize("scenario,name,value", INPUT_HOLES)
    def test_out_of_box_inputs_name_the_field(self, scenario, name, value):
        raw = f"scenario: {scenario}\nparams:\n  {name}: {value}\n"
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"params.{name}:")

    @pytest.mark.parametrize("params,name", DELOCALIZATION_HOLES)
    def test_delocalization_holes_name_the_field(self, params, name):
        raw = yaml.safe_dump({"scenario": "delocalization", "params": {"n_points": 256, **params}})
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"params.{name}:")

    @pytest.mark.parametrize("scenario,params,name", PACKET_OVERFLOW_HOLES)
    def test_packet_overflow_names_the_field(self, scenario, params, name):
        raw = yaml.safe_dump({"scenario": scenario, "params": params})
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"params.{name}:")

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_delocalization_params())
    def test_validated_delocalization_runs_or_raises_simulation_error(self, params):
        result = _run_validated({"scenario": "delocalization", "params": params})
        if isinstance(result, SimulationError):
            return
        assert len(result.values)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_two_slit_params())
    def test_validated_two_slit_runs_or_raises_simulation_error(self, params):
        result = _run_validated({"scenario": "two_slit", "params": params})
        if isinstance(result, SimulationError):
            return
        assert len(result.values)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_wavepacket_params())
    def test_validated_wavepacket_spread_runs_or_raises_simulation_error(self, params):
        result = _run_validated({"scenario": "wavepacket_spread", "params": params})
        if isinstance(result, SimulationError):
            return
        assert len(result.values)
        # the packet holes reported NaN or infinite values instead of raising
        assert all(np.isfinite(a.value) for a in result.assertions), result.assertions

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_phase_space_params())
    def test_validated_phase_space_povm_runs_or_raises_simulation_error(self, params):
        result = _run_validated({"scenario": "phase_space_povm", "params": params})
        if isinstance(result, SimulationError):
            return
        assert len(result.values)
        # the packet holes reported NaN or infinite values instead of raising
        assert all(np.isfinite(a.value) for a in result.assertions), result.assertions

    @pytest.mark.parametrize("scenario,params,name", CROSS_FIELD_HOLES)
    def test_cross_field_holes_name_the_field(self, scenario, params, name):
        raw = yaml.safe_dump({"scenario": scenario, "params": params})
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"params.{name}:")

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_zeno_decay_params())
    def test_validated_zeno_decay_runs_or_raises_simulation_error(self, params):
        result = _run_validated({"scenario": "zeno_decay", "params": params})
        # the regime and the recurrence window are known before the solve, so a
        # config runs to a verdict or is refused by a RangeError naming one field
        if isinstance(result, SimulationError):
            assert isinstance(result, RangeError), result
            return
        assert len(result.values) and np.all(np.isfinite(result.values))
        # the defaults fail the golden-rule law by design, so only finiteness is asserted
        assert all(np.isfinite(a.value) for a in result.assertions), result.assertions

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_stern_gerlach_config())
    def test_validated_stern_gerlach_runs_or_raises_simulation_error(self, config):
        _check_trial_scenario(config)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_repeated_measurement_config())
    def test_validated_repeated_measurement_runs_or_raises_simulation_error(self, config):
        _check_trial_scenario(config)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_fuzzy_povm_config())
    def test_validated_fuzzy_povm_runs_or_raises_simulation_error(self, config):
        _check_trial_scenario(config)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_zeno_rabi_config())
    def test_validated_zeno_rabi_runs_or_raises_simulation_error(self, config):
        _check_trial_scenario(config)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(_hegerfeldt_config())
    def test_validated_hegerfeldt_scan_runs_or_raises_simulation_error(self, config):
        _check_trial_scenario(config)

    def test_zeno_decay_horizon_overflow_names_tau(self):
        # horizon_over_tau * tau is past the double range, so the cycle count
        # int(horizon / delta) ended in a bare OverflowError
        raw = ("scenario: zeno_decay\nparams:\n  tau: 9.0e+307\n  bandwidth: 1.0e-06\n"
               "  n_modes: 200\n  horizon_over_tau: 2.0\n")
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith("params.tau:")

    def test_wavepacket_natural_time_overflow_names_mass(self):
        # width 5e298 is inside its resolvable band for box_length 1e300,
        # but mass * width^2 is past the double range
        raw = ("scenario: wavepacket_spread\nparams:\n  n_points: 1024\n"
               "  box_length: 1.0e+300\n  width: 5.0e+298\n")
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith("params.mass:")

    def test_two_slit_range_top_peak_memory(self):
        # index-set cells: no identity blocks, kron copies or dim^2 V^dag V
        # products, which peaked at 372.6 MiB at this size; D one final-cell
        # block at a time: no dim-length branch per history, 40.6 MiB with them;
        # D stored as its blocks: no dense 512 x 512 D or pair arrays, 17.0 MiB
        # with them and 4.9 MiB without; the coarse functional kept as one block
        # without the constructor's copy of it: 3.9 MiB
        cfg = validate_config("scenario: two_slit\nparams:\n  n_points: 1024\n  n_cells: 256\n")
        tracemalloc.start()
        try:
            table = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        passed = {a.name: a.passed for a in table.assertions}
        for name in ("bare_family_inconsistent", "tagged_family_offdiagonal_ratio",
                     "tagged_coarse_graining_additive", "tagged_marginal_matches_screen"):
            assert passed[name], name

    def test_delocalization_range_top_peak_memory(self):
        # the region projector is an index order: its dense permuted identity
        # peaked at 256.3 MiB at this size
        cfg = validate_config("scenario: delocalization\nparams:\n  n_points: 4096\n")
        tracemalloc.start()
        try:
            table = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert table.all_passed

    def test_zeno_decay_range_top_peak_memory(self):
        # the decay model holds its N + 1 roots and weights: no (N + 1)^2 Hamiltonian,
        # which alone took 3.2 GB at this size
        cfg = validate_config("scenario: zeno_decay\nparams:\n  n_modes: 20000\n")
        tracemalloc.start()
        try:
            table = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        passed = {a.name: a.passed for a in table.assertions}
        assert passed["survival_monotone_along_sweep"]
        assert passed["frozen_survival_at_finest_delta"]

    def test_wavepacket_spread_range_top_peak_memory(self):
        # times are evolved in blocks of 128 KiB: all 1000 at once peaked at 312.8 MiB
        # at this size
        cfg = validate_config("scenario: wavepacket_spread\nparams:\n  n_points: 4096\n"
                              "  n_times: 1000\n")
        tracemalloc.start()
        try:
            table = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert table.all_passed

    def test_repeated_measurement_range_memory(self):
        # each block of 256 trials is drawn and judged as arrays per dimension,
        # never all trials at once
        cfg = validate_config("scenario: repeated_measurement\nparams:\n  n_random: 20000\n")
        tracemalloc.start()
        try:
            table = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert table.all_passed

    def test_fuzzy_povm_range_top_memory(self):
        # almost all of it is the 100,000-row table itself, 3.1 MiB of float64
        cfg = validate_config("scenario: fuzzy_povm\nparams:\n  n_random: 100000\n")
        tracemalloc.start()
        try:
            table = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
        assert table.all_passed

    def test_module_errors_carry_scenario_context(self, monkeypatch):
        from qmeasure import InvalidRegime, scenarios

        def refuse(*args):
            raise InvalidRegime("the weak-coupling regime does not apply")

        monkeypatch.setattr(scenarios, "build_decay_model", refuse)
        with pytest.raises(InvalidRegime, match="zeno_decay"):
            run_scenario(validate_config("scenario: zeno_decay"))

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_table_is_one_read_only_float_array(self, name):
        table = run_scenario(validate_config(f"scenario: {name}"))
        values = table.values
        assert values.dtype == np.float64 and not values.flags.writeable
        assert values.ndim == 2 and values.shape[1] == len(table.columns) and len(values)
        assert json.loads(table.to_json())["rows"] == values.tolist()

    @pytest.mark.parametrize("values", [np.zeros((3, 2), dtype=int), np.zeros(6),
                                        np.zeros((3, 3))])
    def test_table_of_another_dtype_or_shape_is_refused(self, monkeypatch, values):
        spec = SCENARIOS["zeno_rabi"]
        runner = lambda params, seed: ([("a", ""), ("b", "")], values, [])  # noqa: E731
        monkeypatch.setitem(SCENARIOS, "zeno_rabi", dataclasses.replace(spec, runner=runner))
        with pytest.raises(TypeError, match="zeno_rabi"):
            run_scenario(validate_config("scenario: zeno_rabi"))


def _assertion(table, name):
    return next(a.value for a in table.assertions if a.name == name)


def _repeated_measurement_draws(seed, n_random):
    """repeated_measurement's (h, state draws) in its draw order: each block of
    trials draws its dimensions, then per dimension 2, 3 and 4 the h parts and
    the state draws of its trials."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_random, TRIAL_BLOCK):
        dims = rng.integers(2, 5, size=min(TRIAL_BLOCK, n_random - start))
        for dim in range(2, 5):
            m = np.count_nonzero(dims == dim)
            parts = rng.standard_normal((m, 2, dim, dim))
            draws = rng.standard_normal((m, dim + 1, 2, dim))
            for (re, im), normals in zip(parts, draws):
                h = re + 1j * im
                yield h + h.conj().T, normals


def _modeled_born_tv(h, normals):
    """TV between one trial's modeled pointer statistics, read from its completed
    unitary, and the Born weights of an eigh of h."""
    state, *posts = (PureState(re + 1j * im) for re, im in normals)
    model = build_measurement_unitary(spectral_decompose(LinearOperator(h)), post_states=posts)
    ready = np.eye(model.pointer_dim)[model.ready_index]
    grid = (model.unitary.matrix @ np.kron(state.amplitudes, ready)).reshape(len(h), -1)
    modeled = np.sum(np.abs(grid[:, list(model.record_indices)]) ** 2, axis=0)
    born = np.abs(np.linalg.eigh(h)[1].conj().T @ state.amplitudes) ** 2
    return 0.5 * float(np.sum(np.abs(modeled - born)))


class TestTrialOracles:
    """The stacked trial scenarios against per-trial loops written out here.

    Modeled statistics are read from each model's completed unitary, not
    from its isometry, and Born weights from an ``eigh`` in the test.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repeated_measurement_worst_tv(self, monkeypatch, seed):
        from qmeasure import scenarios
        n_random = 40
        judged, real_worst = [], scenarios._modeled_born_worst_tv

        def worst_tv(h, evals, evecs, draws):
            judged.extend(zip(h, draws))
            return real_worst(h, evals, evecs, draws)

        monkeypatch.setattr(scenarios, "_modeled_born_worst_tv", worst_tv)
        table = run_scenario(validate_config(yaml.safe_dump(
            {"scenario": "repeated_measurement", "seed": seed, "params": {"n_random": n_random}})))
        worst, kept = 0.0, []
        for h, normals in _repeated_measurement_draws(seed, n_random):
            evals, evecs = np.linalg.eigh(h)
            if np.min(np.diff(evals)) <= 1e-9 * np.max(np.abs(evals)):
                continue
            kept.append((h, normals))
            worst = max(worst, _modeled_born_tv(h, normals))
        assert len(kept) > n_random // 2
        assert len(judged) == len(kept)
        for (h, normals), (h_used, draws_used) in zip(kept, judged):
            assert np.array_equal(h, h_used) and np.array_equal(normals, draws_used)
        assert worst <= 1e-10
        assert _assertion(table, "modeled_equals_born_worst_tv") == pytest.approx(worst, abs=1e-15)

    @pytest.mark.parametrize("forced", [[0], [117], [255], [40, 41], [300]],
                             ids=["first", "mid_block", "block_end", "two_in_block",
                                  "second_block"])
    def test_repeated_measurement_skips_degenerate_draws(self, monkeypatch, forced):
        # draws judged degenerate at chosen positions (counted block by block, then
        # dimension 2, 3 and 4, then within the dimension): each still takes its
        # state draws, so the stream does not move, and its h is checked by
        # spectral_decompose and skipped
        from qmeasure import scenarios
        n_random, seed = 320, 5
        skipped, kept, worst = [], {dim: [] for dim in range(2, 5)}, 0.0
        for position, (h, normals) in enumerate(_repeated_measurement_draws(seed, n_random)):
            if position in forced:
                skipped.append(h)
                continue
            kept[len(h)].append((h, normals))
            worst = max(worst, _modeled_born_tv(h, normals))

        skipped_spectra = [np.linalg.eigh(h)[0] for h in skipped]
        real_verdict = scenarios._degenerate_spectra

        def judged(evals):
            verdict = real_verdict(evals)
            for spectrum in skipped_spectra:
                if spectrum.size == evals.shape[-1]:
                    verdict = verdict | np.all(np.abs(evals - spectrum)
                                               <= 1e-12 * np.abs(spectrum).max(), axis=-1)
            return verdict

        decomposed, used = [], {dim: [] for dim in range(2, 5)}
        real_decompose, real_worst = scenarios.spectral_decompose, scenarios._modeled_born_worst_tv

        def decompose(op):
            decomposed.append(op.matrix.copy())
            return real_decompose(op)

        def worst_tv(h, evals, evecs, draws):
            used[h.shape[-1]].extend(zip(h, draws))
            return real_worst(h, evals, evecs, draws)

        monkeypatch.setattr(scenarios, "_degenerate_spectra", judged)
        monkeypatch.setattr(scenarios, "spectral_decompose", decompose)
        monkeypatch.setattr(scenarios, "_modeled_born_worst_tv", worst_tv)
        table = run_scenario(validate_config(yaml.safe_dump(
            {"scenario": "repeated_measurement", "seed": seed, "params": {"n_random": n_random}})))

        assert len(skipped) == len(forced)
        for h in skipped:
            assert any(np.array_equal(h, m) for m in decomposed)
        for dim in kept:
            assert len(used[dim]) == len(kept[dim])
            for (h, normals), (h_used, draws_used) in zip(kept[dim], used[dim]):
                assert np.array_equal(h, h_used) and np.array_equal(normals, draws_used)
        assert worst <= 1e-10
        assert _assertion(table, "modeled_equals_born_worst_tv") == pytest.approx(worst, abs=1e-15)

    def test_repeated_measurement_generator_calls_per_block(self, monkeypatch):
        # each block of trials is drawn as arrays: its dimensions, then per
        # dimension the h parts and the state draws, so at most 7 calls per block
        raw = "scenario: repeated_measurement\nparams:\n  n_random: 1000\n"
        expected = run_scenario(validate_config(raw))
        calls, real_rng = [], np.random.default_rng

        class CountingRng:
            def __init__(self, *args, **kwargs):
                self._rng = real_rng(*args, **kwargs)

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return method(*args, **kwargs)
                return counted

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        table = run_scenario(validate_config(raw))
        assert len(calls) <= 7 * 4
        assert (table.to_csv(), table.sidecar_json()) == (expected.to_csv(), expected.sidecar_json())

    def test_stern_gerlach_rows(self):
        # 600 angles cross the scenario's blocks of stacked trials
        table = run_scenario(validate_config("scenario: stern_gerlach\nparams:\n  theta_steps: 600\n"))
        model = build_measurement_unitary(spectral_decompose(SIGMA_Z))
        ready = np.eye(model.pointer_dim)[model.ready_index]
        thetas = np.linspace(0.0, np.pi, 600)
        assert table.values[:, 0].tolist() == thetas.tolist()
        for theta, pr_plus, pr_minus, expected, err in table.values.tolist():
            rotated = np.array([np.cos(theta / 2), np.sin(theta / 2)])  # R(theta)|+z>
            grid = (model.unitary.matrix @ np.kron(rotated, ready)).reshape(2, -1)
            minus, plus = np.sum(np.abs(grid[:, list(model.record_indices)]) ** 2, axis=0)
            assert (pr_plus, pr_minus) == pytest.approx((plus, minus), abs=1e-12)
            assert expected == pytest.approx(np.cos(theta / 2) ** 2, abs=1e-15)
            assert err == abs(pr_plus - expected)

    @pytest.mark.parametrize("n_points", [1024, 4096])
    def test_wavepacket_spread_rows(self, n_points):
        # 40 times cross the scenario's blocks of stacked times (8 at 1024 points,
        # 2 at 4096); the per-time kernel calls must give the same CSV bytes
        table = run_scenario(validate_config(yaml.safe_dump(
            {"scenario": "wavepacket_spread", "params": {"n_points": n_points, "n_times": 40}})))
        g = GridSpace(n_points, 120.0)
        H = free_hamiltonian(g, 1.0)
        psi0 = gaussian_packet(g, 0.0, 0.0, 1.0)
        rows = []
        for t in np.linspace(0.0, np.sqrt(30.0 ** 2 - 1.0), 40):  # until width 120 / 4
            w_num = packet_width(g, PureState(H.evolve_amplitudes(psi0.amplitudes, float(t))))
            w_ref = np.sqrt(1.0 + t ** 2)
            rows.append((float(t), w_num, float(w_ref), float(abs(w_num - w_ref) / w_ref)))
        assert table.to_csv() == dataclasses.replace(table, values=np.array(rows)).to_csv()

    def test_fuzzy_povm_rows(self):
        eps, n_random, seed = 0.2, 600, 5
        table = run_scenario(validate_config(yaml.safe_dump(
            {"scenario": "fuzzy_povm", "seed": seed,
             "params": {"confusion": eps, "n_random": n_random}})))
        obs = spectral_decompose(SIGMA_Z)
        fuzzy = build_fuzzy_povm(obs, [[1 - eps, eps], [eps, 1 - eps]])
        rng = np.random.default_rng(seed)
        assert len(table.values) == n_random
        for idx, row in enumerate(table.values.tolist()):
            state = PureState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            p_minus, p_plus = born_distribution(state, obs).probabilities
            oracle = (idx, p_plus, povm_distribution(state, fuzzy).probabilities[1],
                      eps * p_minus + (1 - eps) * p_plus)
            assert row == pytest.approx(oracle, abs=1e-12)


class TestCli:
    def test_run_writes_csv_and_sidecar(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: zeno_rabi\n")
        code = cli_main(["run", str(cfg), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "zeno_rabi.csv").exists()
        assert (tmp_path / "zeno_rabi.meta.json").exists()
        assert "PASS zeno_rabi.simulated_matches_closed_form" in out

    def test_run_json_format(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: fuzzy_povm\n")
        code = cli_main(["run", str(cfg), "--out-dir", str(tmp_path),
                         "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "fuzzy_povm.json").read_text())
        assert payload["rows"]

    def test_run_seed_override_changes_hash_not_rows_schema(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: fuzzy_povm\nseed: 1\n")
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "a"),
                         "--seed", "2"]) == 0
        meta = json.loads((tmp_path / "a" / "fuzzy_povm.meta.json").read_text())
        assert meta["seed"] == 2

    def test_parser_is_built_once_and_each_call_parses_afresh(self, tmp_path, capsys,
                                                             monkeypatch):
        import argparse
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: fuzzy_povm\nseed: 1\n")
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "a"),
                         "--seed", "2", "--format", "json"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        capsys.readouterr()
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        assert "seed=1," in capsys.readouterr().out
        meta = json.loads((tmp_path / "b" / "fuzzy_povm.meta.json").read_text())
        assert meta["seed"] == 1
        assert (tmp_path / "b" / "fuzzy_povm.csv").exists()
        assert not (tmp_path / "b" / "fuzzy_povm.json").exists()
        with pytest.raises(SystemExit) as exited:
            cli_main(["run"])
        assert exited.value.code == 2
        assert cli_main(["validate", str(cfg)]) == 0
        assert cli_main(["list"]) == 0
        assert "OK scenario=fuzzy_povm seed=1" in capsys.readouterr().out
        assert built == []

    def test_run_reports_failure_exit_code(self, tmp_path, capsys):
        # the decay-law assertion compares with the infinite-band law
        # exp(-t/tau); a finite band departs from it by 0.0309, which is
        # physics, not a fault of the model; the scenario reports that
        # honestly as FAIL and exits nonzero
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: zeno_decay\n")
        code = cli_main(["run", str(cfg), "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL zeno_decay.exponential_law_max_rel_error" in out

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "ok.yaml"
        cfg.write_text("scenario: stern_gerlach\n")
        assert cli_main(["validate", str(cfg)]) == 0
        assert "OK scenario=stern_gerlach" in capsys.readouterr().out

    def test_run_rejects_negative_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: fuzzy_povm\n")
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path),
                         "--seed", "-3"]) == 2

    def test_run_reports_module_error_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("scenario: wavepacket_spread\nparams:\n  width: 0.1\n")
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "run failed" in capsys.readouterr().err

    def test_validate_reports_all_violations(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenario: zeno_decay\nparams:\n  tau: -1\n  n_modes: 5\n")
        assert cli_main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("RANGE") == 2

    def test_validate_rejects_nan(self, tmp_path, capsys):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text("scenario: zeno_decay\nparams:\n  tau: .nan\n")
        assert cli_main(["validate", str(cfg)]) == 2
        assert "RANGE params.tau: expected a finite number" in capsys.readouterr().err

    def test_validate_rejects_integer_beyond_double_range(self, tmp_path, capsys):
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("scenario: zeno_decay\nparams:\n  tau: 1" + "0" * 400 + "\n")
        assert cli_main(["validate", str(cfg)]) == 2
        assert "RANGE params.tau: expected a finite number" in capsys.readouterr().err

    def test_run_rejects_n_cells_not_dividing_n_points(self, tmp_path, capsys):
        cfg = tmp_path / "cells.yaml"
        cfg.write_text("scenario: two_slit\nparams:\n  n_cells: 24\n")
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "params.n_cells" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario,name,value", INPUT_HOLES)
    def test_run_rejects_out_of_box_inputs(self, tmp_path, capsys, scenario, name, value):
        cfg = tmp_path / "hole.yaml"
        cfg.write_text(f"scenario: {scenario}\nparams:\n  {name}: {value}\n")
        assert cli_main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert f"params.{name}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,prefix", [("run", "invalid config: "),
                                                ("validate", "PARSE ")])
    @pytest.mark.parametrize("unreadable", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_a_parse_error(self, tmp_path, capsys, command, prefix,
                                                unreadable):
        path = tmp_path / "config.yaml"
        if unreadable == "directory":
            path.mkdir()
        elif unreadable == "not_utf8":
            path.write_bytes(b"scenario: zeno_rabi\n# \xff\xfe\n")
        args = [command, str(path)] + (["--out-dir", str(tmp_path)] if command == "run" else [])
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith(f"{prefix}cannot read {path}: ")

    def test_list_shows_scenarios(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
