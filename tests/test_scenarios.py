import json
import time

import numpy as np
import pytest

from qmeasure import (
    ParseError,
    RangeError,
    SCENARIOS,
    run_scenario,
    validate_config,
)
from qmeasure.cli import main as cli_main

# inputs that once ended in a bare ValueError: a horizon shorter than the first
# projection interval tau/4, and packets centred far outside the periodic box
INPUT_HOLES = [("zeno_decay", "horizon_over_tau", 0.2),
               ("phase_space_povm", "state_x0", -50.0),
               ("two_slit", "separation", 1e6)]


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
        assert table.rows
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
        assert len(lines) == len(table.rows) + 1
        assert lines[0].split(",")[0] == "n_projections"

    @pytest.mark.parametrize("scenario,name,value", INPUT_HOLES)
    def test_out_of_box_inputs_name_the_field(self, scenario, name, value):
        raw = f"scenario: {scenario}\nparams:\n  {name}: {value}\n"
        with pytest.raises(RangeError) as err:
            run_scenario(validate_config(raw))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"params.{name}:")

    def test_module_errors_carry_scenario_context(self):
        from qmeasure import UnresolvableWidth
        raw = "scenario: wavepacket_spread\nparams:\n  width: 0.1\n"
        with pytest.raises(UnresolvableWidth, match="wavepacket_spread"):
            run_scenario(validate_config(raw))


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

    def test_list_shows_scenarios(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
