"""Tests of the benchmark's own machinery: tracer, output checker, workloads.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import shutil
import types

import numpy as np
import pytest
import yaml

from check import REFERENCE_DIR, Checker, check_values, check_verdicts, load_expected
from layers import layer_metrics, unit
from run import ROOT, end_to_end
from tracer import Tracer, self_times
from workloads import WORKLOADS, config_texts, write_configs


def _synthetic_modules():
    """``lib`` defines outer() calling inner(); ``user`` imports inner by name."""
    lib = types.ModuleType("lib")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def _private(x):\n    return x\n"
         "class Box:\n"
         "    def __init__(self, v):\n        self.v = inner(v)\n"
         "    @classmethod\n    def make(cls, v):\n        return cls(v)\n",
         lib.__dict__)
    user = types.ModuleType("user")
    user.inner = lib.inner
    return lib, user


def _step_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


class TestTracer:
    def test_self_time_of_nested_call(self):
        lib, user = _synthetic_modules()
        tracer = Tracer([lib], [lib, user], clock=_step_clock())
        tracer.install()
        try:
            assert lib.outer(1) == 4
        finally:
            tracer.uninstall()
        spans = tracer.arrays()
        names = [tracer.names[i] for i in spans["name_id"]]
        assert names == ["lib.outer", "lib.inner"]
        # ticks: outer starts 0, inner 1..2, outer ends 3
        assert spans["start"].tolist() == [0.0, 1.0]
        assert spans["end"].tolist() == [3.0, 2.0]
        assert spans["parent"].tolist() == [-1, 0]
        assert self_times(spans["start"], spans["end"], spans["parent"]).tolist() == [2.0, 1.0]

    def test_self_time_subtracts_every_direct_child_only(self):
        # root [0, 10] has children [1, 3] and [4, 9]; the second has [5, 6]
        start = np.array([0.0, 1.0, 4.0, 5.0])
        end = np.array([10.0, 3.0, 9.0, 6.0])
        parent = np.array([-1, 0, 0, 2])
        assert self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]

    def test_rebinds_imported_names_and_restores_them(self):
        lib, user = _synthetic_modules()
        originals = (lib.inner, lib.outer, user.inner, lib._private,
                     vars(lib.Box)["__init__"], vars(lib.Box)["make"])
        tracer = Tracer([lib], [lib, user], clock=_step_clock())
        tracer.install()
        try:
            assert user.inner is lib.inner is not originals[0]
            assert lib._private is originals[3]
            user.inner(1)
            assert lib.Box.make(2).v == 3
        finally:
            tracer.uninstall()
        names = [tracer.names[i] for i in tracer.arrays()["name_id"]]
        assert names == ["lib.inner", "lib.Box.make", "lib.Box.__init__", "lib.inner"]
        assert (lib.inner, lib.outer, user.inner, lib._private,
                vars(lib.Box)["__init__"], vars(lib.Box)["make"]) == originals

    def test_counters_see_arguments_by_name(self):
        lib, user = _synthetic_modules()
        counters = {"lib.inner": lambda args: [("inner.x", args["x"]), ("inner.max", args["x"])]}
        tracer = Tracer([lib], [lib], counters, frozenset({"inner.max"}))
        tracer.install()
        try:
            lib.inner(3)
            lib.inner(x=5)
        finally:
            tracer.uninstall()
        assert tracer.counts == {"inner.x": 8, "inner.max": 5}


class TestChecker:
    SCENARIO = "stern_gerlach"

    def _reference(self):
        csv_text = (REFERENCE_DIR / f"{self.SCENARIO}.csv").read_text()
        sidecar = json.loads((REFERENCE_DIR / f"{self.SCENARIO}.meta.json").read_text())
        return csv_text, sidecar

    @staticmethod
    def _scale_cell(csv_text, row, col, factor):
        lines = csv_text.splitlines(keepends=True)
        cells = lines[row].rstrip("\n").split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[row] = ",".join(cells) + "\n"
        return "".join(lines)

    def test_reference_passes_its_own_check(self):
        csv_text, sidecar = self._reference()
        assert check_values(self.SCENARIO, csv_text, sidecar, csv_text, sidecar) == []
        assert check_verdicts(self.SCENARIO, 0, sidecar, load_expected()) == []

    def test_perturbed_csv_cell_fails(self):
        csv_text, sidecar = self._reference()
        bad = self._scale_cell(csv_text, 5, 1, 1 + 1e-6)
        problems = check_values(self.SCENARIO, bad, sidecar, csv_text, sidecar)
        assert len(problems) == 1 and "1 CSV rows differ, first row 5" in problems[0]

    def test_roundoff_below_tolerance_passes(self):
        csv_text, sidecar = self._reference()
        near = self._scale_cell(csv_text, 5, 1, 1 + 1e-12)
        assert check_values(self.SCENARIO, near, sidecar, csv_text, sidecar) == []

    def test_flipped_verdict_and_exit_code_fail(self):
        _, sidecar = self._reference()
        flipped = json.loads(json.dumps(sidecar))
        flipped["assertions"][0]["pass"] = not flipped["assertions"][0]["pass"]
        expected = load_expected()
        assert check_verdicts(self.SCENARIO, 0, flipped, expected)
        assert check_verdicts(self.SCENARIO, 1, sidecar, expected)

    def test_known_criterion_3_fail_is_expected(self):
        want = load_expected()["zeno_decay"]
        assert want["exit_code"] == 1
        assert want["verdicts"]["exponential_law_max_rel_error"] is False
        assert sum(not v for v in want["verdicts"].values()) == 1

    def test_checker_on_written_outputs(self, tmp_path):
        for suffix in (".csv", ".meta.json"):
            shutil.copy(REFERENCE_DIR / f"{self.SCENARIO}{suffix}", tmp_path)
        checker = Checker(seed=0)
        assert checker.check(self.SCENARIO, 0, tmp_path) == ([], 2)
        csv_path = tmp_path / f"{self.SCENARIO}.csv"
        csv_path.write_text(self._scale_cell(csv_path.read_text(), 2, 3, 1 + 1e-6))
        problems, identical = checker.check(self.SCENARIO, 0, tmp_path)
        assert problems and identical == 1
        csv_path.unlink()
        problems, identical = checker.check(self.SCENARIO, 0, tmp_path)
        assert "no output" in problems[0] and identical == 0


class TestWorkloads:
    def test_same_seed_gives_identical_configs(self, tmp_path):
        for workload in WORKLOADS:
            assert config_texts(workload, 7) == config_texts(workload, 7)
            first = write_configs(workload, 7, tmp_path / "a")
            second = write_configs(workload, 7, tmp_path / "b")
            assert [p.read_bytes() for _, p in first] == [p.read_bytes() for _, p in second]

    def test_seed_changes_only_the_seed_field(self):
        for workload in WORKLOADS:
            a = [yaml.safe_load(t) for _, t in config_texts(workload, 1)]
            b = [yaml.safe_load(t) for _, t in config_texts(workload, 2)]
            assert [c["seed"] for c in a] == [1] * len(a)
            assert [{**c, "seed": 0} for c in a] == [{**c, "seed": 0} for c in b]

    def test_every_reference_scenario_belongs_to_one_workload(self):
        scenarios = [s for configs in WORKLOADS.values() for s, _ in configs]
        assert len(scenarios) == len(set(scenarios))
        assert sorted(scenarios) == sorted(load_expected())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            config_texts("phase_space", -1)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [{"seconds": 1.0}, {"seconds": 3.0}]
    assert {n: u for n, (_, u) in end_to_end(ops, 0.5).items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_names = set(layer_metrics([], np.zeros(0, dtype=int), np.zeros(0), {}, 1))
    layer_names |= {"scenarios.outputs_byte_identical", "trace_overhead_frac"}
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    assert all(m["unit"] == unit(m["name"]) for m in bench["per_layer"])
