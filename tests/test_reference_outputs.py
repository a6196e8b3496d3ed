"""Every benchmark config at seed 0 reproduces the committed reference outputs.

The configs come from ``bench/workloads.py`` and the check from
``bench/check.py``: exit code and assertion verdicts against
``bench/reference/expected.json``, CSV cells and assertion values against the
reference files within 1e-9 relative.  Only reads ``bench/``.
"""

import importlib.util
from pathlib import Path

import pytest

from qmeasure.cli import main as cli_main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _bench_module("check")
workloads = _bench_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_0_outputs_match_the_reference(workload, tmp_path):
    checker = check.Checker(seed=0)
    out_dir = tmp_path / "out"
    problems = []
    for scenario, path in workloads.write_configs(workload, 0, tmp_path / "configs"):
        exit_code = cli_main(["run", str(path), "--out-dir", str(out_dir)])
        problems += checker.check(scenario, exit_code, out_dir)[0]
    assert not problems
