"""Regenerate ``tests/data/output_digests.json``, the output bytes of 30 configs.

    PYTHONPATH=src python tests/make_output_digests.py

The configs are the 10 scenarios at their defaults and every
``bench/workloads.py`` config at seeds 0 and 7.  Each runs through
``qmeasure.cli.main`` twice, once writing CSV plus sidecar and once with
``--format json``, from a scratch directory into ``out/``, so that the
console's ``wrote`` line reads the same on every machine.  The file keeps
each run's exit code and the SHA-256 of its console lines, CSV, sidecar and
JSON output, and the numpy and BLAS builds that made them.
``tests/test_output_digests.py`` checks the installed package against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import yaml

from qmeasure.cli import main as cli_main
from qmeasure.scenarios import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"
SEEDS = (0, 7)


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs() -> dict[str, str]:
    """Config name -> YAML text: ``<scenario>@defaults`` and ``<workload>/<scenario>@seed<s>``."""
    texts = {f"{name}@defaults": yaml.safe_dump({"scenario": name}) for name in sorted(SCENARIOS)}
    workloads = _workloads()
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for scenario, text in workloads.config_texts(workload, seed):
                texts[f"{workload}/{scenario}@seed{seed}"] = text
    return texts


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(config: Path, *extra: str) -> tuple[int, str]:
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        code = cli_main(["run", str(config), "--out-dir", "out", *extra])
    return code, console.getvalue()


def digest(text: str) -> dict:
    """Run one config in the current directory, which must be empty and writable."""
    config = Path("config.yaml")
    config.write_text(text)
    name = yaml.safe_load(text)["scenario"]
    out = Path("out")
    code, console = _run(config)
    json_code, json_console = _run(config, "--format", "json")
    entry = {"exit_code": code, "json_exit_code": json_code, "console": _sha256(console),
             "json_console": _sha256(json_console)}
    for key, suffix in (("csv", ".csv"), ("sidecar", ".meta.json"), ("json", ".json")):
        path = out / f"{name}{suffix}"
        entry[key] = _sha256(path.read_text()) if path.exists() else None
    return entry


def environment() -> dict:
    """The numpy version and the BLAS build, with its configured core, that numpy reports."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_configuration": blas.get("openblas configuration", "")}


def all_digests() -> dict[str, dict]:
    """Every config's digests, each run in a fresh scratch directory."""
    result = {}
    cwd = os.getcwd()
    for name, text in configs().items():
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            try:
                result[name] = digest(text)
            finally:
                os.chdir(cwd)
    return result


def main() -> None:
    DIGESTS.parent.mkdir(exist_ok=True)
    record = {"environment": environment(), "configs": all_digests()}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['configs'])} configs to {DIGESTS}")


if __name__ == "__main__":
    main()
