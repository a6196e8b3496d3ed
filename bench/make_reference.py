"""Regenerate ``reference/``: seed-0 outputs and the expected-verdict table.

    python3 bench/make_reference.py

Runs every workload's configs once at seed 0 through the CLI and stores each
scenario's CSV and sidecar plus its exit code and assertion verdicts.  Run it
only when a change to the program is meant to change its outputs, and say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from check import REFERENCE_DIR
from run import import_program
from workloads import WORKLOADS, write_configs


def main() -> int:
    qmeasure = import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for scenario, config in write_configs(workload, 0, Path(tmp) / workload):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qmeasure.cli.main(["run", str(config), "--out-dir", tmp])
                for suffix in (".csv", ".meta.json"):
                    shutil.copy(Path(tmp) / f"{scenario}{suffix}", REFERENCE_DIR)
                sidecar = json.loads((Path(tmp) / f"{scenario}.meta.json").read_text())
                expected[scenario] = {
                    "exit_code": code,
                    "verdicts": {a["name"]: a["pass"] for a in sidecar["assertions"]},
                }
    (REFERENCE_DIR / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
