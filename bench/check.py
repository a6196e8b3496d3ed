"""Output checks against the committed seed-0 reference and verdict table.

``reference/expected.json`` maps each scenario to the exit code and the
assertion verdicts the program gives at the commit that defined the
benchmark, including the known FAIL of ``zeno_decay``'s
``exponential_law_max_rel_error`` (acceptance criterion 3).  Every seed is
checked against that table; seed 0 is also checked cell by cell against
``reference/<scenario>.csv`` and ``.meta.json``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9


def close(value: float, ref: float) -> bool:
    """|value - ref| <= 1e-9 * max(1, |ref|); equal infinities and NaNs match."""
    if value == ref or (value != value and ref != ref):
        return True
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def load_expected(ref_dir: Path = REFERENCE_DIR) -> dict:
    return json.loads((ref_dir / "expected.json").read_text())


def check_verdicts(scenario: str, exit_code: int, sidecar: dict,
                   expected: dict) -> list[str]:
    """Problems with the exit code and assertion verdicts, empty when correct."""
    want = expected[scenario]
    problems = []
    if exit_code != want["exit_code"]:
        problems.append(f"{scenario}: exit code {exit_code}, expected {want['exit_code']}")
    got = {a["name"]: a["pass"] for a in sidecar["assertions"]}
    if got != want["verdicts"]:
        problems.append(f"{scenario}: verdicts {got}, expected {want['verdicts']}")
    return problems


def check_values(scenario: str, csv_text: str, sidecar: dict,
                 ref_csv: str, ref_sidecar: dict) -> list[str]:
    """Problems with CSV cells and assertion values against the reference."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    ref_rows = list(csv.reader(io.StringIO(ref_csv)))
    if not rows or rows[0] != ref_rows[0]:
        return [f"{scenario}: CSV header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{scenario}: {len(rows) - 1} rows, reference has {len(ref_rows) - 1}"]
    problems = []
    differing = [(r, row, ref_row)
                 for r, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1)
                 if len(row) != len(ref_row)
                 or not all(close(float(v), float(rv)) for v, rv in zip(row, ref_row))]
    if differing:
        r, row, ref_row = differing[0]
        problems.append(f"{scenario}: {len(differing)} CSV rows differ, "
                        f"first row {r}: {row} vs {ref_row}")
    got = [(a["name"], a["value"], a["tolerance"]) for a in sidecar["assertions"]]
    want = [(a["name"], a["value"], a["tolerance"]) for a in ref_sidecar["assertions"]]
    if len(got) != len(want) or not all(
            n == rn and close(v, rv) and close(t, rt)
            for (n, v, t), (rn, rv, rt) in zip(got, want)):
        problems.append(f"{scenario}: assertion values {got} differ from {want}")
    return problems


class Checker:
    """Checks one op's outputs; holds the reference bytes it compares with."""

    def __init__(self, seed: int, ref_dir: Path = REFERENCE_DIR):
        self.seed = seed
        self.expected = load_expected(ref_dir)
        # scenario -> (csv bytes, sidecar bytes) that later outputs should equal:
        # the committed reference at seed 0, else the run's first outputs
        self.baseline: dict[str, tuple[bytes, bytes]] = {}
        if seed == 0:
            for scenario in self.expected:
                self.baseline[scenario] = (
                    (ref_dir / f"{scenario}.csv").read_bytes(),
                    (ref_dir / f"{scenario}.meta.json").read_bytes())

    def check(self, scenario: str, exit_code: int, out_dir: Path) -> tuple[list[str], int]:
        """(problems, number of output files byte-identical to the baseline)."""
        try:
            csv_bytes = (out_dir / f"{scenario}.csv").read_bytes()
            meta_bytes = (out_dir / f"{scenario}.meta.json").read_bytes()
        except FileNotFoundError:
            return [f"{scenario}: exit code {exit_code}, no output written"], 0
        sidecar = json.loads(meta_bytes)
        problems = check_verdicts(scenario, exit_code, sidecar, self.expected)
        if self.seed == 0:
            ref_csv, ref_meta = self.baseline[scenario]
            problems += check_values(scenario, csv_bytes.decode(), sidecar,
                                     ref_csv.decode(), json.loads(ref_meta))
        baseline = self.baseline.setdefault(scenario, (csv_bytes, meta_bytes))
        identical = (csv_bytes == baseline[0]) + (meta_bytes == baseline[1])
        return problems, identical
