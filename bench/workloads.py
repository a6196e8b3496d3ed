"""Benchmark workloads: which scenario configs one op cycles through.

Sizes are pinned here and never vary; the seed only goes into each config's
``seed`` field.  A workload's op cycle is its config list in order, and a run
always measures whole cycles so every run sees the same mix.
"""

from __future__ import annotations

from pathlib import Path

import yaml

# name -> list of (scenario, pinned params); why each exists is in README.md
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "grid_dynamics": [
        ("wavepacket_spread", {"n_points": 1024, "n_times": 12}),
        ("delocalization", {"n_points": 1024}),
    ],
    "phase_space": [
        ("phase_space_povm", {"n_points": 128}),
    ],
    "two_slit_histories": [
        ("two_slit", {"n_points": 256, "box_length": 64.0, "n_cells": 64}),
    ],
    "small_systems": [
        ("stern_gerlach", {"theta_steps": 2000}),
        ("repeated_measurement", {"n_random": 500}),
        ("zeno_rabi", {"n_max": 300}),
        ("fuzzy_povm", {"n_random": 1000}),
        ("hegerfeldt_scan", {"dim": 8, "rank": 3, "n_times": 1200}),
        ("zeno_decay", {"n_modes": 400}),
    ],
}


def config_texts(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (scenario, YAML text) pairs of one op cycle, deterministic in seed."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return [(scenario, yaml.safe_dump({"scenario": scenario, "seed": seed,
                                       "params": dict(params)}, sort_keys=True))
            for scenario, params in WORKLOADS[workload]]


def write_configs(workload: str, seed: int, directory: Path) -> list[tuple[str, Path]]:
    """Write one op cycle's configs into ``directory``; returns (scenario, path)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for scenario, text in config_texts(workload, seed):
        path = directory / f"{scenario}.yaml"
        path.write_text(text)
        paths.append((scenario, path))
    return paths
