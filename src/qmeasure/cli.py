"""Command-line entry point: run, list, and validate scenario configs."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import InvalidConfig, ParseError, RangeError, SimulationError
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario, validate_config


def _load_config(path: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return validate_config(text)


def _cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if args.seed < 0:
            print("seed must be nonnegative", file=sys.stderr)
            return 2
        cfg = ScenarioConfig(scenario=cfg.scenario, params=cfg.params,
                             seed=args.seed)
    try:
        table = run_scenario(cfg)
    except SimulationError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = out_dir / cfg.scenario
    if args.format == "csv":
        (base.with_suffix(".csv")).write_text(table.to_csv())
        (base.with_suffix(".meta.json")).write_text(table.sidecar_json())
    else:
        (base.with_suffix(".json")).write_text(table.to_json())

    for a in table.assertions:
        status = "PASS" if a.passed else "FAIL"
        print(f"{status} {cfg.scenario}.{a.name}: value={a.value:.6g} "
              f"tolerance={a.tolerance:.6g}")
    print(f"wrote {base}.{args.format} ({len(table.values)} rows, "
          f"seed={cfg.seed}, hash={cfg.config_hash()})")
    return 0 if table.all_passed else 1


def _cmd_list(args) -> int:
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        print(f"{name}: {spec.doc}")
        for pname, p in spec.params.items():
            bounds = ""
            if p.low is not None or p.high is not None:
                lo = "-inf" if p.low is None else f"{p.low:g}"
                hi = "+inf" if p.high is None else f"{p.high:g}"
                bounds = f" range [{lo}, {hi}]"
            unit = f" [{p.unit}]" if p.unit else ""
            print(f"  {pname} ({p.kind.__name__}, default {p.default!r}{unit}"
                  f"{bounds}): {p.doc}")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = _load_config(args.config)
    except RangeError as exc:
        for violation in exc.violations:
            print(f"RANGE {violation}", file=sys.stderr)
        return 2
    except InvalidConfig as exc:
        print(f"PARSE {exc}", file=sys.stderr)
        return 2
    print(f"OK scenario={cfg.scenario} seed={cfg.seed} hash={cfg.config_hash()}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept, unchanged, for the process."""
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Run quantum measurement-theory scenarios from config files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to a YAML scenario config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
    p_run.add_argument("--out-dir", default=".", help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="csv table plus JSON sidecar, or a single JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list scenarios and their parameters")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to a YAML scenario config")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
