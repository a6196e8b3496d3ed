"""Run one qmeasure benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One op is one in-process ``qmeasure.cli.main(["run", <config>, "--out-dir",
<dir>])`` call, driven in a closed loop by a single client.  A run sets up,
runs one untimed warm-up cycle of the workload's configs, then runs whole
cycles until ``--seconds`` have passed, checking every op's outputs.

``--trace 0`` reports the end-to-end metrics with the program untouched.
``--trace 1`` alternates traced and untraced cycles and reports the
per-layer metrics of the traced ones (see README.md).  The last line of
standard output is the JSON result; the lines before it name every metric
with its unit, and the run record (environment, metrics, per-op times) is
written to ``.bench_out/`` under the checkout root, next to the span file
of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Checker
from layers import COUNTERS, LAYERS, MAXIMA, layer_metrics, unit
from tracer import Tracer, self_times
from workloads import WORKLOADS, write_configs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def import_program():
    """Import qmeasure from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qmeasure
    import qmeasure.cli
    if not Path(qmeasure.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"qmeasure imported from {qmeasure.__file__}, not {SRC}")
    return qmeasure


def set_up(workload: str, seed: int, work_dir: Path):
    """What a user pays before the first op: import, write and validate configs."""
    qmeasure = import_program()
    configs = write_configs(workload, seed, work_dir / "configs")
    for _, path in configs:
        qmeasure.validate_config(path.read_text())
    return qmeasure, configs


def measure_setup(workload: str, seed: int, work_dir: Path) -> float:
    """Median wall time from spawning a fresh process until it is set up."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work_dir / f"probe{i}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


class Client:
    """Runs ops through the CLI entry point and checks what they wrote."""

    def __init__(self, cli_main, checker, out_dir: Path):
        self.cli_main = cli_main
        self.checker = checker
        self.out_dir = out_dir
        self.sink = io.StringIO()

    def op(self, scenario: str, config: Path, main=None) -> dict:
        for suffix in (".csv", ".meta.json"):
            (self.out_dir / f"{scenario}{suffix}").unlink(missing_ok=True)
        self.sink.seek(0)
        self.sink.truncate()
        argv = ["run", str(config), "--out-dir", str(self.out_dir)]
        error = None
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            start = time.perf_counter()
            try:
                code = (main or self.cli_main)(argv)
            except Exception as exc:  # a raising op is a failed op, not a crash
                code, error = None, repr(exc)
            seconds = time.perf_counter() - start
        problems, identical = self.checker.check(scenario, code, self.out_dir)
        if error:
            problems.insert(0, f"{scenario}: raised {error}")
        return {"scenario": scenario, "seconds": seconds, "exit_code": code,
                "problems": problems, "identical": identical}


def run_cycles(client: Client, configs, seconds: float, tracer=None) -> list[dict]:
    """Whole cycles until ``seconds`` pass; with a tracer, every other one traced.

    A traced run makes at least two cycles, so it has untraced ops to
    compare with for the tracing overhead.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    traced_main = tracer.span("op", client.cli_main) if tracer else None
    cycle = 0
    while cycle < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        try:
            for scenario, config in configs:
                if traced:
                    tracer.current_op = len(ops)
                op = client.op(scenario, config, traced_main if traced else None)
                op["traced"] = traced
                ops.append(op)
        finally:
            if traced:
                tracer.uninstall()
        cycle += 1
    return ops


def end_to_end(ops: list[dict], setup_s: float) -> dict:
    times = [op["seconds"] for op in ops]
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def make_tracer(qmeasure):
    """A tracer over every layer module, rebinding names in the package and CLI."""
    modules = [importlib.import_module(f"qmeasure.{name}") for name in LAYERS]
    return Tracer(modules, modules + [qmeasure, qmeasure.cli], COUNTERS, MAXIMA)


def per_layer(ops: list[dict], tracer) -> dict:
    spans = tracer.arrays()
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    values = layer_metrics(tracer.names, spans["name_id"],
                           self_times(spans["start"], spans["end"], spans["parent"]),
                           tracer.counts, len(traced))
    values["scenarios.outputs_byte_identical"] = (
        sum(op["identical"] for op in traced) / len(traced))
    mean_s = lambda group: sum(op["seconds"] for op in group) / len(group)
    values["trace_overhead_frac"] = mean_s(traced) / mean_s(plain) - 1.0
    return {name: (value, unit(name)) for name, value in values.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    work_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            qmeasure, configs = set_up(args.workload, args.seed, work_dir)
        except ImportError as exc:
            print(f"cannot import qmeasure from {SRC}: {exc}", file=sys.stderr)
            return 2
        setup_s = measure_setup(args.workload, args.seed, work_dir)
        client = Client(qmeasure.cli.main, Checker(args.seed), work_dir / "out")
        warm = [client.op(scenario, config) for scenario, config in configs]
        tracer = make_tracer(qmeasure) if args.trace else None
        ops = run_cycles(client, configs, args.seconds, tracer)
        metrics = per_layer(ops, tracer) if tracer else end_to_end(ops, setup_s)
        if tracer:
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [p for op in warm + ops for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": len(ops), "failed": failed, "problems": problems,
              "ops": [{k: op[k] for k in ("scenario", "seconds", "exit_code", "traced")
                       if k in op} for op in ops]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"CHECK FAILED {problem}")
    print(f"environment: {json.dumps(env)}")
    times = [op["seconds"] for op in ops]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(ops) > 1 \
        else times[0]
    print(f"workload {args.workload}: {len(ops)} ops in {len(ops) // len(configs)} "
          f"cycles, failed_frac = {failed / len(ops):.6g}, "
          f"op_s_p90 = {p90:.6g} s (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
