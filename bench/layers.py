"""Per-layer metrics of the traced run, in terms of the tracer's spans.

A layer is one ``qmeasure`` module.  Span names are ``<module>.<function>``
or ``<module>.<Class>.<method>``; a span's layer is its module.  Time
metrics sum the self time (span minus child spans) of the listed spans;
``_calls`` metrics count spans; the remaining counts are computed from call
arguments by the counters below.  Every value is divided by the number of
traced ops, so a metric reads per op and does not grow with run length.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("scenarios", "dynamics", "measurement", "histories", "zeno",
          "modeling", "indefiniteness", "hilbert")

# metric -> span names whose self time it sums
SELF_TIME = {
    "scenarios.validate_s": ["scenarios.validate_config", "scenarios.ParamSpec.check"],
    "scenarios.run_self_s": ["scenarios.run_scenario"],
    "scenarios.serialize_s": ["scenarios.ResultTable.to_csv",
                              "scenarios.ResultTable.sidecar_json",
                              "scenarios.ResultTable.sidecar"],
    "dynamics.evolve_s": ["dynamics.Hamiltonian.evolve"],
    "dynamics.free_hamiltonian_s": ["dynamics.free_hamiltonian",
                                    "dynamics.barrier_hamiltonian"],
    "dynamics.fourier_map_s": ["dynamics.fourier_map"],
    "dynamics.grid_operators_s": ["dynamics.build_grid_operators"],
    "dynamics.propagate_s": ["dynamics.propagate"],
    "measurement.povm_build_s": ["measurement.Povm.__init__",
                                 "measurement.Povm.from_rank_one",
                                 "measurement.build_phase_space_povm",
                                 "measurement.build_fuzzy_povm"],
    "measurement.completeness_s": ["measurement.Povm.completeness_deficit"],
    "measurement.povm_distribution_s": ["measurement.povm_distribution"],
    "measurement.born_s": ["measurement.born_distribution"],
    "histories.historyset_build_s": ["histories.HistorySet.__init__"],
    "histories.decoherence_s": ["histories.decoherence_functional",
                                "histories.DecoherenceFunctional.__init__"],
    "histories.consistency_s": ["histories.is_consistent"],
    "histories.coarse_grain_s": ["histories.coarse_grain"],
    "zeno.iterated_projection_s": ["zeno.iterated_projection_survival"],
    "zeno.rabi_s": ["zeno.rabi_zeno"],
    "zeno.build_model_s": ["zeno.build_decay_model", "zeno.DecayModel.__init__"],
    "modeling.build_unitary_s": ["modeling.build_measurement_unitary",
                                 "modeling.MeasurementModel.__init__"],
    "modeling.joint_s": ["modeling.repeated_measurement_joint",
                         "modeling.collapse_rule_joint"],
    "modeling.single_measurement_s": ["modeling.modeled_single_measurement"],
    "indefiniteness.scan_s": ["indefiniteness.indefiniteness_scan"],
    "indefiniteness.delocalization_s": ["indefiniteness.delocalization_demo"],
    "indefiniteness.region_projector_s": ["indefiniteness.region_projector"],
    "hilbert.linear_operator_s": ["hilbert.LinearOperator.__init__"],
    "hilbert.spectral_decompose_s": ["hilbert.spectral_decompose"],
}

# metric -> span name whose calls it counts
CALLS = {
    "dynamics.evolve_calls": "dynamics.Hamiltonian.evolve",
    "hilbert.linear_operator_calls": "hilbert.LinearOperator.__init__",
}

COMPLEX_BYTES = np.dtype(complex).itemsize


def _size(x) -> int:
    return int(np.size(getattr(x, "matrix", x)))


def _operator_copy(args):
    # LinearOperator(matrix) stores a complex copy of its argument
    yield "hilbert.operator_bytes_copied", _size(args.get("matrix", ())) * COMPLEX_BYTES


def _rank_one(args):
    yield "measurement.rank_one_effects", len(args.get("vectors", ()))


def _history_projectors(args):
    yield "histories.projector_bytes", COMPLEX_BYTES * sum(
        _size(p) for family in args.get("families", ()) for p in family)


def _projection_cycles(args):
    delta, horizon = args.get("delta"), args.get("horizon")
    if delta and horizon is not None and delta > 0:
        yield "zeno.projection_cycles", int(np.floor(horizon / delta + 1e-12))


def _rabi_cycles(args):
    yield "zeno.projection_cycles", int(args.get("n_projections", 0))


def _hamiltonian_dim(args):
    dim = getattr(args.get("op"), "dim", None)
    if dim is not None:
        yield "dynamics.max_dim", int(dim)


# span name -> counter(arguments by parameter name) -> (count key, value)...
COUNTERS = {
    "hilbert.LinearOperator.__init__": _operator_copy,
    "measurement.Povm.from_rank_one": _rank_one,
    "histories.HistorySet.__init__": _history_projectors,
    "zeno.iterated_projection_survival": _projection_cycles,
    "zeno.rabi_zeno": _rabi_cycles,
    "dynamics.Hamiltonian.__init__": _hamiltonian_dim,
}
MAXIMA = frozenset({"dynamics.max_dim"})
COUNT_KEYS = ("zeno.projection_cycles", "measurement.rank_one_effects",
              "histories.projector_bytes", "hilbert.operator_bytes_copied",
              "dynamics.max_dim")

UNITS = {"_s": "s/op", "_calls": "count/op", "_bytes": "B/op", "_copied": "B/op",
         "_effects": "count/op", "_cycles": "count/op", "_identical": "count/op",
         "max_dim": "count", "_frac": "ratio"}


def unit(metric: str) -> str:
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


def layer_metrics(names: list[str], name_id: np.ndarray, self_s: np.ndarray,
                  counts: dict[str, float], n_ops: int) -> dict[str, float]:
    """Per-op values of every per-layer metric from spans and counters."""
    self_by_id = np.bincount(name_id, weights=self_s, minlength=len(names))
    calls_by_id = np.bincount(name_id, minlength=len(names))
    by_name = dict(zip(names, self_by_id.tolist()))
    calls = dict(zip(names, calls_by_id.tolist()))
    out: dict[str, float] = {}
    for metric, spans in SELF_TIME.items():
        out[metric] = sum(by_name.get(s, 0.0) for s in spans) / n_ops
    for metric, span in CALLS.items():
        out[metric] = calls.get(span, 0) / n_ops
    for key in COUNT_KEYS:
        value = counts.get(key, 0)
        out[key] = value if key in MAXIMA else value / n_ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, t in by_name.items()
                                     if name.split(".", 1)[0] == layer) / n_ops
    return out
