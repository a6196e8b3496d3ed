"""The span names behind the benchmark's per-layer metrics name real functions.

``bench/layers.py`` reads the tracer's spans by name (``<module>.<function>``
or ``<module>.<Class>.<method>``), and its counters read call arguments by
parameter name.  A span whose function was renamed or made private is simply
never recorded, and an argument whose parameter was renamed or removed is
simply absent, so the metric would read 0 instead of failing; these tests
fail instead.
"""

import importlib
import inspect
import re
import runpy
from pathlib import Path

LAYERS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "layers.py"))


def _function(span: str):
    """The function object the tracer wraps for ``span``."""
    module_name, name, *method = span.split(".")
    obj = vars(importlib.import_module(f"qmeasure.{module_name}"))[name]
    raw = vars(obj)[method[0]] if method else obj
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _traced(span: str) -> bool:
    """Whether the tracer wraps ``span``: a public function or class defined in its
    module, and for a method one defined in the class body itself."""
    module_name, name, *method = span.split(".")
    module = importlib.import_module(f"qmeasure.{module_name}")
    obj = vars(module).get(name)
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    if not method:
        return inspect.isfunction(obj)
    raw = vars(obj).get(method[0]) if inspect.isclass(obj) else None
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    return inspect.isfunction(raw) and (not method[0].startswith("_")
                                        or method[0] == "__init__")


def test_every_layer_span_is_traced():
    spans = ({s for spans in LAYERS["SELF_TIME"].values() for s in spans}
             | set(LAYERS["CALLS"].values()) | set(LAYERS["COUNTERS"]))
    assert spans
    assert sorted(s for s in spans if not _traced(s)) == []


def test_every_counter_argument_is_a_parameter():
    missing = []
    for span, counter in LAYERS["COUNTERS"].items():
        names = re.findall(r"""args\.get\(["'](\w+)["']""", inspect.getsource(counter))
        assert names, f"counter for {span} reads no argument"
        params = inspect.signature(_function(span)).parameters
        missing += [f"{span}({name})" for name in names if name not in params]
    assert missing == []
