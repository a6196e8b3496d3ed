"""Every public function and class a layer module exports is named in the README.

``qmeasure/__init__.py`` re-exports each layer module's public surface, and
the README's "Library layout" table has one row per module.  A function or
class that is exported but missing from its row leaves the table stale; this
test fails on it instead.  Error classes and the ``SIGMA_*`` constants are
exempt.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import qmeasure

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("hilbert", "dynamics", "measurement", "modeling", "zeno", "indefiniteness",
          "histories", "scenarios")


def _exports() -> dict[str, list[str]]:
    """module -> the names ``qmeasure/__init__.py`` imports from it."""
    tree = ast.parse(Path(qmeasure.__file__).read_text())
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1}


def _layout_rows() -> dict[str, str]:
    """module -> the contents cell of its row in the README's "Library layout" table."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `qmeasure\.(\w+)` \| (.*) \|$", section, flags=re.M))


def _documented(name: str) -> bool:
    obj = getattr(qmeasure, name)
    if name.startswith(("_", "SIGMA_")):
        return False
    if inspect.isclass(obj):
        return not issubclass(obj, Exception)
    return inspect.isfunction(obj)


@pytest.mark.parametrize("module", LAYERS)
def test_every_exported_name_is_in_its_layout_row(module):
    row = _layout_rows()[module]
    names = [name for name in _exports()[module] if _documented(name)]
    assert names
    assert [name for name in names if not re.search(rf"`{name}[`(]", row)] == []
