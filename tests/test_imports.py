"""No module in ``src/qmeasure`` imports a name it never uses.

An import left behind when its last use is deleted still loads and passes
every other test; this one names it instead.  ``__init__`` is exempt: its
imports are the package's public surface.
"""

import ast
from pathlib import Path

import pytest

import qmeasure

MODULES = sorted(path for path in Path(qmeasure.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


def _imported(tree) -> set[str]:
    """The names that every import statement under ``tree`` binds, ``__future__`` aside."""
    return {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" for alias in node.names}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []
