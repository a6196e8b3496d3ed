"""Every refusal in ``scenarios.py`` is raised by one of two functions.

``validate_config`` reports the per-field violations of a config, and
``_require`` raises the runners' cross-field refusals, each built from a
(field, holds, why) entry as ``params.<field>: <value> <why>``.  A
``RangeError`` raised anywhere else would build its own message, which
could name no field or several; this test fails instead.
"""

import ast
from pathlib import Path

from qmeasure import scenarios


def _raised_name(node: ast.Raise) -> str | None:
    """The name of the class a ``raise`` statement raises, with or without a call."""
    target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(target, ast.Name):
        return target.id
    return target.attr if isinstance(target, ast.Attribute) else None


def test_range_errors_are_raised_only_by_require_and_validate_config():
    tree = ast.parse(Path(scenarios.__file__).read_text())
    sites = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        sites += [owner for node in ast.walk(top)
                  if isinstance(node, ast.Raise) and _raised_name(node) == "RangeError"]
    assert sorted(sites) == ["_require", "validate_config"]
