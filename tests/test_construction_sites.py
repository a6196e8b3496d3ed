"""Every value type in ``src/qmeasure`` is built through its constructor.

``LinearOperator(matrix)`` and ``Observable(eigenvalues, basis, slices)``
are the only ways to build either, and every ``Hamiltonian`` holds its
spectrum from construction: ``Hamiltonian(op)`` diagonalizes, and
``Hamiltonian.from_eigenbasis`` is the one place that allocates an instance
without ``__init__``.  A side door that skips a constructor's checks, or a
half-built instance completed later, would bring back a second construction
path; these tests fail instead.  Likewise every Born-rule reader takes a
state through its ensemble columns, so none branches on pure or mixed.
"""

import ast
from pathlib import Path

import qmeasure

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(Path(qmeasure.__file__).parent.glob("*.py"))}


def _defs(node, prefix):
    """(qualified name, node) of every class and function under ``node``, nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield f"{prefix}.{child.name}", child
            yield from _defs(child, f"{prefix}.{child.name}")
        else:
            yield from _defs(child, prefix)


def _new_calls(node) -> list[int]:
    """The line of every ``<something>.__new__(...)`` call under ``node``."""
    return [call.lineno for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "__new__"]


def test_no_side_door_constructors():
    names = [name for module, tree in TREES.items() for name, node in _defs(tree, module)
             if isinstance(node, ast.FunctionDef)
             and node.name in ("_wrap", "_kinetic_plus_potential")]
    assert names == []


def test_one_allocation_without_init():
    sites = [(module, line) for module, tree in TREES.items() for line in _new_calls(tree)]
    method = dict(_defs(TREES["dynamics"], "dynamics"))["dynamics.Hamiltonian.from_eigenbasis"]
    assert len(sites) == 1
    assert sites == [("dynamics", line) for line in _new_calls(method)]


def _isinstance_targets(node) -> set[str]:
    """Each name an ``isinstance(x, T)`` or ``isinstance(x, (T, ...))`` under ``node`` checks."""
    return {name.id for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            for name in ast.walk(call.args[1]) if isinstance(name, ast.Name)}


def test_state_readers_have_no_pure_or_mixed_branch():
    hilbert = dict(_defs(TREES["hilbert"], "hilbert"))
    readers = {"measurement": TREES["measurement"], "histories": TREES["histories"],
               "hilbert.expectation": hilbert["hilbert.expectation"]}
    branches = {name: _isinstance_targets(node) & {"PureState", "DensityOperator"}
                for name, node in readers.items()}
    assert branches == dict.fromkeys(readers, set())
