"""Guards on how the package meets its runtime environment.

* numpy is a declared dependency, but it is imported lazily: the SWP
  study imports every vectorised layer yet runs none of them, so a run
  must leave numpy unloaded.
* Each layer has one production engine, so no environment variable may
  pick between equal paths.  The only variables read are those that
  change output (``REPRO_NO_MOVE_RESOLVER``, the baseline that
  ``bench-moves`` compares against) or pick a deployment location
  (``REPRO_SERVICE_STORE``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ALLOWED_ENV = {"REPRO_NO_MOVE_RESOLVER", "REPRO_SERVICE_STORE"}
#: ``os.environ`` methods that take a variable name first
_KEYED_METHODS = {"get", "pop", "setdefault"}


def test_swp_study_leaves_numpy_unloaded():
    prog = (
        "import sys\n"
        "from repro.experiments.swp import run_swp_experiment\n"
        "run_swp_experiment(n_loops=30, jobs=1)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", prog], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.strip() == "False"


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _string_constants(trees):
    """Module-level ``NAME = "..."`` assignments across the package, so
    a variable named through a constant still resolves."""
    consts = {}
    for tree in trees.values():
        for stmt in tree.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                consts[stmt.targets[0].id] = stmt.value.value
    return consts


def _env_accesses(tree):
    """``(line, key node or None)`` for every ``os.environ``/``os.getenv``
    use; ``None`` marks a use that names no variable."""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    yield node.lineno, None
        if (isinstance(node, ast.Attribute) and node.attr == "getenv"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            call = parents.get(node)
            key = call.args[0] if isinstance(call, ast.Call) and call.args \
                else None
            yield node.lineno, key
        if not _is_environ(node):
            continue
        up = parents.get(node)
        if isinstance(up, ast.Subscript) and up.value is node:
            yield node.lineno, up.slice
        elif (isinstance(up, ast.Attribute) and up.attr in _KEYED_METHODS
              and isinstance(parents.get(up), ast.Call)
              and parents[up].args):
            yield node.lineno, parents[up].args[0]
        elif isinstance(up, ast.Compare) and up.comparators == [node]:
            yield node.lineno, up.left
        elif (isinstance(up, ast.Call) and isinstance(up.func, ast.Name)
              and up.func.id == "dict" and up.args == [node]):
            continue  # whole-environment copy handed to a child process
        else:
            yield node.lineno, None


def test_only_output_changing_switches_are_read():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    consts = _string_constants(trees)
    bad = []
    for path, tree in trees.items():
        for line, key in _env_accesses(tree):
            if isinstance(key, ast.Constant):
                name = key.value
            elif isinstance(key, ast.Name):
                name = consts.get(key.id)
            else:
                name = None
            if name not in ALLOWED_ENV:
                bad.append(f"{path.relative_to(SRC)}:{line}: {name!r}")
    assert not bad, "environment reads outside the allowed set:\n" + \
        "\n".join(bad)
