"""The demos and the benchmark scripts use only names the package still defines.

Each ``demos/*.py`` and ``perfbench/*.py`` file is parsed with ``ast`` and
never run.  Every ``from cdpam... import name`` must name something its
module defines, and every ``<alias>.attr`` read through a name bound to a
cdpam module must exist.  A deletion in the package that would break a demo
or the benchmark then fails here, not when the script next runs.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _module(name: str):
    """The cdpam module called `name`, or None if `name` is not one."""
    if name != "cdpam" and not name.startswith("cdpam."):
        return None
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _own_nodes(scope):
    """The nodes of `scope` outside any nested function, lambda or class body."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope, missing: list) -> dict:
    """Names `scope` binds: to a cdpam module, or to None for anything else.

    A ``from cdpam... import`` of a name that is not a module is checked here.
    """
    bound: dict = {}
    if not isinstance(scope, (ast.Module, ast.ClassDef)):
        args = scope.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None:
                bound[arg.arg] = None
    for node in _own_nodes(scope):
        if isinstance(node, ast.ImportFrom) and node.module and _module(node.module):
            for alias in node.names:
                module = _module(f"{node.module}.{alias.name}")
                if module is None and not hasattr(_module(node.module), alias.name):
                    missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
                bound[alias.asname or alias.name] = module
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = _module(alias.name if alias.asname else top)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.setdefault(node.id, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.setdefault(node.name, None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, None)
    return bound


def _check(scope, chain: list, missing: list) -> None:
    """Append each cdpam reference under `scope` that does not exist to `missing`.

    `chain` holds the bindings of the enclosing scopes, innermost last.
    """
    chain = chain + [_bindings(scope, missing)]
    for node in _own_nodes(scope):
        if isinstance(node, SCOPES):
            _check(node, chain, missing)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = next((s[node.value.id] for s in reversed(chain) if node.value.id in s), None)
            if module is not None and not hasattr(module, node.attr):
                missing.append(f"line {node.lineno}: {module.__name__}.{node.attr}")


def unresolved(source: str) -> list:
    """The cdpam references in `source` that do not exist."""
    missing: list = []
    _check(ast.parse(source), [], missing)
    return missing


def test_scripts_found():
    assert {path.parent.name for path in SCRIPTS} == {"demos", "perfbench"}


@pytest.mark.parametrize("path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_every_cdpam_reference_exists(path):
    missing = unresolved(path.read_text(encoding="utf-8"))
    assert not missing, f"{path.name} uses names cdpam no longer defines: {missing}"


def test_reports_missing_names():
    # inside f, `model` is its parameter, not the module imported on line 2
    source = ("from cdpam.model import PerceptualModel, nope\n"
              "from cdpam import model, tensor as T\n"
              "def f(model):\n"
              "    from cdpam import datagen as d\n"
              "    return T.conv1d, T.gone, d.synth_corpus, d.gone, model.anything\n"
              "g = lambda: (model.load_checkpoint, model.gone)\n")
    assert sorted(unresolved(source)) == [
        "line 1: cdpam.model.nope", "line 5: cdpam.datagen.gone", "line 5: cdpam.tensor.gone",
        "line 6: cdpam.model.gone"]
