"""The demos, the benchmark scripts and the tools use only names the package still defines.

Each ``demos/*.py``, ``perfbench/*.py`` and ``tools/*.py`` file is parsed
with ``ast`` and never run.  Every ``from cdpam... import name`` must name
something its module defines, every ``<alias>.attr`` read through a name
bound to a cdpam module must exist, and every keyword passed to a cdpam
callable, as in ``T.batch_norm1d(..., train=True)`` or
``TrainConfig(epochs=...)``, must be one of its parameters.  A deletion or a
signature change in the package that would break a demo, the benchmark or a
tool then fails here, not when the script next runs.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"),
                  *ROOT.glob("tools/*.py")])
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
    """Names `scope` binds: to the cdpam module or object imported, or to None otherwise.

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
                obj = _module(f"{node.module}.{alias.name}")
                if obj is None:
                    owner = _module(node.module)
                    if not hasattr(owner, alias.name):
                        missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
                    obj = getattr(owner, alias.name, None)
                bound[alias.asname or alias.name] = obj
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


def _resolve(expr, chain: list):
    """The cdpam object `expr`, a name or a chain of attributes on one, refers to, or None."""
    if isinstance(expr, ast.Name):
        return next((s[expr.id] for s in reversed(chain) if expr.id in s), None)
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, chain)
        return None if owner is None else getattr(owner, expr.attr, None)
    return None


def _unknown_keywords(call: ast.Call, func) -> list:
    """The keywords of `call` that `func` has no parameter for."""
    try:
        params = inspect.signature(func).parameters.values()
    except (TypeError, ValueError):  # a callable without an introspectable signature
        return []
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return []
    names = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
    return [kw.arg for kw in call.keywords if kw.arg is not None and kw.arg not in names]


def _check(scope, chain: list, missing: list) -> None:
    """Append each cdpam reference under `scope` that does not exist to `missing`.

    `chain` holds the bindings of the enclosing scopes, innermost last.
    """
    chain = chain + [_bindings(scope, missing)]
    for node in _own_nodes(scope):
        if isinstance(node, SCOPES):
            _check(node, chain, missing)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = _resolve(node.value, chain)
            if inspect.ismodule(module) and not hasattr(module, node.attr):
                missing.append(f"line {node.lineno}: {module.__name__}.{node.attr}")
        elif isinstance(node, ast.Call):
            func = _resolve(node.func, chain)
            if callable(func) and _module(getattr(func, "__module__", None) or "") is not None:
                missing.extend(f"line {node.lineno}: {func.__module__}.{func.__qualname__}({kw}=)"
                               for kw in _unknown_keywords(node, func))


def unresolved(source: str) -> list:
    """The cdpam references and keywords in `source` that do not exist."""
    missing: list = []
    _check(ast.parse(source), [], missing)
    return missing


def test_scripts_found():
    assert {path.parent.name for path in SCRIPTS} == {"demos", "perfbench", "tools"}


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


def test_reports_unknown_keywords():
    # a keyword must name a parameter of the cdpam callable it is passed to, whether that
    # is imported by name, read off a module alias or a class; **kwargs is not checked
    source = ("from cdpam import tensor as T\n"
              "from cdpam.trainer import TrainConfig\n"
              "from cdpam.model import PerceptualModel\n"
              "T.batch_norm1d(x, g, b, rm, rv, train=True, slope=0.2, gone=1)\n"
              "TrainConfig(epochs=2, batches_per_mode=1, **extra)\n"
              "PerceptualModel.initialize(cfg, seed=0, scale=2)\n"
              "T.conv1d(x, w, stride=2, slope=0.2)\n")
    assert sorted(unresolved(source)) == [
        "line 4: cdpam.tensor.batch_norm1d(gone=)",
        "line 5: cdpam.trainer.TrainConfig(batches_per_mode=)",
        "line 6: cdpam.model.PerceptualModel.initialize(scale=)"]
