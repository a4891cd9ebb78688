"""perfbench reaches the package by name: its tracer wraps functions and
methods by attribute name, and its hd_memory workload calls library functions
with positional arguments. These tests fail when a rename or a dropped
parameter would break a benchmark run."""

import ast
import importlib
import inspect
import sys

import numpy as np

from conftest import REPO

PERFBENCH = REPO / "perfbench"


def _bindings() -> dict:
    """Every module-level name and class attribute of the loaded eventscan modules, plus np.save/np.load."""
    out = {("numpy", "save"): np.save, ("numpy", "load"): np.load}
    for modname, mod in list(sys.modules.items()):
        if modname != "eventscan" and not modname.startswith("eventscan."):
            continue
        for name, value in vars(mod).items():
            out[(modname, name)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    out[(modname, name, attr)] = member
    return out


def test_tracer_wraps_every_hook_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # every module instrument reaches, loaded before the snapshot
    from eventscan import cli, decode, deflectometry, events, formats, metrics, pipeline, scene, separate, simulate, triangulate  # noqa: F401

    assign_sweeps, save_binary = decode.assign_sweeps, events.EventStream.__dict__["save_binary"]
    before = _bindings()
    # raises KeyError or AttributeError when a hooked name is gone
    undo = tracing.instrument(tracing.Recorder("tier1"), stage_functions=True)
    try:
        assert decode.assign_sweeps is not assign_sweeps
        assert events.EventStream.__dict__["save_binary"] is not save_binary
    finally:
        tracing.restore(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_hd_workload_calls_bind_to_the_library():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    run_hd = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "run_hd")
    (imports,) = [node for node in ast.walk(run_hd) if isinstance(node, ast.ImportFrom) and node.module == "eventscan"]
    modules = {alias.name for alias in imports.names}
    bound = []
    for call in ast.walk(run_hd):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and getattr(call.func.value, "id", None) in modules:
            fn = getattr(importlib.import_module(f"eventscan.{call.func.value.id}"), call.func.attr)
            # TypeError when the call no longer fits the signature
            inspect.signature(fn).bind(*[None] * len(call.args), **{kw.arg: None for kw in call.keywords})
            bound.append((call.func.value.id, call.func.attr, len(call.args)))
    assert ("decode", "assign_sweeps", 4) in bound
    assert ("deflectometry", "iterative_shape", 2) in bound
