"""No verdict depends on a cap or a seed: the public functions and methods
of `relwp` take neither, and the modules that decide comparisons draw no
random numbers."""

import ast
import importlib
import inspect
import os
import pkgutil

import relwp

# `spec_leq`'s `cap` is read by nothing but is bound by the bench's tracer.
ALLOWED = {("relwp.specmonads", "spec_leq", "cap")}

DECIDING = ("specmonads", "observations", "lp")


def _modules():
    return [importlib.import_module(f"relwp.{m.name}") for m in pkgutil.iter_modules(relwp.__path__)]


def _public_callables():
    """(module, qualified name, function) for every public function and
    every public method of a public class defined in a relwp module."""
    for mod in _modules():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod.__name__, name, obj
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth) and not mname.startswith("_"):
                        yield mod.__name__, f"{name}.{mname}", meth


def test_no_public_function_takes_a_cap_or_a_seed():
    found = {(mod, name, param)
             for mod, name, fn in _public_callables()
             for param in inspect.signature(fn).parameters if param in ("cap", "seed")}
    assert found == ALLOWED


def test_the_deciding_modules_import_no_random():
    for name in DECIDING:
        path = os.path.join(os.path.dirname(relwp.__file__), f"{name}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "random" for a in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "random", name
