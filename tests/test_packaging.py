"""The package is what pyproject.toml declares: every package it finds and
every entry point it names imports, and every package-data glob matches."""

import glob
import importlib
import os
import pkgutil

import pytest
from setuptools import find_packages

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
    CONFIG = tomllib.load(fh)

SETUPTOOLS = CONFIG.get("tool", {}).get("setuptools", {})
WHERE = [os.path.join(ROOT, w) for w in SETUPTOOLS["packages"]["find"]["where"]]


def _packages():
    return [(base, pkg) for base in WHERE for pkg in find_packages(where=base)]


def test_declared_packages_are_found_with_every_module_importable():
    found = [pkg for _, pkg in _packages()]
    assert "relwp" in found
    for base, pkg in _packages():
        importlib.import_module(pkg)
        path = [os.path.join(base, *pkg.split("."))]
        for mod in pkgutil.iter_modules(path):
            importlib.import_module(f"{pkg}.{mod.name}")


def test_declared_entry_points_import():
    project = CONFIG["project"]
    groups = [project.get("scripts", {}), project.get("gui-scripts", {})]
    groups += list(project.get("entry-points", {}).values())
    for group in groups:
        for target in group.values():
            module, _, attr = target.partition(":")
            obj = importlib.import_module(module.strip())
            for part in filter(None, attr.strip().split(".")):
                obj = getattr(obj, part)
            assert callable(obj), target


def test_package_data_globs_match_files():
    for pkg, patterns in SETUPTOOLS.get("package-data", {}).items():
        dirs = [os.path.join(base, *pkg.split(".")) for base in WHERE]
        for pattern in patterns:
            assert any(glob.glob(os.path.join(d, pattern)) for d in dirs), (pkg, pattern)
