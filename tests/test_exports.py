"""Each public name has one import path, is used by the package, and the README's examples run.

The package itself exports only ``__version__``; every other public name
is listed in the ``__all__`` of the one submodule that defines it. Every
exported function or class is read by package code other than its own
definition, save the few ``UNUSED_EXPORTS`` names.
"""

import ast
import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import re

import pytest

import dynwalk
from dynwalk.graph_model import parse_dynamic_graph

SUBMODULES = [f"dynwalk.{info.name}" for info in pkgutil.iter_modules(dynwalk.__path__)]
MODULES = ["dynwalk"] + SUBMODULES
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
# Exported functions that no package code reads by name: the commands,
# which ``main`` looks up by name, and ``phase_distance``, which stays
# because perfbench's ``Tracer.summary`` indexes it by name (ROADMAP item 1).
UNUSED_EXPORTS = {f"dynwalk.cli.cmd_{command}" for command in ("simulate", "unitary", "optimize", "compile", "equiv", "stats")}
UNUSED_EXPORTS |= {"dynwalk.numerics.phase_distance"}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)


def test_the_package_exports_only_its_version():
    assert dynwalk.__all__ == ["__version__"]


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_exported_functions_and_classes_are_defined_where_they_are_listed(module_name):
    module = importlib.import_module(module_name)
    defined = [getattr(module, name) for name in module.__all__]
    functions_and_classes = [obj for obj in defined if inspect.isfunction(obj) or inspect.isclass(obj)]
    assert [obj.__qualname__ for obj in functions_and_classes if obj.__module__ != module_name] == []


def names_read(tree):
    """Every name the module loads as an ``ast.Name`` or imports, outside the top-level definition of that name."""
    read = set()
    for node in tree.body:
        own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id != own:
                read.add(child.id)
            elif isinstance(child, ast.ImportFrom):
                read.update(alias.name for alias in child.names)
    return read


def test_every_exported_function_and_class_is_read_by_the_package():
    read = set()
    for module_name in MODULES:
        with open(importlib.import_module(module_name).__file__, encoding="utf-8") as handle:
            read |= names_read(ast.parse(handle.read()))
    unread = set()
    for module_name in SUBMODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and name not in read:
                unread.add(f"{module_name}.{name}")
    assert sorted(unread - UNUSED_EXPORTS) == []
    # and the allowlist names only exports that are still unread
    assert sorted(UNUSED_EXPORTS - unread) == []


def test_no_name_is_listed_by_two_modules():
    owners = {}
    for module_name in MODULES:
        for name in importlib.import_module(module_name).__all__:
            owners.setdefault(name, []).append(module_name)
    assert {name: listed for name, listed in owners.items() if len(listed) > 1} == {}


def readme_blocks(language):
    with open(README, encoding="utf-8") as handle:
        return re.findall(rf"^```{language}\n(.*?)^```$", handle.read(), flags=re.MULTILINE | re.DOTALL)


def test_the_readme_quick_tour_runs():
    (tour,) = readme_blocks("python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(tour, README, "exec"), {})
    # the comment on the tour's print line states what it prints
    assert printed.getvalue() == re.search(r"^print\(.*\)  # (.*)$", tour, re.MULTILINE).group(1) + "\n"


def test_the_readme_walk_example_parses():
    (walk_text,) = readme_blocks("json")
    walk = parse_dynamic_graph(walk_text)
    assert walk.n_vertices == 4 and walk.graph_count == 1
    (step,) = walk.steps
    assert (step.graph.edges, step.graph.loops, step.pi_num, step.pi_den) == ({(0, 1)}, {2}, 1, 2)
