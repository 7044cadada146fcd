"""Every module imports on its own, the package root imports nothing, and
the package defines nothing that its products never reach."""

import ast
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import mobinc

PACKAGE_DIR = Path(mobinc.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_each_module_imports_in_a_fresh_interpreter():
    names = ["mobinc"] + sorted(
        f"mobinc.{path.stem}" for path in PACKAGE_DIR.glob("*.py")
        if path.stem != "__init__"
    )
    for name in names:
        done = _fresh(f"import {name}")
        assert done.returncode == 0, f"import {name} failed:\n{done.stderr}"


def test_io_loads_neither_applications_nor_pivot():
    # The file loaders need the set types, not the algorithms that use them.
    done = _fresh("import sys, mobinc.io; print(*sorted(sys.modules))")
    loaded = set(done.stdout.split())
    assert done.returncode == 0 and "mobinc.io" in loaded and "mobinc.incidence" in loaded
    assert not loaded & {"mobinc.applications", "mobinc.pivot"}


def test_incidence_loads_no_pivot():
    # The group scan is the oracle of the pivot enumeration: it shares no code.
    done = _fresh("import sys, mobinc.incidence; print(*sorted(sys.modules))")
    loaded = set(done.stdout.split())
    assert done.returncode == 0 and "mobinc.incidence" in loaded
    assert "mobinc.pivot" not in loaded


def test_cli_defines_no_work_limit():
    # Each work limit lives beside the kernel it bounds, and the kernel
    # refuses it, so that no cost model drifts back into the front end.
    import mobinc.cli as cli

    assert [name for name in vars(cli) if name.startswith("MAX_")] == []


# Definitions kept although no product path names them, each with its reason.
_KEPT = {
    "energy_brute": "the quadruple-loop oracle of energy, which the tests run",
}


def _mentions(nodes, skip=()):
    """Each name the code mentions: a Name, an attribute, an import alias or a
    string constant (cli looks loaders up by their names), outside skip."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        stack.extend(ast.iter_child_nodes(node))


def _unreached() -> list[str]:
    """The functions, classes and non-dunder methods of src/mobinc whose names
    nothing reached mentions.  Module-level code, scripts/*.py, bench/*.py
    and _KEPT mention the first names; a definition with a mentioned name is
    reached, and its body, a class's with its dunder methods and without its
    other methods, mentions more."""
    units, mentioned = {}, set(_KEPT)
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                mentioned.update(_mentions([node]))
                continue
            methods = []
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
            units[f"{path.stem}.{node.name}"] = (node.name, node, methods)
            for m in methods:
                units[f"{path.stem}.{node.name}.{m.name}"] = (m.name, m, ())
    for path in chain(sorted(ROOT.glob("scripts/*.py")), sorted(ROOT.glob("bench/*.py"))):
        mentioned.update(_mentions([ast.parse(path.read_text())]))
    reached, grew = set(), True
    while grew:
        grew = False
        for qual, (name, node, skip) in units.items():
            if qual not in reached and name in mentioned:
                reached.add(qual)
                mentioned.update(_mentions([node], skip))
                grew = True
    return sorted(set(units) - reached)


def test_every_definition_is_reached_by_a_product_path():
    """The library holds only what the CLI, the sweep, scripts/ and bench/
    reach; a test-only helper belongs in tests/reference.py.

    Names, not a call graph: a definition counts as reached when its name
    is mentioned anywhere reached, so a helper whose name is also a local
    variable, an attribute or a string of reached code slips through.
    """
    unreached = _unreached()
    assert not unreached, (
        "defined in src/mobinc but reached by no product path: " + ", ".join(unreached)
    )
