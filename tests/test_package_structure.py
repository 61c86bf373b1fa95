"""Import structure of the package: every intra-package import sits at module
level and is used, no protocol module reaches into another's private helpers,
the module import graph has no cycles, and importing the CLI leaves out
``scipy.stats``, which costs about half a second of cold start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcvv

PACKAGE = Path(qcvv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
PROTOCOLS = {"rb", "cycles", "fidelity", "volumetrics"}


def _relative_imports(tree):
    """(node, inside a function or class body) for each relative import."""
    out = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                out.append((child, nested))
            scoped = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
            visit(child, nested or scoped)

    visit(tree, False)
    return out


def _targets(node):
    """Sibling modules named by a relative import node."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_package_modules_found():
    assert {"cliffords", "rb", "cycles", "device"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_relative_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    nested = [f"{path.name}:{node.lineno}" for node, inside in _relative_imports(tree) if inside]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_relative_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{node.lineno} {alias.asname or alias.name}"
        for node, inside in _relative_imports(tree)
        if not inside
        for alias in node.names
        if (alias.asname or alias.name) not in used
    ]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_protocol_modules(path):
    tree = ast.parse(path.read_text(), str(path))
    private = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for node, _ in _relative_imports(tree)
        if node.level == 1 and node.module in PROTOCOLS
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_module_import_graph_is_acyclic():
    names = {path.stem for path in MODULES}
    graph = {
        path.stem: {t for node, _ in _relative_imports(ast.parse(path.read_text())) for t in _targets(node) if t in names}
        for path in MODULES
    }
    state = {}

    def cycle_from(name, stack):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                return stack + [name, dep]
            if dep not in state:
                found = cycle_from(dep, stack + [name])
                if found:
                    return found
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            assert cycle_from(name, []) is None


def test_cli_import_leaves_out_scipy_stats():
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import qcvv.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
