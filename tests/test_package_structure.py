"""Import structure of the package: every intra-package import sits at module
level and is used, no protocol module reaches into another's private helpers,
the module import graph has no cycles, only the generators assemble
circuits unchecked, and no private name is left that nothing in the package
reads.  In a fresh interpreter, importing
the CLI leaves out ``scipy.stats``, which costs about half a second of cold
start, and importing every module, or running the protocols that fit
nothing (accreditation, MCFE, DFE, ACES, sampling on either backend,
linear state tomography), leaves out ``scipy`` altogether: only the
functions that call it import it, so the first decay fit loads it."""

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


# what builds, stacks and samples eigenstate-parity circuits; BiRB, cycle
# benchmarking and ACES reach it only through ``device._eigenstate_parities``
PARITY_INTERNALS = {"_parity_all", "_propagate_side_by_side", "_stack_size", "_pulled_back_rows"}


@pytest.mark.parametrize("name", ["rb", "cycles"])
def test_parity_protocols_import_no_parity_circuit_internals(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = {alias.name for node, _ in _relative_imports(tree) for alias in node.names}
    assert imported & PARITY_INTERNALS == set()


# the per-circuit samplers, each a one-item call of the ensemble that
# compiles the circuits and builds their generators
ONE_ITEM_SAMPLERS = ("sample_counts", "pauli_fastpath_sample", "pauli_fastpath_signs")


def test_per_circuit_samplers_and_volumetrics_reuse_the_device_stacks():
    """No per-circuit sampler builds a ``CliffordProgram`` or calls ``rng``,
    and ``volumetrics`` imports neither ``CliffordProgram`` nor
    ``_stack_size``: a single circuit is a one-item stack of the device's
    ensembles, and a grid cell's ideal outcomes come from its stacked call."""
    tree = ast.parse((PACKAGE / "device.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ONE_ITEM_SAMPLERS:
        names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert names & {"CliffordProgram", "rng"} == set(), name
    tree = ast.parse((PACKAGE / "volumetrics.py").read_text())
    imported = {alias.name for node, _ in _relative_imports(tree) for alias in node.names}
    assert imported & {"CliffordProgram", "_stack_size"} == set()


# the generators that assemble circuits unchecked from valid parts; every
# other module reads layers from outside (configs, callers, files) and
# builds its circuits through the checked ``Circuit(width, layers)``
ASSEMBLERS = {"device", "rb", "fidelity"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_generators_build_circuits_on_a_skeleton(path):
    tree = ast.parse(path.read_text(), str(path))
    calls = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_assembled"
    ]
    assert path.stem in ASSEMBLERS or calls == []


def _defined_private_names(tree):
    """(line, name) of each private name bound at module level or in a
    class body: functions, classes, and assignment targets."""
    out = []

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.lineno, node.name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out.extend((node.lineno, t.id) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))

    visit(tree.body)
    return [(line, name) for line, name in out if name.startswith("_") and not name.startswith("__")]


def test_no_orphan_private_names():
    """Every private module-level or class-level name in the package is read
    somewhere in it, as a ``Name`` or an ``Attribute``, so a deleted code
    path leaves no helper behind."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [f"{name}:{line} {defined}" for name, tree in trees.items() for line, defined in _defined_private_names(tree) if defined not in read]
    assert orphans == []


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


# the parameter annotations a cache key may have: plain values, hashed and
# compared by value; an object's hash is the object's to get right, and a
# cache keyed by it keeps every object it has seen alive
CACHE_KEY_TYPES = {"int", "str", "tuple", "bytes"}


def _is_lru_cache(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(target) in {"lru_cache", "functools.lru_cache"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_are_keyed_by_plain_values(path):
    """Every ``functools.lru_cache`` decorates a function whose parameters are
    all annotated ``int``, ``str``, ``tuple`` or ``bytes``."""
    tree = ast.parse(path.read_text(), str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_lru_cache, node.decorator_list)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
            bad += [
                f"{path.name}:{node.lineno} {node.name}({arg.arg})"
                for arg in params
                if arg.annotation is None or ast.unparse(arg.annotation) not in CACHE_KEY_TYPES
            ]
    assert bad == []


def _fresh(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    assert _fresh("import qcvv.cli, sys; print('scipy.stats' in sys.modules)") == "False"


def test_module_imports_leave_out_scipy():
    names = ", ".join(f"qcvv.{path.stem}" for path in MODULES if path.stem != "__init__")
    assert _fresh(f"import sys, {names}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


FIT_FREE_RUNS = """
import sys
from qcvv import channels as ch, cycles, device as dv, fidelity, tomography
model = dv.noisy_model(2, lambda label, arity: ch.depolarizing(0.02, n=arity))
target = [(("H", (0,)), ("H", (1,))), (("CZ", (0, 1)),), (("S", (0,)), ("H", (1,)))]
fidelity.accredit(model, target, theta=0.2, alpha=0.9, seed=1)
fidelity.mcfe(model, target, k_ensemble=4, shots=50, seed=2)
fidelity.dfe(model, fidelity.ghz_circuit(2), fidelity.ghz_stabilizers(2), 0.5, 0.5, 6)
cycles.aces(model, [(("CZ", (0, 1)),), (("H", (0,)), ("H", (1,)))], 4, 2, 3, shots=50, seed=3)
flip = dv.Circuit(2, ((("X", (0,)),), (("CNOT", (0, 1)),)))
for backend in ("dense", "fast"):
    dv.sample(model, flip, 50, 4, backend)
tomography.qst(tomography.qst_dataset(model, flip, 100, 5), 2, method="linear")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_fit_free_runs_leave_out_scipy():
    assert _fresh(FIT_FREE_RUNS) == "[]"


FIRST_FIT = """
import sys
from qcvv import rb
before = "scipy" in sys.modules
fit = rb.fit_decay([0, 4, 16, 32], [0.97, 0.88, 0.71, 0.60], [0.01, 0.012, 0.015, 0.02])
print(before, "scipy.optimize" in sys.modules, repr((fit.a, fit.f, fit.b, fit.f_err, fit.chi2, fit.chi2_pvalue)))
"""


def test_first_decay_fit_loads_scipy_and_matches_in_process():
    from qcvv import rb

    fit = rb.fit_decay([0, 4, 16, 32], [0.97, 0.88, 0.71, 0.60], [0.01, 0.012, 0.015, 0.02])
    want = repr((fit.a, fit.f, fit.b, fit.f_err, fit.chi2, fit.chi2_pvalue))
    assert _fresh(FIRST_FIT) == f"False True {want}"


DENSE_2Q_CRB = """
from qcvv import channels as ch, cliffords, device as dv, rb
built = []
init = cliffords.CliffordElement.__init__
cliffords.CliffordElement.__init__ = lambda self, *args: built.append(1) or init(self, *args)
model = dv.noisy_model(2, lambda label, arity: ch.depolarizing(0.01, n=arity))
rb.run_crb(model, rb.RBDesign((0, 1), (1, 3, 5), 2, 20, seed=1))
print(len(built), len(cliffords.group_unitaries(2)))
"""


def test_dense_2q_crb_builds_no_clifford_element():
    """A two-qubit dense CRB reads the enumerated group's arrays (unitaries,
    words, keys) and builds none of the 11,520 element objects."""
    assert _fresh(DENSE_2Q_CRB) == "0 11520"


ONE_RANDOM_CLIFFORD = """
from qcvv import cliffords
from qcvv.linalg import rng
built = []
init = cliffords.CliffordElement.__init__
cliffords.CliffordElement.__init__ = lambda self, *args: built.append(1) or init(self, *args)
element = cliffords.random_clifford(2, 0)
count = len(built)
same = cliffords.enumerate_clifford_group(2)[int(rng(0).integers(11520))]
print(count, element.key == same.key, element.word == same.word, (element.unitary == same.unitary).all())
"""


def test_random_clifford_builds_one_element():
    """``random_clifford(2, seed)`` builds the one element it draws, the
    group's element at that index, and none of the other 11,519."""
    assert _fresh(ONE_RANDOM_CLIFFORD) == "1 True True True"


ROOT = Path(__file__).resolve().parents[1]
# every tree whose calls may set a package option
CALLER_TREES = ("src", "tests", "demos", "perfbench")
# defaulted parameters that no call names, each with what sets it
UNSET_ALLOWED = {
    ("device.py", "_assembled", "gate_defs"): "unpickling sets it, through Circuit.__reduce__",
}


def _params(args):
    return [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_parameter_is_read():
    """Every parameter of every ``def`` and ``lambda`` in the package, but
    ``self``, ``cls`` and those of dunder methods, whose signatures a
    protocol fixes, is read by its body."""
    unread = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if _is_dunder(name):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            unread += [
                f"{path.name}:{node.lineno} {name}({a.arg})"
                for a in _params(node.args)
                if a.arg not in ("self", "cls", *read)
            ]
    assert unread == []


def _defaulted_params(tree):
    """(line, function, parameter, index among a call's positional
    arguments or None) of each defaulted parameter of a non-dunder ``def``;
    a method's ``self`` or ``cls`` takes no call position."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(child.name):
                args = child.args
                positional = [*args.posonlyargs, *args.args]
                static = any(ast.unparse(d) == "staticmethod" for d in child.decorator_list)
                bound = int(in_class and not static and bool(positional) and positional[0].arg in ("self", "cls"))
                first = len(positional) - len(args.defaults)
                out.extend((child.lineno, child.name, a.arg, i - bound) for i, a in enumerate(positional) if i >= first)
                out.extend((child.lineno, child.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _sets(call, param, index):
    """Whether ``call`` may set ``param``: by keyword, by position, or
    through ``*`` or ``**`` unpacking."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_option_has_a_setter():
    """Every defaulted parameter of a non-dunder ``def`` in the package is
    set by some call in the source, tests, demos or benchmark: one whose
    callee, bare or as an attribute, has the function's name, and that
    passes the parameter by keyword, by position or through unpacking.
    Calls match by name alone, so the check can miss an unset option but
    never flags one that a call sets."""
    calls = {}
    for path in (p for tree in CALLER_TREES for p in sorted((ROOT / tree).rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    defaulted = [(path.name, *found) for path in MODULES for found in _defaulted_params(ast.parse(path.read_text(), str(path)))]
    unset = [
        f"{module}:{line} {name}({param})"
        for module, line, name, param, index in defaulted
        if (module, name, param) not in UNSET_ALLOWED and not any(_sets(c, param, index) for c in calls.get(name, []))
    ]
    assert unset == []
    assert set(UNSET_ALLOWED) <= {(module, name, param) for module, _, name, param, _ in defaulted}
