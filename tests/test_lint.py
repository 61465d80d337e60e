"""Dead-code checks on src/levelmc with the standard library's ast module.

The project depends on no linter, so the checks a linter would make on
dead code are spelled out here: every module-level import is used, every
function parameter is read, and every ``__all__`` entry names a
module-level definition that is used outside its module.  Further checks
keep the finite element layer free of the coefficient model, the
package's start-up free of the modules only a solve needs, the coarse
mesh and the QoI of one solve each defined in one module, each
module's underscore names its own, and every CLI config field read by
its command.
"""

import ast
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "levelmc"
MODULES = sorted(SRC.glob("*.py"))
# every file that may use an export: the package, its tests and the benchmark
USERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names_in(nodes):
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def exported(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def imported(tree):
    """Names bound by module-level imports, except ``from __future__``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def defined(tree):
    """Names bound at module level."""
    out = set(imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= names_in(targets)
    return out


@cache
def referenced(path):
    """Names a file reads, imports, reaches as an attribute or spells as a
    string (the benchmark's tracer names the functions it wraps)."""
    tree = parse(path)
    out = names_in([tree])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def imported_modules(tree):
    """Absolute names of the modules a file of the package imports from,
    anywhere in it: ``from .x import y`` gives levelmc.x and levelmc.x.y."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "levelmc" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            yield module
            yield from (f"{module}.{a.name}" for a in node.names)


def unused_parameters(tree):
    """(function, parameter) pairs whose parameter the body never reads."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = func.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        used = names_in(func.body)
        for name in params:
            if name not in ("self", "cls") and not name.startswith("_") and name not in used:
                yield f"{func.name}({name})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = names_in([tree]) | set(exported(tree))
    assert [name for name in imported(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert list(unused_parameters(parse(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    tree = parse(path)
    assert [name for name in exported(tree) if name not in defined(tree)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_used_outside_their_module(path):
    used = set().union(*(referenced(user) for user in USERS if user != path))
    assert [name for name in exported(parse(path)) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    # what one module needs of another is public in that other module
    tree = parse(path)
    assert [f"{node.module}.{a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "levelmc")
            for a in node.names if a.name.startswith("_")] == []


@pytest.mark.parametrize("name", ["fem.py", "indicator.py", "mesh.py"])
def test_finite_element_layer_imports_no_coefficient_model(name):
    # these take element values; their callers evaluate the coefficient
    assert [m for m in imported_modules(parse(SRC / name))
            if m == "levelmc.coefficient" or m.startswith("levelmc.coefficient.")] == []


def test_import_loads_no_solver_library():
    # scipy.linalg and scipy.sparse.csgraph are imported where a mesh is
    # first factored, and levelmc.multigrid where one first takes the
    # multigrid; loaded at import they add to every start-up
    code = ("import sys, levelmc, levelmc.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.linalg', 'scipy.sparse.csgraph', 'levelmc.multigrid'))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def callers(module, function):
    """The files of the package that call ``function`` of ``levelmc.<module>``:
    by its own name in the defining file, elsewhere through a name imported
    from that module or as an attribute of the module."""
    out = []
    for path in MODULES:
        tree = parse(path)
        names = {function} if path.stem == module else {
            a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in (module, f"levelmc.{module}")
            for a in node.names if a.name == function}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id in names
                    or isinstance(node.func, ast.Attribute) and node.func.attr == function
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == module):
                out.append(path.name)
                break
    return out


@pytest.mark.parametrize("module, function, allowed", [
    # the coarse mesh is uniform_family(0, base_n)
    ("mesh", "structured_unit_square", ["mesh.py"]),
    # the QoI of one solve is mlmc.solve_qoi; an adaptive step also needs the solution
    ("fem", "solve", ["indicator.py", "mlmc.py"]),
    # the one plain-MC loop is CLMC's; the reference telescopes inside MLMC
    ("mlmc", "sequential_sampling", ["clmc.py"]),
])
def test_one_definition(module, function, allowed):
    assert callers(module, function) == allowed


def config_reads(command):
    """Fields that ``harness.<command>`` reads of its ``config``, with those
    of ``_cases`` when it hands the config to it."""
    functions = {node.name: node for node in parse(SRC / "harness.py").body
                 if isinstance(node, ast.FunctionDef)}

    def reads(func):
        return {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "config"}

    out = reads(functions[command])
    if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "_cases" and [ast.unparse(a) for a in node.args] == ["config"]
           for node in ast.walk(functions[command])):
        out |= reads(functions["_cases"])
    return out


# fields that no command reads, each kept for a reason: removing theta would
# move the pinned reference config hash e06b4949bcbc that bench/workloads.py cites
UNREAD_FIELDS = {"ReferenceConfig": {"theta"}}


@pytest.mark.parametrize("config, command", [
    ("ConvergeConfig", "cmd_converge"),
    ("RatesConfig", "cmd_rates"),
    ("LdsConfig", "cmd_lds"),
    ("ReferenceConfig", "cmd_reference"),
    ("CompareConfig", "cmd_compare"),
])
def test_every_config_field_is_read(config, command):
    # full_scale is read when the config is parsed, not by its command
    cls = next(node for node in parse(SRC / "harness.py").body
               if isinstance(node, ast.ClassDef) and node.name == config)
    fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
    unread = fields - config_reads(command) - {"full_scale"}
    assert unread == UNREAD_FIELDS.get(config, set())
