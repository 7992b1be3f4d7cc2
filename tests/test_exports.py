import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import sepcheck
from sepcheck import errors

MODULES = ["sepcheck"] + [f"sepcheck.{m.name}" for m in pkgutil.iter_modules(sepcheck.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks ``from module import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _raised_names() -> set[str]:
    # names of the exception classes some module raises, directly or called
    names = set()
    for path in Path(sepcheck.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    # an error class no module raises, and no raised class derives from, is
    # dead code left behind by a deletion
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, Exception)
        and cls.__module__ == errors.__name__
    }
    raised = [cls for name, cls in classes.items() if name in _raised_names()]
    dead = [name for name, cls in classes.items()
            if not any(issubclass(r, cls) for r in raised)]
    assert dead == []


def _references(node) -> list[str]:
    # every name a subtree uses: loads, attributes and imported names
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_every_private_helper_is_used():
    # a module-level _helper that nothing outside its own body refers to is
    # dead code left behind by a deletion
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(sepcheck.__file__).parent.glob("*.py"))]
    used = Counter(name for tree in trees for name in _references(tree))
    orphans = [
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and used[node.name] == Counter(_references(node))[node.name]
    ]
    assert orphans == []


def test_no_rank_of_rho_is_measured_twice():
    # a BipartiteState carries the spectrum of rho from its PSD check, so
    # numerical_rank(<state>.rho) is a second decomposition of the same
    # operator; ranks of rho read the eigenvalues through numlin._rank
    calls = []
    for path in sorted(Path(sepcheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            args = list(node.args) + [kw.value for kw in node.keywords]
            if func == "numerical_rank" and any(
                    isinstance(a, ast.Attribute) and a.attr == "rho" for a in args):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_cli_imports_no_private_name():
    # the front end reads the library through its public names only, so a
    # private helper can change without breaking a command
    path = Path(sepcheck.__file__).parent / "cli.py"
    private = [
        f"{node.module}.{alias.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("sepcheck"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_only_state_swaps_the_parties():
    # state.search_frame is the one place that puts Alice on the smaller
    # side, so no other module calls swap_parties
    calls = []
    for path in sorted(Path(sepcheck.__file__).parent.glob("*.py")):
        if path.name == "state.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "swap_parties"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def _functions_using(tree, used) -> set[str]:
    # names of the functions and methods whose body satisfies ``used``
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(used(sub) for sub in ast.walk(node))}


def test_one_root_step_for_both_polynomial_solvers():
    # the resultant and the elimination cascade share one root step: its
    # BRANCH_EPS filter is applied in one function that both solvers call,
    # and the only np.roots call left solves the resultant itself
    tree = ast.parse((Path(sepcheck.__file__).parent / "vectors.py").read_text())
    readers = _functions_using(tree, lambda n: isinstance(n, ast.Name) and n.id == "BRANCH_EPS")
    roots = _functions_using(tree, lambda n: isinstance(n, ast.Call)
                             and isinstance(n.func, ast.Attribute) and n.func.attr == "roots"
                             and getattr(n.func.value, "id", None) == "np")
    assert len(readers) == 1
    assert roots == {"_solve_by_resultant"}
    callers = _functions_using(tree, lambda n: isinstance(n, ast.Call)
                               and getattr(n.func, "id", None) in readers)
    assert {"_solve_by_resultant", "back_substitute"} <= callers


def test_only_the_lift_swaps_terms_back():
    # a frame is swapped so that Alice sits on the smaller side, and
    # state.lift_vector is the one place that puts a vector back in the
    # input's party order: no other module builds ProductVector(x.f, x.e)
    swaps = []
    for path in sorted(Path(sepcheck.__file__).parent.glob("*.py")):
        if path.name == "state.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ProductVector"
                    and [getattr(a, "attr", None) for a in node.args[:2]] == ["f", "e"]):
                swaps.append(f"{path.name}:{node.lineno}")
    assert swaps == []
