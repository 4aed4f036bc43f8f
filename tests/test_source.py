"""Rules that hold for the package source as a whole."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

from crowdpolicy.model import _FrozenValue

SOURCE = Path(__file__).resolve().parents[1] / "src" / "crowdpolicy"

#: Most lines the package source may hold: a change that adds lines pays for
#: them with deletions elsewhere, not by joining statements or cutting docstrings.
LINE_BUDGET = 2500


def test_package_source_has_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish; the
    # package raises its own errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SOURCE.glob("*.py")), f"no source files under {SOURCE}"
    assert found == []


def test_package_source_never_switches_the_cyclic_gc():
    # gc.disable, gc.freeze and gc.set_threshold act on the whole process, not on
    # the library's own objects, so they are the caller's to use; importing one
    # from gc, or reading one off the module under any name, counts
    banned = {"disable", "freeze", "set_threshold"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        nodes = list(ast.walk(tree))
        modules = {"gc"} | {
            alias.asname
            for node in nodes if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "gc"
        }
        for node in nodes:
            imported = isinstance(node, ast.ImportFrom) and node.module == "gc" and any(
                alias.name in banned for alias in node.names
            )
            read = (
                isinstance(node, ast.Attribute) and node.attr in banned
                and isinstance(node.value, ast.Name) and node.value.id in modules
            )
            if imported or read:
                found.append(f"{path.name}:{node.lineno}")
    assert sorted(SOURCE.glob("*.py")), f"no source files under {SOURCE}"
    assert found == []


def test_every_dataclass_holding_an_array_is_a_frozen_value_with_no_eq_of_its_own():
    # one base decides equality and the locking of restored copies; a class
    # with its own __eq__, hand-written or generated by @dataclass, would
    # decide again
    modules = [
        importlib.import_module(f"crowdpolicy.{info.name}")
        for info in pkgutil.iter_modules([str(SOURCE)])
    ]
    holders = [
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and dataclasses.is_dataclass(cls)
        and any("np.ndarray" in str(t) for t in vars(cls).get("__annotations__", {}).values())
    ]
    assert len(holders) >= 9, holders
    offenders = [
        cls.__qualname__
        for cls in holders
        if not issubclass(cls, _FrozenValue) or "__eq__" in vars(cls)
    ]
    assert offenders == []


def test_package_source_stays_within_the_line_budget():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, f"no source files under {SOURCE}"
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in paths)
    assert lines <= LINE_BUDGET


def test_only_model_holds_values_and_no_other_module_sets_a_private_field():
    # what the library derives from a frozen owner and keeps goes through `model._held`,
    # which alone holds weak references; a module that imported weakref, or set a field
    # itself (by a setattr of a private name, or by naming `_set`, `_stack` or their class
    # `_KernelStack` at all), would hold a cache or build a kernel stack of its own
    stack_names = {"_set", "_stack", "_KernelStack"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "weakref" for alias in node.names
            ):
                found.append(f"{where} imports weakref")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weakref":
                found.append(f"{where} imports from weakref")
            named = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if named in stack_names:
                found.append(f"{where} names {named}")
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("setattr", "__setattr__") and any(
                isinstance(arg, ast.Constant) and str(arg.value).startswith("_")
                for arg in node.args
            ):
                found.append(f"{where} sets a private field by name")
    assert sorted(SOURCE.glob("*.py")), f"no source files under {SOURCE}"
    assert found == []


def test_only_model_decides_what_a_pickle_or_copy_carries():
    # `_FrozenValue.__getstate__` and `__setstate__` are the one rule: a copy carries the
    # fields and no held entry; a hook of another module's own would decide again
    hooks = {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__", "__copy__",
             "__deepcopy__"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{node.lineno} defines {name}" for name in hooks & set(names)]
    assert sorted(SOURCE.glob("*.py")), f"no source files under {SOURCE}"
    assert found == []


def _synthesis_imports(tree: ast.AST):
    """``(node, names)`` for each import of the synthesizer: the names it takes, or the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".synthesis", "crowdpolicy.synthesis"):
                yield node, [alias.name for alias in node.names]
            elif module in (".", "crowdpolicy"):
                yield from ((node, [a.name]) for a in node.names if a.name == "synthesis")
        elif isinstance(node, ast.Import):
            yield from ((node, [a.name]) for a in node.names if a.name == "crowdpolicy.synthesis")


def test_the_oracles_and_loaders_import_nothing_from_the_synthesizer():
    # `evaluation.py`'s oracles check `synthesize`, so they stay independent of it, and the
    # loaders only build its inputs; the pool type both read lives in `model.py`. No module
    # reaches into the synthesizer's private names either
    independent = {"evaluation.py", "scenario.py"}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, names in _synthesis_imports(tree):
            where = f"{path.name}:{node.lineno}"
            if path.name in independent:
                found.append(f"{where} imports {', '.join(names)} from synthesis")
            found += [f"{where} imports {name} from synthesis" for name in names if name[0] == "_"]
    assert independent <= {path.name for path in SOURCE.glob("*.py")}, f"missing under {SOURCE}"
    assert found == []
