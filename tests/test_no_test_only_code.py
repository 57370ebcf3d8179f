"""Every function and method of the package has a caller outside the tests,
and every dataclass field a reader: code that only its own tests use is
deleted or moved to ``oracles.py``.

A name counts as referenced where ``src/`` or ``perfbench/`` reads it: as a
name, an attribute, or a string (the benchmark's tracer looks functions up
by their names), outside the body of the definition itself.  Names that
``ioselect/__init__`` exports are the public API and need no caller.  A
field counts as read where an attribute load of its name appears there,
outside its class.
"""

import ast
import pathlib

import ioselect

PACKAGE = pathlib.Path(ioselect.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
READERS = SOURCES + sorted(PERFBENCH.glob("*.py"))

# The interpreter or dataclasses call these on every instance by themselves,
# and __hash__ keeps a frozen dataclass with a list field hashable (the
# dataclass would otherwise hash the list and fail).  An operator hook such
# as __contains__ runs only where some caller uses the operator on an
# instance, which a scan of names cannot see, so it is not listed here.
HOOKS = {"__init__", "__new__", "__post_init__", "__hash__"}
# The paper's set-cover equivalence: the reverse reduction and its
# selection-to-cover map are tested as a theorem.
THEOREM = {"reduce_wsc_to_accessibility", "selection_to_cover"}
# Serialized whole, by dataclasses.asdict and fields, not field by field.
WHOLE = {"BenchRecord"}


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _references(tree: ast.AST):
    """(name, line) for every name, attribute and identifier-like string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):  # "selector.check_no_sfm"
                if part.isidentifier():
                    yield part, node.lineno


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("ioselect/__init__.py defines no __all__")


def _trees() -> dict[pathlib.Path, ast.AST]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in READERS}


def unreferenced() -> list[str]:
    trees = _trees()
    refs = [(path, name, line) for path, tree in trees.items() for name, line in _references(tree)]
    allowed = HOOKS | THEOREM | _exports()
    missing = []
    for path in SOURCES:
        for fn in _definitions(trees[path]):
            if fn.name in allowed:
                continue
            if not any(
                name == fn.name and not (where == path and fn.lineno <= line <= fn.end_lineno)
                for where, name, line in refs
            ):
                missing.append(f"{path.name}:{fn.lineno} {fn.name}")
    return missing


def _dataclasses(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            yield node


def unread_fields() -> list[str]:
    trees = _trees()
    loads = [
        (path, node.attr, node.lineno)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for path in SOURCES:
        for cls in _dataclasses(trees[path]):
            if cls.name in WHOLE:
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                name = stmt.target.id
                if not any(
                    attr == name and not (where == path and cls.lineno <= line <= cls.end_lineno)
                    for where, attr, line in loads
                ):
                    unread.append(f"{path.name}:{stmt.lineno} {cls.name}.{name}")
    return unread


def test_sources_found():
    assert len(SOURCES) >= 9 and len(READERS) > len(SOURCES)


def test_every_function_has_a_caller_outside_the_tests():
    assert unreferenced() == []


def test_every_dataclass_field_is_read_outside_the_tests():
    assert unread_fields() == []
