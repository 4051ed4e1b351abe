"""Static checks on the package source, in place of a linter: every
imported name is used, and every __all__ entry is defined in its own
module rather than re-exported."""

import ast
from pathlib import Path

import pytest

import tripow

MODULES = sorted(Path(tripow.__file__).parent.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by import statements anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return names


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    loaded = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    assert sorted(imported_names(tree) - loaded) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_lists_only_own_definitions(path):
    tree = parse(path)
    assert sorted(set(exported_names(tree)) - defined_names(tree)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "numerics.py"], ids=lambda p: p.name
)
def test_only_numerics_imports_mpmath(path):
    # RInterval owns its precision and endpoint format, so no other module
    # needs mpmath
    modules = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    assert sorted(m for m in modules if m.split(".")[0] == "mpmath") == []


def load_time_imports(tree: ast.Module) -> set[str]:
    """Modules imported by statements that run when the module loads,
    that is, anywhere outside a function body."""
    modules = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return modules


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_mpmath_at_load(path):
    # numerics imports mpmath on its first interval, so that scan and
    # symbols, which build none, never pay for the import
    modules = load_time_imports(parse(path))
    assert sorted(m for m in modules if m.split(".")[0] == "mpmath") == []


def referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, imports by name, or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_unexported_names_are_used(path):
    # a helper that lost its last caller is dead code, unless __all__ offers it
    tree = parse(path)
    used = set().union(*(referenced_names(parse(p)) for p in MODULES))
    unused = defined_names(tree) - set(exported_names(tree)) - used
    assert sorted(n for n in unused if not n.startswith("__")) == []


def test_bounds_interval_functions_take_no_precision():
    # a bounds function given an RInterval works at its precision, so a
    # precision parameter beside it would be a second, conflicting source
    tree = parse(Path(tripow.__file__).with_name("bounds.py"))
    both = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        names = {a.arg for a in params}
        if "precision" in names and any(
            a.annotation is not None and "RInterval" in ast.unparse(a.annotation)
            for a in params
        ):
            both.append(node.name)
    assert both == []


def endpoint_writes(tree: ast.Module) -> list[str]:
    """Qualified names of the functions that assign an object's _v or
    precision, by attribute assignment or by setattr with that name."""
    fields = {"_v", "precision"}
    writers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            targets = []
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            hits = any(
                isinstance(n, ast.Attribute) and n.attr in fields
                for t in targets for n in ast.walk(t)
            )
            if isinstance(child, ast.Call) and "setattr" in ast.unparse(child.func):
                hits = any(
                    isinstance(a, ast.Constant) and a.value in fields for a in child.args
                )
            if hits:
                writers.append(scope)
            visit(child, inner)

    visit(tree, "")
    return writers


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_rinterval_is_written_only_where_it_is_built(path):
    # crossover's bracket and other cached intervals are shared between
    # calls, so an RInterval's endpoints and precision must never change
    # after RInterval.__init__ or RInterval._wrap has set them
    allowed = {"RInterval.__init__", "RInterval._wrap"} if path.name == "numerics.py" else set()
    assert sorted(set(endpoint_writes(parse(path))) - allowed) == []
