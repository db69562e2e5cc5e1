"""Every name ghmlab exports is used by the package, a demo or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ghmlab"
ORACLE = {"local_map", "global_map"}  # the tests' reference for T_n; no command needs them


def _exports() -> dict[str, str]:
    """Each name __init__.py imports, with the module that defines it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _definitions(tree: ast.Module) -> dict[str, range]:
    """Line span of each top-level def, class or assignment, by name."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            spans[name] = range(node.lineno, node.end_lineno + 1)
    return spans


def _references(node: ast.AST) -> set[str]:
    """Names a node refers to: a name, an attribute, or the parts of a dotted
    string such as the benchmark tracer's ("module", "function") table."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(node.value.split("."))
    return set()


def test_every_export_has_a_user():
    exports = _exports()
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in files:
        tree = ast.parse(path.read_text())
        own = _definitions(tree) if path.parent == PACKAGE else {}
        for node in ast.walk(tree):
            for name in _references(node) & exports.keys():
                if not (exports[name] == path.stem and node.lineno in own.get(name, ())):
                    used.add(name)
    assert sorted(exports.keys() - used - ORACLE) == []


# fields that fixed_points and organizing_points report for the caller to
# read; the acceptance tests read them, and no command needs them
REPORTED = {"FixedPointReport.point", "FixedPointReport.multipliers",
            "OrganizingPoint.kind", "OrganizingPoint.location"}


def _members(tree: ast.Module):
    """(class, member name, class line span) of each field and property of
    each dataclass in a module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
            span = range(node.lineno, node.end_lineno + 1)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, span
                elif isinstance(item, ast.FunctionDef) and any(
                        isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list):
                    yield node.name, item.name, span


def test_every_dataclass_field_has_a_reader():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    reads = [(node.attr, path, node.lineno) for path, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name, span in _members(trees[path]):
            if not any(attr == name and not (where == path and line in span)
                       for attr, where, line in reads):
                unread.add(f"{cls}.{name}")
    assert sorted(unread - REPORTED) == []
    assert sorted(REPORTED - unread) == []  # an entry with a reader leaves the list
