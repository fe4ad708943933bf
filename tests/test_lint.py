"""Source lints: static checks over the package's own modules."""
import ast
from pathlib import Path

import adaptreduce


def test_no_unused_imports():
    # every name a module imports is read somewhere in it, as a name or as
    # the base of an attribute (__init__.py re-exports, so it is exempt)
    package = Path(adaptreduce.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound
                       if name not in used]
    assert unused == []


def test_no_orphaned_private_names():
    # every module-level private function, class or constant is read by
    # some module of the package: as a name, an attribute or an import
    package = Path(adaptreduce.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                defined = [node.target.id]
            else:
                continue
            orphans += [f"{name}:{node.lineno} {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__")
                        and d not in read]
    assert orphans == []
