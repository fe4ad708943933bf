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
