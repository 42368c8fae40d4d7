"""Every public function and class of the package has a caller in the
package or the demos: an API that only tests call is dead weight."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "fisherqp").glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES + DEMOS}
    referenced = set().union(*(_referenced_names(t) for t in trees.values()))
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, definitions)
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    assert not unused, f"no module or demo references {', '.join(unused)}"
