"""The package ships only what runs: every public module-level function and
class is named somewhere else in the package (its re-export from
``__init__`` does not count), in README's library sketch, or in the
benchmark's scripts.  Code that only the tests reach belongs in
tests/reference.py.  Read from source, as test_tracer_names does."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gupsqueeze"


def names_in(node: ast.AST) -> set[str]:
    """Every name the node loads or looks up as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_has_a_caller():
    definitions, statements = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((f"{path.stem}.{stmt.name}", stmt))
            statements.append((stmt, names_in(stmt)))
    assert len(definitions) > 50
    readme = (ROOT / "README.md").read_text().split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    words = set(re.findall(r"\w+", sketch))
    for script in (ROOT / "perfbench").glob("*.py"):
        words |= set(re.findall(r"\w+", script.read_text()))
    unused = [qualified for qualified, stmt in definitions
              if stmt.name not in words
              and not any(stmt.name in names for other, names in statements
                          if other is not stmt)]
    assert not unused, unused
