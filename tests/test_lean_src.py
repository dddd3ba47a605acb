"""The package ships only what runs: every public module-level function and
class is named somewhere else in the package (its re-export from
``__init__`` does not count), in README's library sketch, or in the
benchmark's scripts; and every public method and property of a public
class is read as an attribute by package code outside its own body, or
named by the sketch or the benchmark's scripts.  The sketch and the scripts
count by their identifiers (names, attributes, imported names and
identifier-shaped strings such as the tracer's), not by the words of their
prose.  Code that only the tests reach belongs in tests/reference.py.  Read
from source, as test_tracer_names does."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gupsqueeze"


def names_in(node: ast.AST) -> set[str]:
    """Every name the node loads or looks up as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def attributes_in(node: ast.AST) -> Counter:
    """How often the node looks up each attribute name."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def identifiers_in(source: str) -> set[str]:
    """The names, attributes and imported names a source uses, and each of
    its string constants that is shaped as an identifier."""
    tree = ast.parse(source)
    found = names_in(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.alias):
            found.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            found.add(n.value)
    return found


def named_outside_the_package() -> set[str]:
    """The identifiers of README's library sketch and the benchmark's scripts."""
    readme = (ROOT / "README.md").read_text().split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    found = identifiers_in(sketch)
    for script in (ROOT / "perfbench").glob("*.py"):
        found |= identifiers_in(script.read_text())
    return found


def package_modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def test_every_public_definition_has_a_caller():
    definitions, statements = [], []
    for module, tree in package_modules():
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((f"{module}.{stmt.name}", stmt))
            statements.append((stmt, names_in(stmt)))
    assert len(definitions) > 50
    outside = named_outside_the_package()
    unused = [qualified for qualified, stmt in definitions
              if stmt.name not in outside
              and not any(stmt.name in names for other, names in statements
                          if other is not stmt)]
    assert not unused, unused


def test_every_public_member_is_read():
    """Methods, properties and class methods alike; dataclass fields are
    no definitions, and names that start with "_" (dunders too) are out."""
    members, read = [], Counter()
    for _, tree in package_modules():
        read += attributes_in(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                members += [(f"{cls.name}.{stmt.name}", stmt) for stmt in cls.body
                            if isinstance(stmt, ast.FunctionDef)
                            and not stmt.name.startswith("_")]
    assert len(members) > 10
    outside = named_outside_the_package()
    unread = [qualified for qualified, stmt in members
              if stmt.name not in outside
              and not (read - attributes_in(stmt))[stmt.name]]
    assert not unread, unread
