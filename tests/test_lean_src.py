"""The package ships only what runs: every public module-level function and
class is named somewhere else in the package (its re-export from
``__init__`` does not count), in README's library sketch, or in the
benchmark's scripts; and every public method and property of a public
class is read as an attribute by package code outside its own body, or
named by the sketch or the benchmark's scripts.  The sketch and the scripts
count by their identifiers (names, attributes, imported names and
identifier-shaped strings such as the tracer's), not by the words of their
prose.  Reads count by attribute name, so a member whose name another
public class also defines must name, in SHARED_NAME_READS, the function
that reads it on its own class.  Every parameter of every function is read
in its body.  Code that only the tests reach belongs in tests/reference.py.
Read from source, as test_tracer_names does."""

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


# A public member whose name another public class also defines as a member
# or dataclass field -> (module, function, "variable.member"): the read of it
# on its own class, which the function's AST must hold.
SHARED_NAME_READS = {
    "MonomialVerification.passed": ("cli", "cmd_verify_bch", "row.passed"),
    "PhysicalParams.g": ("cli", "cmd_figure", "params.g"),
}


def public_classes() -> list[ast.ClassDef]:
    return [cls for _, tree in package_modules() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")]


def public_members(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """Methods, properties and class methods alike; dataclass fields are
    no definitions, and names that start with "_" (dunders too) are out."""
    return [stmt for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
            and not stmt.name.startswith("_")]


def defined_names(cls: ast.ClassDef) -> set[str]:
    """The class's public members and its annotated (dataclass) fields."""
    return ({stmt.name for stmt in public_members(cls)}
            | {stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
               and isinstance(stmt.target, ast.Name)})


def shared_name_members(classes) -> list[str]:
    """Each public member whose name another public class also defines."""
    return [f"{cls.name}.{stmt.name}" for cls in classes
            for stmt in public_members(cls)
            if any(stmt.name in defined_names(other)
                   for other in classes if other is not cls)]


def reads_in(module: str, function: str) -> set[str]:
    """Every "variable.attribute" the module's function looks up."""
    tree = dict(package_modules())[module]
    body = next(stmt for stmt in tree.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == function)
    return {f"{n.value.id}.{n.attr}" for n in ast.walk(body)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}


def test_every_public_member_is_read():
    members = [(f"{cls.name}.{stmt.name}", stmt)
               for cls in public_classes() for stmt in public_members(cls)]
    read = sum((attributes_in(tree) for _, tree in package_modules()), Counter())
    assert len(members) > 10
    outside = named_outside_the_package()
    unread = [qualified for qualified, stmt in members
              if stmt.name not in outside
              and not (read - attributes_in(stmt))[stmt.name]]
    assert not unread, unread


def test_a_member_whose_name_another_class_defines_names_its_reader():
    """Reads count by attribute name alone, so the read that keeps such a
    member is named in SHARED_NAME_READS and found in its function; an
    entry for a name no longer shared goes too."""
    shared = shared_name_members(public_classes())
    assert sorted(SHARED_NAME_READS) == sorted(shared), (
        "members whose names another public class defines", shared)
    unread = [member for member, (module, function, read) in SHARED_NAME_READS.items()
              if read.split(".")[1] != member.split(".")[1]
              or read not in reads_in(module, function)]
    assert not unread, unread


def test_every_parameter_is_read():
    """Each parameter of each def and lambda is loaded in its body, but for
    the _FORMS lambdas, whose signature is the table's."""
    unread, exempt = [], set()
    for module, tree in package_modules():
        exempt |= {n for stmt in tree.body if isinstance(stmt, ast.AnnAssign)
                   and isinstance(stmt.target, ast.Name) and stmt.target.id == "_FORMS"
                   for n in ast.walk(stmt) if isinstance(n, ast.Lambda)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)) or node in exempt:
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)}
            unread += [f"{module}.{getattr(node, 'name', '<lambda>')}: {p}"
                       for p in params if p not in loaded]
    assert len(exempt) == 10  # two per form
    assert not unread, unread
