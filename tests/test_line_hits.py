"""tools/line_hits.py names the statements of src/gupsqueeze that a pytest
run never executes, less those that only a child process runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""A module docstring."""
import os


class Box:
    """A class docstring."""

    size: int

    def grow(self, by):
        """A method docstring."""
        if by < 0:
            raise ValueError(
                "shrinks")
        return Box(
            self.size
            + by)


def open_or_none(path):
    global LAST
    try:
        return os.open(path, os.O_RDONLY)
    except OSError:
        if path:
            return None
    finally:
        LAST = path


if __name__ == "__main__":
    open_or_none("x")
'''


@pytest.fixture(scope="module")
def line_hits():
    spec = importlib.util.spec_from_file_location("line_hits", ROOT / "tools" / "line_hits.py")
    module = sys.modules["line_hits"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up here
    yield module
    del sys.modules["line_hits"]


def test_unrun_statements_are_reported_with_their_scopes(line_hits, monkeypatch):
    # ran: the class body, grow's `if` and the second line of its multi-line
    # return, open_or_none's try and return, and the __main__ test
    hits = {8, 12, 17, 22, 23, 31}
    found = line_hits.unrun_statements("box", SOURCE, hits)
    assert [(s.function, s.line, s.text) for s in found] == [
        ("grow", 13, "raise ValueError("),
        ("open_or_none", 25, "if path:"),
        ("open_or_none", 26, "return None"),
        ("open_or_none", 28, "LAST = path"),
        ("<module>", 32, 'open_or_none("x")'),
    ]
    assert found[2].scopes == ("return None", "if path:", "except OSError:", "try:")
    assert found[4].scopes == ('open_or_none("x")', 'if __name__ == "__main__":')
    monkeypatch.setattr(line_hits, "SUBPROCESS_ONLY", {
        ("box", "open_or_none", "except OSError:"): "a reason",
        ("box", "<module>", 'if __name__ == "__main__":'): "a reason"})
    assert [s.line for s in found if not line_hits.excused(s)] == [13, 28]


def test_every_subprocess_only_entry_names_a_statement_in_the_package(line_hits):
    # with no line run, every statement and its scopes are reported
    named = {(s.module, s.function, scope)
             for path in line_hits.PACKAGE.glob("*.py")
             for s in line_hits.unrun_statements(path.stem, path.read_text(), set())
             for scope in s.scopes}
    assert len(line_hits.SUBPROCESS_ONLY) == 3
    for key, reason in line_hits.SUBPROCESS_ONLY.items():
        assert key in named, key
        assert reason
