"""The package's public names: what ``from ropsum import *`` binds, and the
exception classes, each of which a caller can meet."""

import ast
import inspect
from pathlib import Path

import ropsum
from ropsum import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ropsum"

ERRORS = {
    "RopsumError",
    "ParseError",
    "PreconditionError",
    "PreconditionViolated",
    "FieldMismatch",
    "IndexOutOfRange",
    "DivisionByZero",
}
BASES = {"RopsumError", "PreconditionError"}


def test_star_import_binds_exactly_all():
    assert len(set(ropsum.__all__)) == len(ropsum.__all__)
    namespace = {}
    exec("from ropsum import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(ropsum.__all__)
    for name in ropsum.__all__:
        assert namespace[name] is getattr(ropsum, name)


def test_error_classes_are_the_seven_and_all_exported():
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == ERRORS
    assert ERRORS <= set(ropsum.__all__)


def test_every_error_class_but_the_bases_is_raised_in_the_package():
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    assert ERRORS - BASES <= raised
