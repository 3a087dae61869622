"""Value equality, hash and copy have one implementation, ``_record``'s: no
class in src/ropsum outside ``_record.py`` defines its own, except for the
few listed below, each with its reason."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ropsum"

PROTOCOL = {"__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}

# A listed member that goes fails the test too, so the list stays exact.
ALLOWED = {
    # an element equals the int or Fraction it stands for
    ("FieldElem", "__eq__"),
    # a class that defines __eq__ loses its inherited hash, so FieldElem
    # sets Frozen's back
    ("FieldElem", "__hash__"),
    # the coefficient field is a dict, which does not hash
    ("MultilinearPoly", "__hash__"),
    # a commutator is not hashable
    ("SparsePoly", "__hash__"),
    # the public constructor takes exponent tuples, not the packed map
    # that a copy holds, so a copy is rebuilt by _trusted
    ("SparsePoly", "__reduce__"),
}


def _protocol_members():
    """(class, member) for each protocol member that a class body in the
    package, outside _record.py, defines or assigns."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_record.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                else:
                    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                found.update((cls.name, name) for name in names if name in PROTOCOL)
    return found


def test_only_listed_classes_define_their_own_equality_hash_or_copy():
    assert _protocol_members() == ALLOWED
