"""Every module-level private function, class or constant in src/ropsum is
referenced in the package outside its own definition; else it is dead."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ropsum"


def test_every_private_module_name_is_referenced_in_the_package():
    body = [s for path in sorted(PACKAGE.glob("*.py")) for s in ast.parse(path.read_text()).body]
    defined = [
        [s.name] if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        else [t.id for t in getattr(s, "targets", [getattr(s, "target", None)]) if isinstance(t, ast.Name)]
        for s in body
    ]
    # the Name ids, attribute names and imported names of each statement
    used = [{getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(s)} for s in body]
    dead = [
        name for home, names in enumerate(defined) for name in names
        if name.startswith("_") and not name.startswith("__")
        and not any(name in u for i, u in enumerate(used) if i != home)
    ]
    assert dead == []
