"""No module-level state in src/ropsum grows without bound: no module-level
empty dict, list or set for a cache to fill, and no ``lru_cache(maxsize=None)``
or ``functools.cache``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ropsum"


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set") and not node.args and not node.keywords
    )


def _is_unbounded_cache(node) -> bool:
    """``lru_cache(None)``, ``lru_cache(maxsize=None)``, ``functools.cache``,
    or ``cache`` imported from functools."""
    func = getattr(node, "func", None)
    if getattr(func, "id", getattr(func, "attr", None)) == "lru_cache":
        size = [k.value for k in node.keywords if k.arg == "maxsize"] or node.args[:1]
        return any(isinstance(s, ast.Constant) and s.value is None for s in size)
    if isinstance(node, ast.Attribute):
        return node.attr == "cache" and getattr(node.value, "id", None) == "functools"
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name == "cache" for a in node.names)
    return False


def test_no_module_level_empty_container_or_unbounded_cache():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for s in tree.body:
            if isinstance(s, (ast.Assign, ast.AnnAssign)) and _is_empty_container(s.value):
                targets = s.targets if isinstance(s, ast.Assign) else [s.target]
                found += ["%s: %s" % (path.name, ast.unparse(t)) for t in targets]
        found += [
            "%s:%d: %s" % (path.name, node.lineno, ast.unparse(node))
            for node in ast.walk(tree) if _is_unbounded_cache(node)
        ]
    assert found == []
