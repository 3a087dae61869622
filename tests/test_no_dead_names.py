"""Every module-level private function, class or constant, every public
module-level function or class, and every public method or property of a
module-level class, in src/ropsum is referenced in the package outside its
own definition; else it is dead.  A name that ropsum/__init__.py imports
for ``__all__`` is referenced there."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ropsum"

# Public paper lemmas kept as API before any package code calls them.  A
# listed name that gains a package caller fails the test until it comes off
# the list.
LEMMAS = {
    # the vanishing-derivative lemma on multiplicative read-once formulas:
    # acceptance criterion 6 checks it, and the paper's lower-bound chain,
    # run on a given sum, is its planned caller
    "mrops_witness",
    # the paper's 3-variable linearizing restriction, which an is-rop
    # negative's 3-variable certificate may report
    "three_var_linearizing_restriction",
}

# Public methods that no package code calls, kept because the benchmark's
# tracer, perfbench/spans.py, rebinds them by name for its per-layer spans.
TRACED_METHODS = {"scale", "mul_disjoint"}


def _unreferenced():
    """The private module-level names and the public module-level functions
    and classes of the package that no statement other than their own
    definition references."""
    body = [s for path in sorted(PACKAGE.glob("*.py")) for s in ast.parse(path.read_text()).body]
    defined = [
        [s.name] if isinstance(s, (ast.FunctionDef, ast.ClassDef))
        else [t.id for t in getattr(s, "targets", [getattr(s, "target", None)])
              if isinstance(t, ast.Name) and t.id.startswith("_")]
        for s in body
    ]
    # the Name ids, attribute names and imported names of each statement
    used = [{getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
             for n in ast.walk(s)} for s in body]
    return {
        name for home, names in enumerate(defined) for name in names
        if not name.startswith("__")
        and not any(name in u for i, u in enumerate(used) if i != home)
    }


def test_every_private_module_name_is_referenced_in_the_package():
    assert {name for name in _unreferenced() if name.startswith("_")} == set()


def test_every_public_function_and_class_is_referenced_or_a_listed_lemma():
    # a listed lemma that gains a caller, or goes, fails here too
    assert {name for name in _unreferenced() if not name.startswith("_")} == LEMMAS


def _unreferenced_methods():
    """The public methods and properties of the package's module-level
    classes that no attribute outside their own definition names.  Only
    attributes count: a method is reached as ``obj.name``, and a local
    variable of the same name does not keep it alive."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]

    def attrs(node):
        return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))

    total = sum((attrs(tree) for tree in trees), Counter())
    return {
        fn.name
        for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and total[fn.name] == attrs(fn)[fn.name]
    }


def test_every_public_method_is_referenced_or_traced():
    # a traced method that gains a caller, or goes, fails here too
    assert _unreferenced_methods() == TRACED_METHODS
