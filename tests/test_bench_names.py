"""The benchmark's tracer (``perfbench/spans.py``) wraps package names by
lookup at run time, so a rename or deletion in the package would break
``perfbench/run.py --trace 1`` without failing any other test.  The name
lists are read from the file's source; nothing there is imported or run.
"""

import ast
import importlib
from pathlib import Path

from ropsum import QQ
from ropsum.mpoly import MultilinearPoly
from ropsum.rof import Leaf, RopSum

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tracer_lists():
    lists = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS"):
                    lists[target.id] = ast.literal_eval(node.value)
    return lists["FUNCTIONS"], lists["METHODS"]


def test_every_name_the_bench_tracer_wraps_exists():
    functions, methods = _tracer_lists()
    for module, names in functions:
        mod = importlib.import_module("ropsum." + module)
        for name in names:
            assert callable(getattr(mod, name, None)), "ropsum.%s.%s" % (module, name)
    for attr, _ in methods:
        assert attr in MultilinearPoly.__dict__, "MultilinearPoly.%s" % attr
    # the tracer counts summands with len() on each decompose result
    one = QQ.elem(1)
    assert len(RopSum(QQ, 1, (Leaf(1, one, QQ.zero()),))) == 1
