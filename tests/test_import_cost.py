"""The package's start-up cost: every CLI process imports ``ropsum.cli``
before it does any work, so the package keeps out of its import the
standard-library modules that would double it.  ``dataclasses`` alone
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``; the package's
records are written out by hand instead (``python -X importtime -c
"import ropsum.cli"`` shows the cost of each module)."""

import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_heavy_module():
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import ropsum.cli\n"
        "assert ropsum.__file__.startswith(sys.argv[1]), ropsum.__file__\n"
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(SRC), *HEAVY],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(import|from)\s+dataclasses\b", re.M)
    users = [p.name for p in sorted((SRC / "ropsum").rglob("*.py")) if pattern.search(p.read_text())]
    assert users == []
