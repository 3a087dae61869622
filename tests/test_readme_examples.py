"""The README's command-line examples run and print what their comments show."""

import json
import re
import shlex
from pathlib import Path

from ropsum.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(argv, shown) for each ``ropsum`` line of the Examples block, where
    ``shown`` is the JSON object its ``# {...}`` comment shows, or None."""
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = block.group(1).splitlines() + [""]
    examples = []
    for line, following in zip(lines, lines[1:]):
        if not line.startswith("ropsum "):
            continue
        shown = None
        if following.startswith("# {"):
            # "..." elides the keys the comment leaves out
            shown = json.loads(following[2:].replace(", ...}", "}"))
        examples.append((shlex.split(line)[1:], shown))
    return examples


def test_readme_examples_run_and_print_what_they_show(capsys):
    examples = _examples()
    assert len(examples) == 4
    for argv, shown in examples:
        assert main(argv) == 0, argv
        out = json.loads(capsys.readouterr().out)
        if shown is not None:
            assert {key: out[key] for key in shown if key in out} == shown, argv
