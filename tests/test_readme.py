"""The README's examples stay in step with the CLI they document."""

import json
import shlex
from pathlib import Path

import pytest

from contamest.cli import build_parser, load_model_spec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    """Lines of each fenced code block opened with ```language."""
    blocks, current = [], None
    for line in README.splitlines():
        if current is not None:
            if line.startswith("```"):
                current = None
            else:
                current.append(line)
        elif line.startswith("```"):
            current = []
            if line[3:].strip() == language:
                blocks.append(current)
    return blocks


SPEC_LINES = [line for block in fenced_blocks("json") for line in block if line]
CLI_LINES = [line for block in fenced_blocks("") for line in block if line.startswith("contamest ")]


def test_blocks_found():
    assert len(SPEC_LINES) >= 4
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", SPEC_LINES, ids=[f"spec{i}" for i in range(len(SPEC_LINES))])
def test_model_spec_line_loads(tmp_path, line):
    path = tmp_path / "model.json"
    path.write_text(line, encoding="utf-8")
    assert load_model_spec(path).kind == json.loads(line)["kind"]


def test_cli_lines_name_every_subcommand():
    parser = build_parser()
    (action,) = (a for a in parser._actions if a.dest == "command")
    named = set()
    for line in CLI_LINES:
        # Optional flags are shown in brackets; parse them as given.
        argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)[1:]
        named.add(parser.parse_args(argv).command)
    assert named == set(action.choices)
