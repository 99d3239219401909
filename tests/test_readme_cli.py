"""The `triforms ...` examples in README.md's CLI block keep their stdout
(SHA-256) and exit status, as recorded in readme_cli_golden.json.

Re-record after a deliberate change of output or of the README block:

    PYTHONPATH=src python tests/test_readme_cli.py
"""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from triforms.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).with_name("readme_cli_golden.json")


def readme_commands() -> list:
    """Each `triforms ...` line of the README's CLI block, without its
    trailing comment."""
    block = README.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("triforms ")]


def run(command: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            status = main(shlex.split(command)[1:])
        except SystemExit as exc:
            status = exc.code
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "status": status}


def test_golden_covers_readme():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(readme_commands())


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command(command):
    assert run(command) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run(c) for c in readme_commands()},
                                 indent=2, sort_keys=True) + "\n")
