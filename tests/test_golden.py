"""Every invocation recorded in perfbench/golden.json keeps its stdout
(SHA-256) and exits 0, run in process.

The digests are recorded by perfbench/record_golden.py; this test only
reads them.
"""

import json
from pathlib import Path

import pytest

from test_readme_cli import run

GOLDEN = json.loads((Path(__file__).resolve().parents[1]
                     / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_invocation(argv):
    assert run(f"triforms {argv}") == {"sha256": GOLDEN[argv], "status": 0}
