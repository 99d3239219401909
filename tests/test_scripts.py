"""Smoke tests for the standalone scripts under scripts/."""

import importlib.util
from pathlib import Path

from triforms import series
from triforms.halphen import TriangleType

ROOT = Path(__file__).resolve().parent.parent


def test_bench_kernels_smoke():
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "scripts" / "bench_kernels.py")
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    original = series.TruncatedSeries.__mul__
    rows = bench_kernels.bench([TriangleType(2, 5), TriangleType(2, None)],
                               [6, 9])
    assert series.TruncatedSeries.__mul__ is original
    assert {(r["kernel"], r["impl"]) for r in rows} == {
        ("mul", "packed"), ("divide", "newton"), ("divide", "loop"),
        ("exp", "newton"), ("exp", "loop"), ("log", "newton"),
        ("compose", "horner"), ("reversion", "newton"),
        ("hauptmodul", "mirror"),
        ("halphen", "integer"), ("halphen", "loop"),
        ("fg", "integer"), ("fg", "loop"),
        ("congruence", "schwarz-residue"), ("congruence", "schwarz-exact"),
        ("congruence", "dwork-residue"), ("congruence", "dwork-exact"),
        ("mirror-verdict", "exact"), ("mirror-verdict", "residue")}
    assert len(rows) == 19 * 2 * 2
    assert {(r["type"], r["N"]) for r in rows} == {
        (t, n) for t in ("(2,5)", "(2,inf)") for n in (6, 9)}
    for r in rows:
        assert 0 <= r["min_s"] <= r["seconds"] <= r["max_s"]
        assert r["max_num_bits"] >= 1 and r["max_den_bits"] >= 1
        # only the loops, the Halphen solve and the basis F, G run
        # without a packed product
        assert (r["common_den_bits"] is None) == (
            r["impl"] == "loop" or r["kernel"] in ("halphen", "fg"))
