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
    original = series._common_denominator
    rows = bench_kernels.bench([TriangleType(2, 5), TriangleType(2, None)],
                               [6, 9])
    assert series._common_denominator is original
    assert {(r["kernel"], r["impl"]) for r in rows} == {
        ("mul", "packed"), ("divide", "newton"), ("divide", "loop"),
        ("exp", "newton"), ("exp", "loop"), ("log", "newton"),
        ("compose", "horner"), ("reversion", "newton")}
    assert len(rows) == 8 * 2 * 2
    assert {(r["type"], r["N"]) for r in rows} == {
        (t, n) for t in ("(2,5)", "(2,inf)") for n in (6, 9)}
    for r in rows:
        assert r["seconds"] >= 0 and r["runs"] >= 1
        assert r["max_num_bits"] >= 1 and r["max_den_bits"] >= 1
        # only the loops run without a packed product
        assert (r["common_den_bits"] is None) == (r["impl"] == "loop")
