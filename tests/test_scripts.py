"""Smoke tests for the standalone scripts under scripts/."""

import csv
import importlib.util
import io
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

from triforms import series
from triforms.dwork import theorem_classifier
from triforms.halphen import TriangleType
from triforms.lab import (
    Classification, empirical_integrality, mirror_map_unit)
from triforms.rationals import primes

ROOT = Path(__file__).resolve().parent.parent


def test_integrality_matrix_rows_match_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "integrality_matrix.py"),
         "--type", "2,5", "--pmax", "31", "--N", "60"],
        env=env, capture_output=True, text=True, check=True).stdout
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == ["type", "p", "N", "verdict", "firstNegativeIndex",
                      "minValuation", "classifier"]
    tri = TriangleType(2, 5)
    unit = mirror_map_unit(tri, 60)
    assert [int(r[1]) for r in rows] == [
        p for p in primes(2, 31) if gcd(p, tri.conductor) == 1]
    for row in rows:
        p = int(row[1])
        v = empirical_integrality(tri, p, unit)
        expected = [str(tri), p, 60, Classification.of(v).value,
                    v.first_failure, v.min_valuation,
                    theorem_classifier(tri, p).verdict.value]
        assert row == ["" if x is None else str(x) for x in expected]


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
