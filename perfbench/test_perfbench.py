"""The benchmark's own tests: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import sys
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _draw(name, seed, n_blocks=4):
    return list(itertools.islice(workloads.blocks(name, seed), n_blocks))


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _conductor(tri):
    m1, m2 = tri.split(",")
    return 2 * int(m1) * (1 if m2 == "inf" else int(m2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_the_draw(name):
    assert _draw(name, 7) == _draw(name, 7)
    assert _draw(name, 7) != _draw(name, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_stays_inside_the_recorded_pool(name):
    pool = {workloads.argv_key(a) for a in workloads.pool(name)}
    golden = json.loads(run.GOLDEN.read_text())
    assert pool <= set(golden)
    for seed in range(20):
        for block in _draw(name, seed):
            assert {workloads.argv_key(a) for a in block} <= pool


def test_schwarz_orders_and_primes():
    schwarz = [a for a in workloads.pool("mirror-integrality")
               if a[:3] == ["verify", "--suite", "schwarz"]]
    assert len(schwarz) == len(workloads.GRID) * len(workloads.WINDOWS)
    for argv in schwarz:
        opts = dict(zip(argv[3::2], argv[4::2]))
        lo, hi = map(int, opts["--primes"].split(".."))
        primes = [p for p in range(lo, hi + 1) if _is_prime(p)]
        assert primes and int(opts["--N"]) >= 2 * max(primes) + 20
        assert all(gcd(p, _conductor(opts["--type"])) == 1 for p in primes)


def test_generator_primes_are_coprime():
    for argv in workloads.pool("halphen-forms"):
        if "generators" in argv:
            opts = dict(zip(argv[3::2], argv[4::2]))
            lo, hi = map(int, opts["--primes"].split(".."))
            primes = [p for p in range(lo, hi + 1) if _is_prime(p)]
            assert len(primes) == 2
            assert all(gcd(p, _conductor(opts["--type"])) == 1 for p in primes)


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: spec[2] for name, spec in workloads.WORKLOADS.items()}
    for w in BENCHMARK["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert [[m["name"], m["unit"], m["better"]] for m in BENCHMARK["per_layer"]] == [
        list(row[:3]) for row in layers.PER_LAYER]


def test_layer_map_names_end_to_end_metrics_and_workloads():
    for _, _, _, moves, mostly_on in layers.PER_LAYER:
        assert set(moves) <= set(run.E2E_UNITS)
        assert mostly_on and set(mostly_on) <= set(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    spans = [["cli.main", 0.0, 10.0, -1, None, 0, 0, 1, 0],
             ["series.laurent", 1.0, 5.0, 0, 4, 3, 2, 1, 0],
             ["series.laurent", 2.0, 4.0, 1, 4, 7, 1, 0, 0],
             ["series.mul", 2.5, 3.0, 2, 4, 0, 0, 1, 0]]
    stats = layers.LayerStats()
    stats.add(spans)
    assert stats.self_s["cli.main"] == pytest.approx(6.0)
    assert stats.self_s["series.laurent"] == pytest.approx(2.0 + 1.5)
    assert stats.inclusive_s["series.laurent"] == pytest.approx(4.0)
    assert (stats.max_num_bits, stats.max_den_bits) == (7, 2)
    metrics = stats.metrics(reps=1, overhead_share=0.5)
    assert metrics["series.mul.calls"]["value"] == 1
    assert metrics["trace.overhead_share"]["value"] == 0.5


def test_tail_is_eleventh_largest():
    assert run.tail_latency([float(i) for i in range(40)]) == 29.0
    assert run.tail_percentile(40) == pytest.approx(75.0)
    assert run.tail_latency([1.0, 3.0, 2.0]) == 1.0


def test_traced_stdout_is_identical_and_spans_are_recorded():
    argv = ["verify", "--suite", "generators", "--type", "2,3",
            "--primes", "11..13", "--N", "12"]
    plain = run.spawn(run.cli_cmd(argv), 60)
    traced = run.spawn(run.traced_cmd(argv), 60)
    assert plain.status == traced.status == 0
    assert traced.stdout == plain.stdout
    names = {span[0] for span in run.read_spans(traced.stderr)}
    assert {"cli.main", "halphen.solve_halphen", "series.laurent",
            "lab.generators_via_j", "series.mul", "cli.emit"} <= names


def test_missing_entry_point_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    # listed first, so nothing is wrapped in this process before it fails
    monkeypatch.setattr(tracer, "FUNCTIONS",
                        [("series", "no_such_kernel", "x")] + tracer.FUNCTIONS)
    with pytest.raises(tracer.MissingTarget):
        tracer.install(tracer.Recorder())


def test_exits_nonzero_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", HERE / "no-checkout-here")
    status = run.main(["--workload", "cross-route", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert status != 0
    assert capsys.readouterr().out == ""
