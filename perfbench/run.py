"""End-to-end benchmark of the triforms CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client, like a researcher at a shell.
The client runs one ``python -m triforms.cli ...`` at a time, each in a
fresh interpreter with ``PYTHONPATH=src``, and starts the next when the
previous one exits; there is never more than one child process.  The
seed generates the argv lists (see ``workloads.py``).

Every invocation is checked: exit status 0, every verify cell ``ok``,
and a SHA-256 of stdout equal to the digest recorded in
``golden.json``.  A mismatch, a nonzero exit or a timeout counts as
failed and makes the command exit 1.

Times are CPU time (user + system) of the child, read with wait4.  The
program is single-threaded and CPU-bound, so on a dedicated machine its
CPU time is its latency.  On a shared 2-vCPU x86-64 VM the hypervisor
took 5-20 % of the CPU from the guest in phases lasting minutes (steal
time in /proc/stat), which the wall clock counts and CPU time does not;
over same-seed runs there the wall-clock median latency spread about
60 % more than its CPU-time counterpart.  The summary lines also print
the wall-clock figures.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median time of a fresh ``import triforms.cli``, sampled
  at the start of the run and after every block;
- ``wall_s``: median time the client spends on one complete block;
- ``latency_p50_s`` and ``latency_tail_s``: median and highest
  percentile with ten samples beyond it over all invocations;
- ``cells_per_s``: verify cells per second of verify-invocation time;
- ``peak_rss_mb``: largest resident set of any invocation.

``--trace 1`` repeats the schedule's first block, running every
invocation untraced and then under ``tracer.py``, and reports the
per-layer metrics of ``layers.py``; traced stdout must be byte-identical
to untraced stdout.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary and the run context.  Run ``record_golden.py`` to
record the digests, and ``python3 -m pytest perfbench`` for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

# setup_s is the median of fresh imports taken at the start of a run and
# between its blocks, so that it sees the same machine as the workload.
SETUP_AT_START = 5
SETUP_PER_BLOCK = 3
SETUP_CODE = ("import triforms.cli, triforms.rationals as r; "
              "print(r.RATIONAL_BACKEND)")
INVOCATION_TIMEOUT_S = 30.0
# No invocation starts later than this after the run began, so even a
# traced pair that hangs twice ends inside the 180 s a run may take.
HARD_STOP_S = 100.0
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    status: int
    stdout: bytes
    stderr: bytes
    peak_rss_kb: int
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TRIFORMS_TRACE", None)
    return env


# Forks the command, waits for it and reports its wall time, CPU time,
# exit status and peak RSS as the last stderr line.  A child's ru_maxrss includes the
# RSS of the process it was forked from, so the fork happens in this
# minimal interpreter: the benchmark's own RSS exceeds that of a small CLI
# invocation, while the launcher's stays below every CLI invocation's.
LAUNCH_PREFIX = "PERFBENCH-LAUNCH "
LAUNCHER = f"""
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
elapsed = time.perf_counter() - start
os.write(2, b"{LAUNCH_PREFIX}%r %r %d %d\\n" % (
    elapsed, usage.ru_utime + usage.ru_stime,
    os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def spawn(cmd: list, timeout_s: float) -> Invocation:
    """Run one command to completion through LAUNCHER; read its wall and
    CPU time and its peak RSS."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", "-I", "-c", LAUNCHER, *cmd], cwd=ROOT,
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    lines = err.decode(errors="replace").splitlines(keepends=True)
    if lines and lines[-1].startswith(LAUNCH_PREFIX):
        wall, cpu, status, rss_kb = lines.pop()[len(LAUNCH_PREFIX):].split()
        wall, cpu = float(wall), float(cpu)
        status, rss_kb = int(status), int(rss_kb)
    else:  # the launcher itself was killed
        wall = cpu = perf_counter() - start
        status, rss_kb = proc.returncode, 0
    return Invocation(wall, cpu, status, out, "".join(lines).encode(),
                      rss_kb, killed.is_set())


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "triforms.cli", *argv]


def traced_cmd(argv: list) -> list:
    return [sys.executable, str(HERE / "tracer.py"), *argv]


def check_output(argv: list, inv: Invocation, golden: dict):
    """(problem or None, verify cells) for one untraced invocation."""
    if inv.timed_out:
        return "timed out", 0
    if inv.status != 0:
        return f"exit status {inv.status}", 0
    expected = golden.get(workloads.argv_key(argv))
    if expected is None:
        return "no recorded digest", 0
    if hashlib.sha256(inv.stdout).hexdigest() != expected:
        return "stdout digest differs from golden.json", 0
    if argv[0] != "verify":
        return None, 0
    payload = json.loads(inv.stdout)
    if payload["failures"] or not all(c["ok"] for c in payload["cells"]):
        return "a verify cell is not ok", 0
    return None, len(payload["cells"])


class Client:
    """The single closed-loop client of one run."""

    def __init__(self, seconds: float):
        self.golden = json.loads(GOLDEN.read_text())
        start = perf_counter()
        self.deadline = start + seconds
        self.hard_stop = start + HARD_STOP_S
        self.attempted = 0
        self.failed = 0

    def over(self, have_block: bool) -> bool:
        """True once no further invocation may start: the run's time is
        up and a block is complete, or the hard stop has passed."""
        now = perf_counter()
        return now >= self.hard_stop or (have_block and now >= self.deadline)

    def run(self, argv: list):
        """Run and check one untraced invocation; (Invocation, cells)."""
        inv = spawn(cli_cmd(argv), INVOCATION_TIMEOUT_S)
        problem, cells = check_output(argv, inv, self.golden)
        self.attempted += 1
        if problem:
            self.failed += 1
            report_failure(argv, problem, inv)
        return inv, cells


def report_failure(argv, problem, inv):
    tail = inv.stderr.decode(errors="replace").strip().splitlines()[-3:]
    print(f"# FAILED {workloads.argv_key(argv)}: {problem}")
    for line in tail:
        print(f"#   {line[:300]}")


def time_imports(samples: int):
    """(times from a fresh interpreter to `import triforms.cli` done, the
    rational backend the package reports)."""
    times, backend = [], None
    for _ in range(samples):
        inv = spawn([sys.executable, "-c", SETUP_CODE], INVOCATION_TIMEOUT_S)
        if inv.status != 0:
            raise SystemExit("perfbench: importing triforms.cli failed:\n"
                             + inv.stderr.decode(errors="replace"))
        times.append(inv.cpu_s)
        backend = inv.stdout.decode().strip()
    return times, backend


def tail_latency(times: list) -> float:
    """The eleventh-largest sample: the highest percentile with at least
    ten samples beyond it (the largest when there are fewer)."""
    return sorted(times, reverse=True)[min(TAIL_BEYOND, len(times) - 1)]


def tail_percentile(n: int) -> float:
    return 100.0 * (1 - TAIL_BEYOND / n) if n > TAIL_BEYOND else 100.0


def run_untraced(workload: str, seed: int, seconds: float):
    setup_times, backend = time_imports(SETUP_AT_START)
    client = Client(seconds)
    invocations, blocks_cpu, blocks_wall = [], [], []
    cells = 0
    blocks = workloads.blocks(workload, seed)
    while not client.over(bool(blocks_cpu)):
        block_start, done = perf_counter(), len(invocations)
        for argv in next(blocks):
            if client.over(bool(blocks_cpu)):
                break
            inv, n_cells = client.run(argv)
            invocations.append((argv[0] == "verify", inv))
            cells += n_cells
        else:
            blocks_wall.append(perf_counter() - block_start)
            blocks_cpu.append(sum(inv.cpu_s for _, inv in invocations[done:]))
            setup_times += time_imports(SETUP_PER_BLOCK)[0]
    if not blocks_cpu:
        client.failed += 1
        print(f"# FAILED no block completed within {HARD_STOP_S:.0f} s")
        blocks_cpu.append(sum(inv.cpu_s for _, inv in invocations))
        blocks_wall.append(perf_counter() - block_start)

    def figures(time_of):
        times = [time_of(inv) for _, inv in invocations]
        verify_s = sum(time_of(inv) for is_verify, inv in invocations
                       if is_verify)
        return {"latency_p50_s": statistics.median(times),
                "latency_tail_s": tail_latency(times),
                "cells_per_s": cells / verify_s if verify_s else 0.0}

    n = len(invocations)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(blocks_cpu),
        **figures(lambda inv: inv.cpu_s),
        "peak_rss_mb": max(inv.peak_rss_kb for _, inv in invocations) / 1024,
    }
    clock = {"wall_s": statistics.median(blocks_wall),
             **figures(lambda inv: inv.wall_s)}
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh imports",
        "wall_s": f"median of {len(blocks_cpu)} complete blocks",
        "latency_p50_s": f"median of n={n} invocations",
        "latency_tail_s": f"p{tail_percentile(n):.1f} of n={n}",
        "cells_per_s": f"{cells} verify cells",
        "peak_rss_mb": "largest child resident set",
    }
    for name, value in metrics.items():
        extra = (f" (wall clock {clock[name]:.6f})" if name in clock else "")
        print(f"{name:15s} {value:12.6f} {E2E_UNITS[name]:4s} "
              f"{notes[name]}{extra}")
    share = client.failed / client.attempted
    print(f"{'failed_share':15s} {share:12.6f} {'ratio':4s} "
          f"{client.failed}/{client.attempted} invocations")
    result = {name: {"value": value, "unit": E2E_UNITS[name]}
              for name, value in metrics.items()}
    return client, result, backend


def run_traced(workload: str, seed: int, seconds: float):
    client = Client(seconds)
    block = next(workloads.blocks(workload, seed))
    stats = layers.LayerStats()
    plain_s = traced_s = 0.0
    trace_ok = True
    reps = 0
    while True:
        rep_start = perf_counter()
        for argv in block:
            if client.over(False):
                break
            plain, _ = client.run(argv)
            traced = spawn(traced_cmd(argv), INVOCATION_TIMEOUT_S)
            client.attempted += 1
            spans, problem = read_spans(traced.stderr), None
            if traced.status == tracer.MISSING_TARGET_EXIT:
                problem = "tracer could not install a listed wrapper"
                trace_ok = False
            elif traced.timed_out or traced.status != 0:
                problem = f"traced exit status {traced.status}"
            elif traced.stdout != plain.stdout:
                problem = "traced stdout differs from untraced stdout"
                trace_ok = False
            elif spans is None:
                problem = "tracer wrote no spans"
            if problem:
                client.failed += 1
                report_failure(argv, problem, traced)
                continue
            stats.add(spans)
            plain_s += plain.cpu_s
            traced_s += traced.cpu_s
        reps += 1
        now = perf_counter()
        if (now + (now - rep_start) > client.deadline
                or now >= client.hard_stop or not trace_ok):
            break
    overhead = traced_s / plain_s - 1 if plain_s else 0.0
    print(f"# traced {reps} repetition(s) of a block of {len(block)} "
          f"invocations; per-layer figures are per block")
    for text, holds in layers.shape_checks(workload, stats):
        verdict = {True: "PASS", False: "FAIL", None: "INFO"}[holds]
        print(f"# shape [{verdict}] {workload}: {text}")
    metrics = stats.metrics(reps, overhead)
    for name, entry in metrics.items():
        print(f"{name:42s} {entry['value']:14.6f} {entry['unit']}")
    return client, metrics


def read_spans(stderr: bytes):
    """The spans a traced invocation wrote, or None."""
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(tracer.SPANS_PREFIX):
            return json.loads(line[len(tracer.SPANS_PREFIX):])
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "triforms" / "cli.py").is_file():
        print(f"perfbench: no triforms sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    if args.trace:
        backend = time_imports(1)[1]
        client, metrics = run_traced(args.workload, args.seed, args.seconds)
    else:
        client, metrics, backend = run_untraced(
            args.workload, args.seed, args.seconds)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, 1 client, fresh interpreter per invocation",
        "rational_backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "commit": git_commit(),
        "src_lines": src_lines(),
        "machine_settings": "unchanged: no CPU pinning, frequency control "
                            "or core isolation could be applied",
    }
    print("# context " + json.dumps(context, sort_keys=True))
    correct = client.failed == 0
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
