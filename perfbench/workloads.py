"""Seeded argv schedules for the three benchmark workloads.

The seed generates only argv lists, drawn from fixed pools; the program
under test sees nothing else.  A schedule is an endless sequence of
blocks, each shuffled.  A block draws one triangle type from every cost
stratum of its workload (halphen-forms, with a small pool, runs every
type in every block), so blocks have nearly the same cost mix whatever
the seed.  The strata were sorted by each type's measured cost at the
commit that introduced the benchmark (``fractions`` backend, Python
3.11, a 2-vCPU x86-64 VM); they only balance the draw and never change
what is checked.
"""

from __future__ import annotations

import random

# Consecutive pairs of primes in 11..31.  All are coprime to every
# conductor 2*m1*m2 with m1, m2 <= 8, whose prime factors are 2, 3, 5, 7.
WINDOWS = [(11, 13), (13, 17), (17, 19), (19, 23), (23, 29), (29, 31)]

# One order for every window, 2 * 31 + 20, so that N >= 2 p + 20 holds
# for every prime checked; an invocation's cost then depends on its type
# and barely on the seed-drawn window.
SCHWARZ_ORDER = 2 * WINDOWS[-1][1] + 20

# The criterion-6 grid: hyperbolic (m1, m2) with m2 <= 8, plus (2,inf)
# and (3,inf), in six strata by the cost of `verify --suite schwarz`.
MIRROR_STRATA = [
    ["6,6", "3,3", "3,inf", "2,inf", "8,8"],
    ["2,6", "7,7", "2,4", "4,4", "5,5"],
    ["3,6", "2,8", "4,8", "2,3", "4,6"],
    ["2,5", "3,8", "4,5", "3,4", "3,5"],
    ["3,7", "6,8", "4,7", "5,7", "5,6"],
    ["7,8", "2,7", "6,7", "5,8"],
]
GRID = [t for stratum in MIRROR_STRATA for t in stratum]
CLASSIFY_TOPS = [1000, 2000, 3000]

# The same grid in four strata by the cost of `verify --suite
# cross-route` plus `expand --series zmap`.  Order 30 rather than 40
# keeps about 80 invocations in a run, enough for a latency tail, while
# reversion, compose and series mul still hold over 80 % of the time.
CROSS_STRATA = [
    ["2,6", "6,6", "5,5", "3,3", "8,8", "4,4", "3,inf"],
    ["7,7", "2,inf", "4,6", "2,4", "2,8", "2,7", "3,6"],
    ["5,6", "2,3", "2,5", "3,5", "3,4", "7,8", "6,7"],
    ["4,8", "3,7", "4,7", "5,7", "6,8", "3,8", "5,8", "4,5"],
]

# Types whose J at N = 150 and generator check at N = 60 each took under
# about 4 s.  The orders used, J at N = 100 and generators at N = 40,
# keep about 50 invocations in a run, enough for a latency tail; the
# Halphen solve and Laurent arithmetic still hold most of the time.
HALPHEN_TYPES = ["4,4", "3,inf", "2,inf", "2,4", "3,3", "6,6", "2,3",
                 "5,5", "2,6"]


def schwarz_argv(tri: str, window) -> list:
    return ["verify", "--suite", "schwarz", "--type", tri, "--primes",
            f"{window[0]}..{window[1]}", "--N", str(SCHWARZ_ORDER)]


def classify_argv(tri: str, top: int) -> list:
    return ["classify", "--type", tri, "--primes", f"21..{top}"]


REMARK_ARGV = ["verify", "--suite", "remark", "--long"]


def cross_route_argvs(tri: str) -> list:
    return [["verify", "--suite", "cross-route", "--type", tri, "--N", "30"],
            ["expand", "--type", tri, "--series", "zmap", "--N", "30"]]


def j_argv(tri: str) -> list:
    return ["expand", "--type", tri, "--series", "J", "--N", "100"]


def generators_argv(tri: str, window) -> list:
    return ["verify", "--suite", "generators", "--type", tri,
            "--primes", f"{window[0]}..{window[1]}", "--N", "40"]


def _mirror_block(rng: random.Random, first: bool) -> list:
    block = [schwarz_argv(rng.choice(stratum), rng.choice(WINDOWS))
             for stratum in MIRROR_STRATA]
    block.append(classify_argv(rng.choice(GRID), rng.choice(CLASSIFY_TOPS)))
    if first:
        # once per run: at 2.7 s it would otherwise fill the latency tail
        block.append(list(REMARK_ARGV))
    return block


def _cross_block(rng: random.Random, first: bool) -> list:
    return [argv for stratum in CROSS_STRATA
            for argv in cross_route_argvs(rng.choice(stratum))]


def _halphen_block(rng: random.Random, first: bool) -> list:
    return [argv for tri in HALPHEN_TYPES
            for argv in (j_argv(tri), generators_argv(tri, rng.choice(WINDOWS)))]


def _mirror_pool() -> list:
    return ([schwarz_argv(t, w) for t in GRID for w in WINDOWS]
            + [classify_argv(t, top) for t in GRID for top in CLASSIFY_TOPS]
            + [list(REMARK_ARGV)])


def _cross_pool() -> list:
    return [argv for stratum in CROSS_STRATA for t in stratum
            for argv in cross_route_argvs(t)]


def _halphen_pool() -> list:
    return [argv for t in HALPHEN_TYPES
            for argv in [j_argv(t)] + [generators_argv(t, w) for w in WINDOWS]]


#: workload name -> (block generator, pool enumerator, why)
WORKLOADS = {
    "mirror-integrality": (
        _mirror_block, _mirror_pool,
        "Schwarz-vs-empirical cells, classify and the 183-term remark: "
        "divide and exp_series on tall rationals, no reversion or Halphen "
        "solve; shows a p-adic path or a per-type cache"),
    "cross-route": (
        _cross_block, _cross_pool,
        "cross-route verify and zmap expand at N=30: reversion, compose and "
        "series mul dominate; no reuse within an invocation, so a cache "
        "should change nothing"),
    "halphen-forms": (
        _halphen_block, _halphen_pool,
        "J at N=100 and generator checks at N=40: Halphen solve, Laurent "
        "arithmetic and big-rational JSON; never touches hypergeom; guards "
        "the LaurentSeries simplification"),
}


def blocks(workload: str, seed: int):
    """Endless sequence of shuffled argv blocks for one workload."""
    make = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}/{seed}")
    first = True
    while True:
        block = make(rng, first)
        rng.shuffle(block)
        first = False
        yield block


def pool(workload: str) -> list:
    """Every argv list the workload's schedule can generate."""
    return WORKLOADS[workload][1]()


def argv_key(argv) -> str:
    return " ".join(argv)
