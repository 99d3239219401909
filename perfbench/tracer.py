"""Run one triforms CLI invocation with spans around its layer entry points.

Usage: PYTHONPATH=src python perfbench/tracer.py <cli argv...>

The wrappers are installed from outside the package, before
``triforms.cli.main`` runs.  Modules bind these names with
``from .x import y``, so each wrapper replaces every binding of the
original object in every loaded ``triforms`` module.  A listed name that
no longer exists stops the run with exit status 3 instead of reporting
zero for its layer.

Spans are kept in memory and written once, when the invocation ends, as
one JSON line on stderr prefixed by ``SPANS_PREFIX``; stdout is left to
the CLI untouched.  Each span is
``[name, start, end, parent, N, num_bits, den_bits, outermost, repeat]``:
start and end are the process's CPU time, like the benchmark's other
timings; ``parent`` is the index of the enclosing span (-1 for none),
``N`` the order argument or the truncation of the first series
argument, the bits are the largest numerator and denominator among the
rational inputs, ``outermost`` is 0 when a span of the same name
encloses it, and ``repeat`` is 1 when the call's (params, N) key was
already seen in this invocation (tracked for ``REPEAT_KEYED`` names
only).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import process_time

SPANS_PREFIX = "PERFBENCH-SPANS "
MISSING_TARGET_EXIT = 3

#: (module, attribute, span name) for module-level functions.
FUNCTIONS = [
    ("series", "divide", "series.divide"),
    ("series", "exp_series", "series.exp_series"),
    ("series", "compose", "series.compose"),
    ("series", "reversion", "series.reversion"),
    ("series", "valuation_profile", "series.valuation_profile"),
    ("rationals", "rational_to_str", "rationals.rational_to_str"),
    ("halphen", "solve_halphen", "halphen.solve_halphen"),
    ("halphen", "hauptmodul_from_halphen", "halphen.hauptmodul_from_halphen"),
    ("halphen", "eisenstein_one", "halphen.eisenstein"),
    ("halphen", "eisenstein_two", "halphen.eisenstein"),
    ("hypergeom", "series_f", "hypergeom.series_fg"),
    ("hypergeom", "series_g", "hypergeom.series_fg"),
    ("hypergeom", "schwarz_map", "hypergeom.schwarz_map"),
    ("hypergeom", "mirror_map", "hypergeom.mirror_map"),
    ("lab", "empirical_integrality", "lab.empirical_integrality"),
    ("lab", "schwarz_congruence_check", "lab.schwarz_congruence_check"),
    ("lab", "cross_route_consistency", "lab.cross_route_consistency"),
    ("lab", "generators_via_j", "lab.generators_via_j"),
    ("lab", "generator_integrality", "lab.generator_integrality"),
    ("dwork", "theorem_classifier", "dwork.theorem_classifier"),
    ("dwork", "dwork_map", "dwork.dwork_map"),
    ("cli", "emit", "cli.emit"),
    ("cli", "main", "cli.main"),
]

#: (module, class, method, span name) for series arithmetic.
METHODS = [
    ("series", "TruncatedSeries", "__mul__", "series.mul"),
    ("series", "LaurentSeries", "__mul__", "series.laurent"),
    ("series", "LaurentSeries", "__truediv__", "series.laurent"),
    ("series", "LaurentSeries", "__pow__", "series.laurent"),
]

#: Span names whose calls are keyed by (first argument, N) for repeat_share.
REPEAT_KEYED = {"hypergeom.schwarz_map", "halphen.solve_halphen"}


class MissingTarget(RuntimeError):
    """A listed entry point no longer exists in the package."""


class Recorder:
    """Collects spans for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}
        self.seen = set()

    def wrap(self, name, fn):
        spans, stack, depth, seen = self.spans, self.stack, self.depth, self.seen
        keyed = name in REPEAT_KEYED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            order, num_bits, den_bits = _describe(args)
            repeat = 0
            if keyed:
                key = (args[0], order)
                repeat = int(key in seen)
                seen.add(key)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, order,
                    num_bits, den_bits, int(not depth.get(name)), repeat]
            spans.append(span)
            stack.append(index)
            depth[name] = depth.get(name, 0) + 1
            span[1] = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = process_time()
                depth[name] -= 1
                stack.pop()

        return wrapper


def _bits(x):
    return x.numerator.bit_length(), x.denominator.bit_length()


def _describe(args):
    """(N, numerator bits, denominator bits) of a call's inputs.

    N is the truncation of the first series argument or, for calls such
    as ``empirical_integrality(tri, p, n_order)``, the last integer one.
    """
    series_order = int_order = None
    num_bits = den_bits = 0
    for arg in args:
        coeffs = getattr(arg, "coeffs", None)
        if coeffs is not None:
            if series_order is None:
                series_order = arg.truncation
            for c in coeffs:
                n, d = _bits(c)
                num_bits = max(num_bits, n)
                den_bits = max(den_bits, d)
        elif isinstance(arg, int):
            int_order = arg
        elif hasattr(arg, "denominator"):
            n, d = _bits(arg)
            num_bits = max(num_bits, n)
            den_bits = max(den_bits, d)
    order = series_order if series_order is not None else int_order
    return order, num_bits, den_bits


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "triforms" or name.startswith("triforms."))]


def install(recorder: Recorder) -> None:
    """Wrap every listed entry point; raise MissingTarget if one is gone."""
    importlib.import_module("triforms.cli")
    modules = _package_modules()
    for mod_name, attr, span_name in FUNCTIONS:
        home = importlib.import_module(f"triforms.{mod_name}")
        if not hasattr(home, attr):
            raise MissingTarget(f"triforms.{mod_name}.{attr}")
        original = getattr(home, attr)
        wrapper = recorder.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for mod_name, cls_name, method, span_name in METHODS:
        home = importlib.import_module(f"triforms.{mod_name}")
        cls = getattr(home, cls_name, None)
        if cls is None or method not in vars(cls):
            raise MissingTarget(f"triforms.{mod_name}.{cls_name}.{method}")
        original = vars(cls)[method]
        wrapper = recorder.wrap(span_name, original)
        for key, value in list(vars(cls).items()):
            if value is original:  # also catches aliases such as __rmul__
                setattr(cls, key, wrapper)


def main(argv) -> int:
    recorder = Recorder()
    try:
        install(recorder)
    except MissingTarget as exc:
        print(f"perfbench tracer: listed entry point missing: {exc}",
              file=sys.stderr)
        return MISSING_TARGET_EXIT
    import triforms.cli

    try:
        status = triforms.cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(SPANS_PREFIX + json.dumps(recorder.spans) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
