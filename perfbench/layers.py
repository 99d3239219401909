"""Per-layer metrics from tracer spans, and the layer -> end-to-end map.

Self time is a span's CPU time minus the CPU time its child spans cover;
``.s`` metrics are inclusive durations of outermost spans.  All figures
are per block: totals over the traced repetitions of a block divided by
the number of repetitions, so counts stay exact integers.
"""

from __future__ import annotations

from collections import defaultdict

#: (metric, unit, better, end-to-end metrics it should move, workloads it
#: mostly shows on).  BENCHMARK.json lists the first three columns.  An
#: empty second-to-last column means no visible end-to-end change is
#: expected: the layer's share is small, or the metric is the tracing
#: cost itself.
PER_LAYER = [
    ("series.divide.self_s", "s", "lower",
     ("wall_s", "cells_per_s", "peak_rss_mb"),
     ("mirror-integrality",)),
    ("series.exp_series.self_s", "s", "lower",
     ("wall_s", "cells_per_s", "peak_rss_mb"),
     ("mirror-integrality",)),
    ("series.valuation_profile.self_s", "s", "lower",
     ("wall_s", "cells_per_s", "peak_rss_mb"),
     ("mirror-integrality",)),
    ("rationals.max_num_bits", "bits", "lower",
     ("wall_s", "cells_per_s", "peak_rss_mb"),
     ("mirror-integrality",)),
    ("rationals.max_den_bits", "bits", "lower",
     ("wall_s", "cells_per_s", "peak_rss_mb"),
     ("mirror-integrality",)),
    ("hypergeom.schwarz_map.calls", "count", "lower",
     ("wall_s", "cells_per_s"),
     ("mirror-integrality",)),
    ("hypergeom.schwarz_map.repeat_share", "ratio", "lower",
     ("wall_s", "cells_per_s"),
     ("mirror-integrality",)),
    ("hypergeom.series_fg.self_s", "s", "lower",
     ("wall_s", "cells_per_s"),
     ("mirror-integrality",)),
    ("lab.empirical_integrality.s", "s", "lower",
     ("cells_per_s",),
     ("mirror-integrality",)),
    ("lab.schwarz_congruence_check.s", "s", "lower",
     ("cells_per_s",),
     ("mirror-integrality",)),
    ("dwork.theorem_classifier.cells_per_s", "1/s", "higher",
     (),
     ("mirror-integrality",)),
    ("dwork.dwork_map.calls", "count", "lower",
     (),
     ("mirror-integrality",)),
    ("series.reversion.self_s", "s", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("series.compose.self_s", "s", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("series.compose.calls", "count", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("series.mul.self_s", "s", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("series.mul.calls", "count", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("hypergeom.mirror_map.self_s", "s", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("lab.cross_route_consistency.s", "s", "lower",
     ("latency_p50_s", "latency_tail_s", "wall_s"),
     ("cross-route",)),
    ("halphen.solve_halphen.self_s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("halphen.solve_halphen.calls", "count", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("halphen.solve_halphen.repeat_share", "ratio", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("halphen.hauptmodul_from_halphen.self_s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("halphen.eisenstein.self_s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("series.laurent.self_s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("series.laurent.s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("lab.generators_via_j.self_s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("lab.generator_integrality.s", "s", "lower",
     ("wall_s", "latency_tail_s"),
     ("halphen-forms",)),
    ("cli.emit.self_s", "s", "lower",
     ("latency_p50_s",),
     ("halphen-forms", "mirror-integrality")),
    ("rationals.rational_to_str.self_s", "s", "lower",
     ("latency_p50_s",),
     ("halphen-forms", "mirror-integrality")),
    ("cli.main.self_s", "s", "lower",
     ("latency_p50_s",),
     ("halphen-forms", "mirror-integrality")),
    ("trace.overhead_share", "ratio", "lower",
     (),
     ("mirror-integrality", "cross-route", "halphen-forms")),
]


class LayerStats:
    """Per-span-name totals over any number of traced invocations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.repeats = defaultdict(int)
        self.max_num_bits = 0
        self.max_den_bits = 0

    def add(self, spans) -> None:
        covered = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, _order, num_bits, den_bits,
                outermost, repeat) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - covered[i]
            if outermost:
                self.inclusive_s[name] += duration
            self.repeats[name] += repeat
            self.max_num_bits = max(self.max_num_bits, num_bits)
            self.max_den_bits = max(self.max_den_bits, den_bits)

    def traced_s(self) -> float:
        """Time inside the CLI, which every span's self time adds up to."""
        return self.inclusive_s["cli.main"]

    def share(self, self_names=(), inclusive_names=()) -> float:
        part = (sum(self.self_s[n] for n in self_names)
                + sum(self.inclusive_s[n] for n in inclusive_names))
        total = self.traced_s()
        return part / total if total else 0.0

    def metrics(self, reps: int, overhead_share: float) -> dict:
        out = {}
        for metric, unit, *_ in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if kind == "self_s":
                value = self.self_s[name] / reps
            elif kind == "s":
                value = self.inclusive_s[name] / reps
            elif kind == "calls":
                value = self.calls[name] // reps
            elif kind == "repeat_share":
                value = (self.repeats[name] / self.calls[name]
                         if self.calls[name] else 0.0)
            elif kind == "cells_per_s":
                value = (self.calls[name] / self.self_s[name]
                         if self.self_s[name] else 0.0)
            elif metric == "rationals.max_num_bits":
                value = self.max_num_bits
            elif metric == "rationals.max_den_bits":
                value = self.max_den_bits
            elif metric == "trace.overhead_share":
                value = overhead_share
            else:
                raise KeyError(metric)
            out[metric] = {"value": value, "unit": unit}
        return out


def shape_checks(workload: str, stats: LayerStats) -> list:
    """(description, holds) lines documenting why each workload exists;
    holds is None for a figure that is only reported.

    They are reported, not enforced: a later optimisation may rightly
    move the dominant layer of a workload.
    """
    calls = stats.calls
    hypergeom_calls = sum(n for name, n in calls.items()
                          if name.startswith("hypergeom."))
    checks = []
    if workload == "mirror-integrality":
        share = stats.share(["series.divide", "series.exp_series"])
        checks.append((f"series.reversion calls = {calls['series.reversion']} "
                       "(expected 0)", calls["series.reversion"] == 0))
        checks.append((f"series.divide + exp_series hold {share:.1%} of "
                       "self time (expected most)", share > 0.5))
    elif workload == "cross-route":
        share = stats.share(["series.reversion", "series.compose",
                             "series.mul"])
        checks.append((f"series.reversion + compose + mul hold {share:.1%} "
                       "of self time (expected most)", share > 0.5))
    elif workload == "halphen-forms":
        share = stats.share(["halphen.solve_halphen"], ["series.laurent"])
        checks.append((f"hypergeom calls = {hypergeom_calls} (expected 0)",
                       hypergeom_calls == 0))
        checks.append((f"halphen.solve_halphen self + series.laurent "
                       f"inclusive hold {share:.1%} of traced time "
                       "(expected most)", share > 0.5))
    for name in ("hypergeom.schwarz_map", "halphen.solve_halphen"):
        n = calls[name]
        share = stats.repeats[name] / n if n else 0.0
        checks.append((f"{name} repeat_share = {share:.3f} over {n} calls",
                       None))
    return checks
