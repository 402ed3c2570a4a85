"""Per-layer metrics of a traced pass, computed from the recorded spans.

``.s`` is the inclusive wall time of the outermost spans of that name,
``.calls`` the number of spans, ``.points`` / ``.rows`` the summed work
counts.  Self times (duration minus children) are in the written span
summary.
"""

import json
from pathlib import Path

# name -> unit, in the order of BENCHMARK.json; the rules below compute them.
METRICS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}

_NESTED = {
    # metric -> (span counted, ancestor span it must run under)
    "domains.directional_distance.value_calls_per_call":
        ("domains.value", "domains.directional_distance"),
    "metrics.path_distance_upper.dist_calls":
        ("domains.boundary_distance_batch", "metrics.path_distance_upper"),
}


def per_layer(tracer, import_s, untraced_s, traced_s, untraced_scenario_s):
    """{metric: value} for every name in METRICS."""
    summary = tracer.summary()
    empty = {"calls": 0, "work": 0.0, "s": 0.0}
    out = {}
    for metric in METRICS:
        span, _, field = metric.rpartition(".")
        if metric in _NESTED:
            child, parent = _NESTED[metric]
            nested = int((tracer.spans_named(child) & tracer.under(parent)).sum())
            if metric.endswith("per_call"):
                calls = summary.get(parent, empty)["calls"]
                out[metric] = nested / calls if calls else 0.0
            else:
                out[metric] = nested
        elif metric == "domains.value.points_per_s":
            v = summary.get("domains.value", empty)
            out[metric] = v["work"] / v["s"] if v["s"] else 0.0
        elif metric == "setup.import_s":
            out[metric] = import_s
        elif metric == "trace_overhead":
            out[metric] = traced_s / untraced_s
        elif metric.startswith("scenario_s."):
            out[metric] = untraced_scenario_s.get(metric.split(".", 1)[1], 0.0)
        else:
            stats = summary.get(span, empty)
            out[metric] = stats["s"] if field == "s" else \
                stats["calls"] if field == "calls" else int(stats["work"])
    return out
