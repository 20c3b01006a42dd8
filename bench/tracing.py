"""Span and counter wrappers for a traced `hausdorff-op run`, and their analysis.

Run as a script, it installs the wrappers and calls ``hausdorff_op.cli.main``
in this process, then writes every span to a JSON-lines file:

    PYTHONPATH=src python3 bench/tracing.py CONFIG OUT_DIR SPANS_FILE RUN_ID

Nothing under ``src/`` is modified: each public callable is replaced at the
place its caller looks it up (a class attribute, or a name imported into
another module's namespace).  Spans are kept in memory and written at the
end.  The traced run is single-threaded (``HAUSDORFF_OP_THREADS=1``), so one
stack gives every span its parent.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli", "experiments", "operator", "field", "geometry",
    "isometry", "measure_kernel", "summation",
)

# span names that count as one evaluation of a field at some points
_FIELD_EVALS = ("field.values", "field.gradients")


class Tracer:
    """Records nested spans; each span is (id, parent, name, start, end, count, tag)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span per call.

        ``count(args, kwargs, result)`` returns (units of work, tag) for the span.
        """
        inner = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            units, tag = count(args, kwargs, result) if count else (0, "")
            spans[span_id] = (span_id, parent, name, start, end, units, tag)
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, units, tag in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "run": self.run_id,
                    "name": name, "start_ns": start, "end_ns": end,
                    "count": units, "tag": tag,
                }) + "\n")


def _rows(points) -> int:
    return len(points) if np.ndim(points) >= 2 else 1


def _field_points(args, kwargs, result):
    field, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
    return _rows(points), field.kind


def _member_points(args, kwargs, result):
    operator, points = args[0], args[2] if len(args) > 2 else kwargs["points"]
    return len(operator.family) * _rows(points), ""


def _points_arg(args, kwargs, result):
    return _rows(args[1] if len(args) > 1 else kwargs["points"]), ""


def _quad_nodes(args, kwargs, result):
    return len(result.nodes), ""


def _sample_count(args, kwargs, result):
    return len(result), ""


def _result_len(args, kwargs, result):
    family = result[0] if isinstance(result, tuple) else result
    return len(family), ""


def _family_len(args, kwargs, result):
    return len(args[0]), ""


def _elements(args, kwargs, result):
    return int(np.size(args[0])), ""


def _quad_nodes_arg(args, kwargs, result):
    quad = args[2] if len(args) > 2 else kwargs["quad"]
    return len(quad.nodes), ""


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer where their callers look them up."""
    from hausdorff_op import cli, experiments, field, geometry, measure_kernel, operator

    w = tracer.wrap
    w(cli, "parse_config", "cli.parse_config")
    w(cli, "run", "cli.run")
    for name in ("lp_bound", "sobolev_bound", "gradient_check",
                 "measure_preservation", "necessity_divergence"):
        w(cli, f"run_{name}", f"experiments.{name}")
    w(cli, "interior_points", "experiments.interior_points")

    hop = operator.HausdorffOperator
    w(hop, "__init__", "operator.init")
    w(hop, "apply_many", "operator.apply", _member_points)
    w(hop, "apply_gradient_many", "operator.gradient", _member_points)

    w(field.ScalarField, "values", "field.values", _field_points)
    w(field.ScalarField, "gradients", "field.gradients", _field_points)
    for owner in (cli, experiments):
        w(owner, "gaussian", "field.build")
    w(cli, "gaussian_times_poly", "field.build")
    w(cli, "polynomial", "field.build")
    w(experiments, "lp_norm", "field.lp_norm", _quad_nodes_arg)
    w(experiments, "sobolev_norm", "field.sobolev_norm", _quad_nodes_arg)

    w(cli, "build_grid_quadrature", "geometry.quadrature", _quad_nodes)
    w(geometry.Domain, "escape_distance", "geometry.escape", _points_arg)
    w(geometry.Domain, "contains_many", "geometry.contains", _points_arg)
    w(geometry.Domain, "sample_uniform", "geometry.sample", _sample_count)

    for name in ("rotation_family", "shift_family", "finite_group_family", "motion_family"):
        w(cli, name, "isometry.family", _result_len)
    w(experiments, "shift_family", "isometry.family", _result_len)
    w(operator, "check_domain_preserving", "isometry.domain_check", _family_len)

    w(cli, "discretize", "measure_kernel.build")
    w(cli, "kernel_form", "measure_kernel.build")
    for owner in (cli, experiments):
        w(owner, "kernel_on_measure", "measure_kernel.build")
    w(experiments, "gauss_legendre_panels", "measure_kernel.build")
    for owner in (experiments, operator):
        w(owner, "kernel_l1_norm", "measure_kernel.l1_norm")

    for owner in (field, operator, measure_kernel):
        w(owner, "pairwise_sum", "summation.pairwise_sum", _elements)


# analysis


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as src:
        return [json.loads(line) for line in src]


def self_times(spans: list[dict]) -> list[float]:
    """Seconds of each span not covered by its child spans.

    Spans of one single-threaded run nest without overlap, so the covered
    part is the sum of the children's durations.
    """
    covered = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - covered[s["id"]]) * 1e-9 for s in spans]


def layer_table(spans: list[dict]) -> list[dict]:
    """Per span name: calls, total and self seconds, counted units, ns per unit."""
    rows: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = rows.setdefault(s["name"], {"name": s["name"], "calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "units": 0})
        row["calls"] += 1
        row["total_s"] += (s["end_ns"] - s["start_ns"]) * 1e-9
        row["self_s"] += own
        row["units"] += s["count"]
    for row in rows.values():
        row["ns_per_unit"] = row["self_s"] * 1e9 / row["units"] if row["units"] else 0.0
    layers = []
    for layer in LAYERS:
        members = [r for name, r in rows.items() if name.split(".")[0] == layer]
        layers.append({
            "name": layer, "calls": sum(r["calls"] for r in members),
            "total_s": float("nan"), "self_s": sum(r["self_s"] for r in members),
            "units": 0, "ns_per_unit": 0.0,
        })
    return layers + sorted(rows.values(), key=lambda r: r["name"])


def format_table(table: list[dict]) -> str:
    lines = [f"{'span / layer':<30} {'calls':>8} {'self_s':>10} {'total_s':>10} "
             f"{'units':>12} {'ns/unit':>10}"]
    for r in table:
        total = "" if r["total_s"] != r["total_s"] else f"{r['total_s']:.4f}"
        lines.append(f"{r['name']:<30} {r['calls']:>8} {r['self_s']:>10.4f} {total:>10} "
                     f"{r['units']:>12} {r['ns_per_unit']:>10.1f}")
    return "\n".join(lines)


# span name -> the metrics it adds to: its self seconds, total seconds or unit count
_SPAN_METRICS = {
    "operator.apply": (("operator.apply_self_s", "self"), ("operator.member_points", "count")),
    "operator.gradient": (("operator.gradient_self_s", "self"),
                          ("operator.member_points", "count")),
    "field.lp_norm": (("field.norms_self_s", "self"), ("field.norm_nodes", "count")),
    "field.sobolev_norm": (("field.norms_self_s", "self"), ("field.norm_nodes", "count")),
    "geometry.quadrature": (("geometry.quadrature_s", "total"),
                            ("geometry.quadrature_nodes", "count")),
    "geometry.escape": (("geometry.escape_s", "total"), ("geometry.escape_points", "count")),
    "geometry.contains": (("geometry.contains_s", "total"),),
    "geometry.sample": (("geometry.sample_s", "total"),),
    "isometry.family": (("isometry.family_s", "total"), ("isometry.members", "count")),
    "isometry.domain_check": (("isometry.domain_check_s", "total"),),
    "measure_kernel.build": (("measure_kernel.build_s", "total"),),
    "summation.pairwise_sum": (("summation.pairwise_sum_s", "self"),
                               ("summation.elements", "count")),
    "cli.parse_config": (("cli.parse_config_s", "total"),),
    **{f"experiments.{name}": ((f"experiments.{name}_s", "total"),)
       for name in ("lp_bound", "sobolev_bound", "gradient_check",
                    "measure_preservation", "necessity_divergence")},
}
_KINDS = ("gaussian", "gaussian_times_poly")


def layer_metrics(spans: list[dict], computed: dict) -> dict:
    """The per-layer metrics of one traced run (see bench/README.md).

    Ratios and ns-per-unit figures use the computed work counts of the
    config as their base, so a change that does less redundant work shows
    as a lower cost per unit of useful work.  A layer without spans reports 0.
    """
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({metric: 0.0 for adds in _SPAN_METRICS.values() for metric, _ in adds})
    for what in ("values", "gradients"):
        m[f"field.{what}_s"] = 0.0
        m.update({f"field.{what}_ns_per_point.{kind}": 0.0 for kind in _KINDS})
    m["field.value_points"] = m["field.gradient_points"] = 0.0
    by_id = {s["id"]: s for s in spans}
    for s, self_s in zip(spans, self_times(spans)):
        name = s["name"]
        m[f"{name.split('.')[0]}.self_s"] += self_s
        measured = {"self": self_s, "total": (s["end_ns"] - s["start_ns"]) * 1e-9,
                    "count": s["count"]}
        for metric, which in _SPAN_METRICS.get(name, ()):
            m[metric] += measured[which]
        parent = by_id.get(s["parent"])
        if (name in _FIELD_EVALS and s["tag"] != "pushforward"
                and (parent is None or parent["name"] not in _FIELD_EVALS)):
            # an outermost evaluation; a product's factor evaluations lie inside it
            what = name.split(".")[1]
            m[f"field.{what}_s"] += measured["total"]
            m["field.value_points" if what == "values" else "field.gradient_points"] += s["count"]
            if s["tag"] in _KINDS:
                m[f"field.{what}_ns_per_point.{s['tag']}"] += measured["total"]

    def per(seconds, units):
        return seconds * 1e9 / units if units else 0.0

    m["operator.apply_ns_per_member_point"] = per(
        m["operator.apply_self_s"], computed["member_point_values"])
    for kind in _KINDS:
        # these hold seconds until divided by the computed points of the kind
        for what, useful in (("values", "useful_values"), ("gradients", "useful_gradients")):
            key = f"field.{what}_ns_per_point.{kind}"
            m[key] = per(m[key], computed[useful].get(kind, 0))
    evaluated = m["field.value_points"] + m["field.gradient_points"]
    m["field.eval_useful_ratio"] = computed["useful_field_evals"] / evaluated if evaluated else 0.0
    return m


def main(argv: list[str]) -> int:
    config, out_dir, spans_path, run_id = argv
    tracer = Tracer(run_id)
    install(tracer)
    from hausdorff_op import cli

    tracer.wrap(cli, "main", "cli.main")
    try:
        return cli.main(["run", config, "--out", out_dir])
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
