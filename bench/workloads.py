"""Benchmark workloads: seeded `hausdorff-op run` configs and their work counts.

Each workload is a function of one integer seed, which sets the Haar family
seed (where the family is random) and the config seed (gradient-check points,
Monte Carlo samples).  Field shapes, kernels and sizes are fixed, so the
computed work counts below depend on the workload alone.

The three workloads use the operator in opposite shapes:

* ``ball3-rotations``: many points x few members (the bound suite's shape);
  operator, field evaluation, escape check and pairwise_sum dominate.
* ``line-shifts-fine``: a 1-D truncated window at resolution 8192;
  Legendre quadrature construction dominates, the operator is light and the
  escape check is bypassed, so operator- or escape-side changes should leave
  it unchanged.
* ``divergence-many-members``: few points x very many members (the
  necessity witness folds ~89k shifts onto one point) plus Monte Carlo
  measure preservation; per-member overhead, family construction and
  sampling dominate.  Its necessity growth gate FAILs by design.
"""

from __future__ import annotations

import math

WORKLOADS = ("ball3-rotations", "line-shifts-fine", "divergence-many-members")

# finite-difference self-check at field construction (hausdorff_op.field)
_FD_CHECK_POINTS = 100
# default gradient_points of the CLI
_GRADIENT_POINTS = 50

_GAUSSIAN_3D = {"kind": "gaussian", "center": [0.2, -0.1, 0.1], "width": 0.85}
_GAUSS_POLY_3D = {
    "kind": "gaussian_times_poly",
    "center": [0.1, 0.1, -0.1],
    "width": 0.8,
    # degree 1 per axis: 1 + 0.3 z + 0.2 y - 0.25 x
    "coeffs": [[[1.0, 0.3], [0.2, 0.0]], [[-0.25, 0.0], [0.0, 0.0]]],
}


def _ball3_rotations(seed: int) -> dict:
    return {
        "dimension": 3,
        "domain": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 3.0},
        "family": {"kind": "rotations_haar", "count": 64, "seed": seed},
        "measure": {"scheme": "gauss_legendre", "interval": [0.0, 2.0], "count": 64},
        "kernel": {"name": "exp_decay", "a": 1.0},
        "fields": [_GAUSSIAN_3D, _GAUSS_POLY_3D],
        "p": [1.0, 2.0, 4.0],
        "resolution": 48,
        "experiments": ["lp_bound", "sobolev_bound", "gradient_check"],
        "seed": seed,
    }


def _line_shifts_fine(seed: int) -> dict:
    return {
        "dimension": 1,
        "domain": {"shape": "truncated_space", "halfwidth": 8.0},
        "family": {"kind": "shifts", "from_measure": True},
        "measure": {"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 16},
        "kernel": {"name": "power", "a": 2.0},
        "fields": [
            {"kind": "gaussian", "center": [0.3], "width": 1.2},
            {
                "kind": "gaussian_times_poly",
                "center": [-0.2],
                "width": 1.0,
                "coeffs": [1.0, -0.5, 0.25, 0.1, -0.05, 0.02],
            },
        ],
        "p": [1.0, 2.0, 4.0, 8.0],
        "resolution": 8192,
        "experiments": ["lp_bound", "sobolev_bound", "gradient_check"],
        "seed": seed,
    }


def _divergence_many_members(seed: int) -> dict:
    centred_ball = {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}
    return {
        "dimension": 3,
        "domain": centred_ball,
        "family": {"kind": "rotations_haar", "count": 8, "seed": seed},
        "measure": {"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 8},
        "kernel": {"name": "exp_decay", "a": 1.0},
        "fields": [_GAUSSIAN_3D, _GAUSS_POLY_3D],
        "experiments": ["measure_preservation", "necessity_divergence"],
        "experiment_options": {
            "preservation_samples": 1_000_000,
            "preservation_members": 8,
            "preservation_region": centred_ball,
            "necessity": {
                "kernel": {"name": "power", "a": 1.0},
                "endpoints": [10.0, 100.0, 1000.0, 10000.0],
                "x0": 0.0,
                "points_per_panel": 8,
            },
        },
        "seed": seed,
    }


_BUILDERS = {
    "ball3-rotations": _ball3_rotations,
    "line-shifts-fine": _line_shifts_fine,
    "divergence-many-members": _divergence_many_members,
}


def make_config(workload: str, seed: int) -> dict:
    """The JSON run config of ``workload`` for ``seed``."""
    return _BUILDERS[workload](int(seed))


def expected_outcome(workload: str) -> tuple[int, bool]:
    """(exit code, whether the necessity growth gate FAILs) of a correct run."""
    if workload == "divergence-many-members":
        return 1, True
    return 0, False


def quadrature_nodes(config: dict) -> int:
    """Grid nodes the CLI integrates over (after ball masking)."""
    n = config["dimension"]
    res = config.get("resolution", 64)
    domain = config["domain"]
    if domain["shape"] != "ball":
        return res**n
    from scipy.special import roots_legendre

    x = roots_legendre(res)[0] * domain["radius"]
    r2 = domain["radius"] ** 2
    # count tensor nodes with sum of squares <= r^2, one axis at a time
    sq = x * x
    acc = sq
    for _ in range(n - 1):
        acc = (acc[..., None] + sq).reshape(-1)
    return int((acc <= r2).sum())


def family_members(config: dict) -> int:
    family = config["family"]
    if family["kind"] == "rotations_haar":
        return family["count"]
    return config["measure"]["count"]


def work_counts(config: dict) -> dict:
    """Work implied by ``config`` alone, as exact counts.

    ``useful_values`` and ``useful_gradients`` give, per field kind, the
    logical minimum of top-level field evaluation points: each field once at
    every (member, node) pair and at every node for its own norm (gradients
    only when a Sobolev check runs), the gradient check's one gradient and
    2n shifted values per member and point, one value per member of each
    necessity truncation, and each construction self-check.
    ``member_point_values`` counts the operator's logical member x point
    evaluations.  ``term_block_bytes_*`` is the size of one
    ``(members x block)`` float64 term array, with the block capped as in
    ``HausdorffOperator._accumulate``.
    """
    n = config["dimension"]
    experiments = set(config["experiments"])
    fields = config["fields"]
    opts = config.get("experiment_options", {})
    values: dict[str, int] = {}
    gradients: dict[str, int] = {}

    def add(kind, v, g):
        values[kind] = values.get(kind, 0) + v
        gradients[kind] = gradients.get(kind, 0) + g

    def self_check(kind, dim):
        # gaussian_times_poly checks its gaussian and polynomial factors first
        kinds = ("gaussian", "polynomial", kind) if kind == "gaussian_times_poly" else (kind,)
        for k in kinds:
            add(k, 2 * dim * _FD_CHECK_POINTS, _FD_CHECK_POINTS)

    counts = {"quadrature_nodes": 0, "members": 0, "necessity_members": 0,
              "member_point_values": 0, "member_point_gradients": 0,
              "term_block_bytes_values": 0, "term_block_bytes_gradients": 0}
    for field in fields:
        self_check(field["kind"], n)
    bound_suite = experiments & {"lp_bound", "sobolev_bound"}
    sobolev = "sobolev_bound" in experiments
    if bound_suite or "gradient_check" in experiments:
        members = family_members(config)
        counts["members"] = members
    if bound_suite:
        nodes = quadrature_nodes(config)
        counts["quadrature_nodes"] = nodes
        counts["member_point_values"] += members * nodes * len(fields)
        counts["member_point_gradients"] += members * nodes * len(fields) * sobolev
        for field in fields:
            add(field["kind"], (members + 1) * nodes, (members + 1) * nodes * sobolev)
        for key, per_point in (("values", 1), ("gradients", n)):
            block = max(1, (1 << 22) // (members * per_point))
            counts[f"term_block_bytes_{key}"] = 8 * members * min(block, nodes) * per_point
    if "gradient_check" in experiments:
        member_points = opts.get("gradient_points", _GRADIENT_POINTS) * members
        counts["member_point_values"] += 2 * n * member_points * len(fields)
        counts["member_point_gradients"] += member_points * len(fields)
        for field in fields:
            add(field["kind"], 2 * n * member_points, member_points)
    if "necessity_divergence" in experiments:
        nec = opts.get("necessity", {})
        ends = nec.get("endpoints", [10.0, 100.0, 1000.0, 10000.0])
        per_panel = nec.get("points_per_panel", 8)
        total = sum(math.ceil(e) * per_panel for e in ends)
        counts["necessity_members"] = total
        counts["member_point_values"] += total
        # the witness is a 1-D unit gaussian evaluated at one point per member
        self_check("gaussian", 1)
        add("gaussian", total, 0)
    counts["useful_values"] = values
    counts["useful_gradients"] = gradients
    counts["useful_field_evals"] = sum(values.values()) + sum(gradients.values())
    return counts
