"""Config-driven experiment runner behind the ``hausdorff-op`` console script.

A run is described by one JSON file; the parser is strict (unknown keys are
rejected, every violation is reported, not just the first) because a silent
typo in a tolerance or kernel name would invalidate a verification run.
Artifacts: ``results.csv`` (one row per bound check), ``divergence.csv``
(present when the divergence experiment ran), and ``summary.txt``.  Numeric
CSV cells use 17 significant digits so reruns diff byte-identically.

Exit code 0 means every fatal check passed.  Sobolev checks at p > 1 are
informative only: the proved constant applies at p = 1, so they never flip
the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .experiments import (
    DivergenceReport,
    ExperimentReport,
    evaluate_field,
    interior_points,
    run_gradient_check,
    run_lp_bound,
    run_measure_preservation,
    run_necessity_divergence,
    run_sobolev_bound,
)
from .field import P_MAX, P_MIN, gaussian, gaussian_times_poly, polynomial
from .geometry import build_grid_quadrature
from .isometry import (
    CYCLIC_ROTATION_2D,
    FINITE_GROUP_KINDS,
    GROUP_SIZE_CAP,
    finite_group_family,
    finite_group_size,
    motion_family,
    rotation_family,
    shift_family,
)
from .measure_kernel import (
    KERNEL_FORM_NAMES,
    discretize,
    kernel_form,
    kernel_on_measure,
)
from .operator import HausdorffOperator

EXPERIMENT_DESCRIPTIONS = (
    ("lp_bound", "||Hf||_p against the kernel L1 norm times ||f||_p"),
    ("sobolev_bound", "W^{1,p} norm of Hf against (C n + 1) ||phi||_1 ||f||"),
    ("gradient_check", "analytic gradient of Hf against central differences"),
    ("measure_preservation", "Monte Carlo volume match under each motion"),
    ("necessity_divergence", "operator blowup alongside a non-integrable kernel"),
)
EXPERIMENT_NAMES = tuple(name for name, _ in EXPERIMENT_DESCRIPTIONS)
# experiments that build the operator and the resolution ** dimension grid
_GRID_EXPERIMENTS = ("lp_bound", "sobolev_bound", "gradient_check")
# the grid checks that share one evaluation per field
_BOUND_EXPERIMENTS = ("lp_bound", "sobolev_bound")

# largest grid a run may build; its nodes, field values and gradients must
# fit in memory next to each other
MAX_GRID_NODES = 1 << 22
# largest Gauss-Legendre rule a run may build.  Rules above
# geometry.LEGENDRE_GOLUB_WELSCH_MAX_NODES are built in O(n), about 0.1 s at
# this size, so the cap bounds the size of a grid axis, of a measure that
# becomes a shift family and of a witness panel, not the time of the rule
MAX_LEGENDRE_NODES = 1 << 15
# most draws from its bounding box that sampling a ball by rejection may be
# expected to take; the acceptance rate vol(ball) / vol(box) falls faster
# than exponentially with the dimension (3.6e-6 at n = 16)
MAX_BALL_DRAWS = 10**7
# largest preservation sample per member; the check streams its samples in
# blocks, so this bounds time, not memory
MAX_PRESERVATION_SAMPLES = 10**8

_TOP_KEYS = {
    "dimension", "domain", "family", "measure", "kernel", "fields", "p",
    "resolution", "experiments", "experiment_options", "seed", "output",
}
_REQUIRED_KEYS = ("dimension", "domain", "family", "kernel", "fields", "experiments")
_OPTION_KEYS = {
    "gradient_points", "gradient_step", "gradient_margin",
    "preservation_samples", "preservation_members", "preservation_region",
    "necessity",
}
_NECESSITY_KEYS = {"kernel", "endpoints", "x0", "points_per_panel"}
# the default necessity witness: 88,880 folded shifts in all
_NECESSITY_ENDPOINTS = [10.0, 100.0, 1000.0, 10000.0]
_NECESSITY_POINTS_PER_PANEL = 8

# seed offsets keep per-experiment streams distinct under one config seed
_GRADIENT_SEED_OFFSET = 11
_PRESERVATION_SEED_OFFSET = 1000


class ConfigError(ValueError):
    """All config violations at once; ``errors`` holds one message each."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(f"config invalid ({len(self.errors)} error(s)):\n{lines}")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description (specs stay as plain dicts)."""

    dimension: int
    domain: dict
    family: dict
    measure: dict | None
    kernel: dict
    fields: tuple
    p: tuple
    resolution: int
    experiments: tuple
    options: dict
    seed: int
    output: str | None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _is_vector(x, length: int) -> bool:
    return (isinstance(x, list) and len(x) == length
            and all(_is_number(v) for v in x))


def _check_keys(spec: dict, allowed: set, where: str, errors: list) -> None:
    unknown = sorted(set(spec) - allowed)
    if unknown:
        errors.append(f"{where}: unknown key(s) {unknown}, allowed: {sorted(allowed)}")


def _check_legendre_nodes(count: int, where: str, errors: list) -> None:
    if count > MAX_LEGENDRE_NODES:
        errors.append(
            f"{where} {count} asks for a Gauss-Legendre rule of more than "
            f"{MAX_LEGENDRE_NODES} nodes"
        )


def _check_ball_draws(n: int, count: int, where: str, errors: list) -> None:
    # log of vol(ball) / vol(bounding box) = pi^(n/2) / (Gamma(n/2 + 1) 2^n)
    log_rate = n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1) - n * math.log(2)
    log10_draws = (math.log(count) - log_rate) / math.log(10)
    if log10_draws > math.log10(MAX_BALL_DRAWS):
        exponent = math.floor(log10_draws)
        errors.append(
            f"{where} {count} on a ball in dimension {n} expects "
            f"{10 ** (log10_draws - exponent):.2f}e{exponent} rejection-sampling "
            f"draws, more than the cap of {MAX_BALL_DRAWS}"
        )


def _validate_domain(spec, n: int, where: str, errors: list, bounded_only=False) -> None:
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return
    shape = spec.get("shape")
    if shape == geometry.BALL:
        _check_keys(spec, {"shape", "center", "radius"}, where, errors)
        if not _is_vector(spec.get("center"), n):
            errors.append(f"{where}: center must be a list of {n} numbers")
        if not (_is_number(spec.get("radius")) and spec["radius"] > 0):
            errors.append(f"{where}: radius must be a positive number")
    elif shape == geometry.BOX:
        _check_keys(spec, {"shape", "lower", "upper"}, where, errors)
        for key in ("lower", "upper"):
            if not _is_vector(spec.get(key), n):
                errors.append(f"{where}: {key} must be a list of {n} numbers")
        if (_is_vector(spec.get("lower"), n) and _is_vector(spec.get("upper"), n)
                and any(u <= l for l, u in zip(spec["lower"], spec["upper"]))):
            errors.append(f"{where}: upper must exceed lower componentwise")
    elif shape == geometry.TRUNCATED:
        if bounded_only:
            errors.append(f"{where}: must be a bounded ball or box")
            return
        _check_keys(spec, {"shape", "halfwidth"}, where, errors)
        if not (_is_number(spec.get("halfwidth")) and spec["halfwidth"] > 0):
            errors.append(f"{where}: halfwidth must be a positive number")
    else:
        errors.append(
            f"{where}: shape must be one of "
            f"['{geometry.BALL}', '{geometry.BOX}', '{geometry.TRUNCATED}'], got {shape!r}"
        )


def _validate_family(spec, n: int, errors: list) -> int | None:
    """Validate the family spec; return the member count when derivable."""
    if not isinstance(spec, dict):
        errors.append("family must be an object")
        return None
    kind = spec.get("kind")
    if kind == "rotations_haar":
        _check_keys(spec, {"kind", "count", "seed"}, "family", errors)
        if not (_is_int(spec.get("count")) and 1 <= spec["count"] <= GROUP_SIZE_CAP):
            errors.append(f"family: count must be an integer in [1, {GROUP_SIZE_CAP}]")
            return None
        if "seed" in spec and not _is_int(spec["seed"]):
            errors.append("family: seed must be an integer")
        return spec["count"]
    if kind == "finite_group":
        _check_keys(spec, {"kind", "group", "order"}, "family", errors)
        group = spec.get("group")
        if group not in FINITE_GROUP_KINDS:
            errors.append(f"family: group must be one of {list(FINITE_GROUP_KINDS)}, got {group!r}")
            return None
        if group == CYCLIC_ROTATION_2D:
            if n != 2:
                errors.append("family: cyclic_rotation_2d needs dimension 2")
            if not (_is_int(spec.get("order")) and spec["order"] >= 1):
                errors.append("family: cyclic_rotation_2d needs an integer order >= 1")
                return None
        elif "order" in spec:
            errors.append(f"family: order only applies to {CYCLIC_ROTATION_2D}")
        size = finite_group_size(group, n, spec.get("order"))
        if size is None:
            errors.append(
                f"family: {group} in dimension {n} exceeds the group size cap of "
                f"{GROUP_SIZE_CAP} members"
            )
        return size
    if kind == "shifts":
        if n != 1:
            errors.append("family: shifts need dimension 1")
        if "offsets" in spec:
            _check_keys(spec, {"kind", "offsets"}, "family", errors)
            offsets = spec["offsets"]
            if not (isinstance(offsets, list) and len(offsets) >= 1
                    and all(_is_number(v) for v in offsets)):
                errors.append("family: offsets must be a nonempty list of numbers")
                return None
            return len(offsets)
        _check_keys(spec, {"kind", "from_measure", "fold"}, "family", errors)
        if spec.get("from_measure") is not True:
            errors.append("family: shifts need either offsets or from_measure = true")
        if "fold" in spec and not isinstance(spec["fold"], bool):
            errors.append("family: fold must be a boolean")
        return None  # count is the measure's by construction
    if kind == "motions":
        _check_keys(spec, {"kind", "members"}, "family", errors)
        members = spec.get("members")
        if not (isinstance(members, list) and len(members) >= 1):
            errors.append("family: members must be a nonempty list")
            return None
        for i, member in enumerate(members):
            if not isinstance(member, dict):
                errors.append(f"family: member {i} must be an object")
                continue
            _check_keys(member, {"matrix", "offset"}, f"family member {i}", errors)
            matrix = member.get("matrix")
            if not (isinstance(matrix, list) and len(matrix) == n
                    and all(_is_vector(row, n) for row in matrix)):
                errors.append(f"family: member {i} matrix must be {n}x{n}")
            if "offset" in member and not _is_vector(member["offset"], n):
                errors.append(f"family: member {i} offset must be a list of {n} numbers")
        return len(members)
    errors.append(
        "family: kind must be one of "
        "['rotations_haar', 'finite_group', 'shifts', 'motions'], "
        f"got {kind!r}"
    )
    return None


def _validate_measure(spec, family_spec, family_count, errors: list) -> None:
    family_kind = family_spec.get("kind") if isinstance(family_spec, dict) else None
    if family_kind == "finite_group":
        if isinstance(spec, dict) and spec.get("scheme") == "finite_group_uniform":
            _check_keys(spec, {"scheme"}, "measure", errors)
        elif spec is not None:
            errors.append(
                "measure: a finite_group family carries its own uniform measure; "
                "omit the measure or set scheme = 'finite_group_uniform'"
            )
        return
    if spec is None:
        errors.append("missing required key 'measure' (only finite_group families omit it)")
        return
    if not isinstance(spec, dict):
        errors.append("measure must be an object")
        return
    scheme = spec.get("scheme")
    count = None
    if scheme == "explicit":
        _check_keys(spec, {"scheme", "nodes", "weights"}, "measure", errors)
        nodes, weights = spec.get("nodes"), spec.get("weights")
        ok = (isinstance(nodes, list) and len(nodes) >= 1
              and all(_is_number(v) for v in nodes))
        if not ok:
            errors.append("measure: nodes must be a nonempty list of numbers")
        if not (isinstance(weights, list) and all(_is_number(v) for v in weights)):
            errors.append("measure: weights must be a list of numbers")
        elif any(v < 0 for v in weights):
            errors.append("measure: weights must be nonnegative")
        elif ok and len(weights) != len(nodes):
            errors.append(
                f"measure: {len(nodes)} nodes but {len(weights)} weights"
            )
        if ok:
            count = len(nodes)
    elif scheme in ("gauss_legendre", "monte_carlo"):
        allowed = {"scheme", "interval", "count"}
        if scheme == "monte_carlo":
            allowed.add("seed")
        _check_keys(spec, allowed, "measure", errors)
        interval = spec.get("interval")
        if not (_is_vector(interval, 2) and interval[1] > interval[0]):
            errors.append("measure: interval must be [lo, hi] with hi > lo")
        if not (_is_int(spec.get("count")) and spec["count"] >= 1):
            errors.append("measure: count must be an integer >= 1")
        else:
            count = spec["count"]
            if scheme == "gauss_legendre":
                _check_legendre_nodes(count, "measure: count", errors)
            elif count > GROUP_SIZE_CAP:
                # the monte_carlo nodes can become a shift family
                errors.append(
                    f"measure: count {count} exceeds the family size cap of {GROUP_SIZE_CAP}"
                )
        if "seed" in spec and not _is_int(spec["seed"]):
            errors.append("measure: seed must be an integer")
    elif scheme == "finite_group_uniform":
        errors.append("measure: finite_group_uniform requires a finite_group family")
    else:
        errors.append(
            "measure: scheme must be one of ['explicit', 'gauss_legendre', "
            f"'monte_carlo', 'finite_group_uniform'], got {scheme!r}"
        )
    if count is not None and family_count is not None and count != family_count:
        errors.append(
            f"measure has {count} nodes but the family has {family_count} members"
        )


def _validate_kernel(spec, where: str, errors: list) -> None:
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return
    name = spec.get("name")
    if name not in KERNEL_FORM_NAMES:
        errors.append(
            f"{where}: unknown kernel {name!r}, whitelist: {list(KERNEL_FORM_NAMES)}"
        )
        return
    params = {k: v for k, v in spec.items() if k != "name"}
    if not all(_is_number(v) for v in params.values()):
        errors.append(f"{where}: kernel parameters must be numbers")
        return
    try:
        kernel_form(name, **params)
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")


def _validate_field(spec, n: int, index: int, errors: list) -> None:
    where = f"fields[{index}]"
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return
    kind = spec.get("kind")
    if kind == "gaussian":
        _check_keys(spec, {"kind", "center", "width"}, where, errors)
        needs_poly = False
    elif kind == "polynomial":
        _check_keys(spec, {"kind", "coeffs"}, where, errors)
        needs_poly = True
    elif kind == "gaussian_times_poly":
        _check_keys(spec, {"kind", "center", "width", "coeffs"}, where, errors)
        needs_poly = True
    else:
        errors.append(
            f"{where}: kind must be one of ['gaussian', 'polynomial', "
            f"'gaussian_times_poly'], got {kind!r}"
        )
        return
    if kind != "polynomial":
        if not _is_vector(spec.get("center"), n):
            errors.append(f"{where}: center must be a list of {n} numbers")
        if not (_is_number(spec.get("width")) and spec["width"] > 0):
            errors.append(f"{where}: width must be a positive number")
    if needs_poly:
        try:
            coeffs = np.asarray(spec.get("coeffs"), dtype=float)
        except (ValueError, TypeError):
            errors.append(f"{where}: coeffs must be a (nested) list of numbers")
            return
        if coeffs.ndim != n or coeffs.size == 0:
            errors.append(
                f"{where}: coeffs must be a depth-{n} nested list (one axis per dimension)"
            )
        elif not np.isfinite(coeffs).all():
            errors.append(f"{where}: coeffs must be finite numbers")


def _validate_options(options, n: int, errors: list) -> None:
    if not isinstance(options, dict):
        errors.append("experiment_options must be an object")
        return
    _check_keys(options, _OPTION_KEYS, "experiment_options", errors)
    for key in ("gradient_points", "preservation_samples", "preservation_members"):
        if key in options and not (_is_int(options[key]) and options[key] >= 1):
            errors.append(f"experiment_options: {key} must be an integer >= 1")
    samples = options.get("preservation_samples")
    if _is_int(samples) and samples > MAX_PRESERVATION_SAMPLES:
        errors.append(
            f"experiment_options: preservation_samples {samples} exceeds the cap of "
            f"{MAX_PRESERVATION_SAMPLES} per member"
        )
    for key in ("gradient_step", "gradient_margin"):
        if key in options and not (_is_number(options[key]) and options[key] > 0):
            errors.append(f"experiment_options: {key} must be a positive number")
    if "preservation_region" in options:
        _validate_domain(
            options["preservation_region"], n,
            "experiment_options.preservation_region", errors, bounded_only=True,
        )
    if "necessity" in options:
        spec = options["necessity"]
        if not isinstance(spec, dict):
            errors.append("experiment_options.necessity must be an object")
            return
        _check_keys(spec, _NECESSITY_KEYS, "experiment_options.necessity", errors)
        if "kernel" in spec:
            _validate_kernel(spec["kernel"], "experiment_options.necessity.kernel", errors)
        endpoints = spec.get("endpoints", _NECESSITY_ENDPOINTS)
        endpoints_ok = (isinstance(endpoints, list) and len(endpoints) >= 2
                        and all(_is_number(v) and v > 0 for v in endpoints)
                        and all(b > a for a, b in zip(endpoints, endpoints[1:])))
        if not endpoints_ok:
            errors.append(
                "experiment_options.necessity: endpoints must be >= 2 "
                "positive increasing numbers"
            )
        if "x0" in spec and not _is_number(spec["x0"]):
            errors.append("experiment_options.necessity: x0 must be a number")
        per_panel = spec.get("points_per_panel", _NECESSITY_POINTS_PER_PANEL)
        per_panel_ok = _is_int(per_panel) and per_panel >= 2
        if not per_panel_ok:
            errors.append(
                "experiment_options.necessity: points_per_panel must be an integer >= 2"
            )
        else:
            _check_legendre_nodes(
                per_panel, "experiment_options.necessity: points_per_panel", errors
            )
        if endpoints_ok and per_panel_ok:
            # one shift member per node of the unit panels over [0, endpoint]
            members = sum(math.ceil(e) * per_panel for e in endpoints)
            if members > GROUP_SIZE_CAP:
                errors.append(
                    f"experiment_options.necessity: endpoints {endpoints} with "
                    f"points_per_panel {per_panel} give {members} witness members, "
                    f"more than the cap of {GROUP_SIZE_CAP}"
                )


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a JSON run config.

    ``overrides`` replaces top-level keys before validation, so command-line
    values pass the same checks as the file's.  Raises :class:`ConfigError`
    carrying every violation found.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    raw.update(overrides or {})
    errors: list[str] = []
    _check_keys(raw, _TOP_KEYS, "config", errors)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            errors.append(f"missing required key '{key}'")

    n = raw.get("dimension")
    if not (_is_int(n) and n >= 1):
        errors.append("dimension must be an integer >= 1")
        raise ConfigError(errors)

    if "domain" in raw:
        _validate_domain(raw["domain"], n, "domain", errors)
    family_count = None
    if "family" in raw:
        family_count = _validate_family(raw["family"], n, errors)
    if raw.get("family") is not None or "measure" in raw:
        _validate_measure(raw.get("measure"), raw.get("family", {}), family_count, errors)
    if "kernel" in raw:
        _validate_kernel(raw["kernel"], "kernel", errors)

    fields = raw.get("fields")
    if "fields" in raw:
        if not (isinstance(fields, list) and len(fields) >= 1):
            errors.append("fields must be a nonempty list")
            fields = []
        for i, spec in enumerate(fields):
            _validate_field(spec, n, i, errors)

    ps = raw.get("p", [1.0])
    if not (isinstance(ps, list) and len(ps) >= 1 and all(_is_number(v) for v in ps)):
        errors.append("p must be a nonempty list of numbers")
        ps = [1.0]
    else:
        bad = [v for v in ps if not P_MIN <= v <= P_MAX]
        if bad:
            errors.append(f"p values must lie in [{P_MIN:g}, {P_MAX:g}], got {bad}")

    resolution = raw.get("resolution", 64)
    if not (_is_int(resolution) and resolution >= 2):
        errors.append("resolution must be an integer >= 2")
        resolution = 64
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        errors.append("seed must be an integer")
        seed = 0

    experiments = raw.get("experiments")
    if "experiments" in raw:
        if not (isinstance(experiments, list) and len(experiments) >= 1):
            errors.append("experiments must be a nonempty list")
            experiments = []
        else:
            unknown = [e for e in experiments if e not in EXPERIMENT_NAMES]
            if unknown:
                errors.append(
                    f"unknown experiment(s) {unknown}, known: {list(EXPERIMENT_NAMES)}"
                )
            elif len(set(experiments)) != len(experiments):
                errors.append("experiments must not repeat")
    else:
        experiments = []
    # min(n, 64) keeps the power small for any n: 2 ** 64 already exceeds the cap
    needs_grid = any(name in _GRID_EXPERIMENTS for name in experiments)
    if needs_grid:
        # every grid axis is one Gauss-Legendre rule of `resolution` nodes
        _check_legendre_nodes(resolution, "resolution", errors)
        if resolution ** min(n, 64) > MAX_GRID_NODES:
            errors.append(
                f"resolution {resolution} in dimension {n} gives more than "
                f"{MAX_GRID_NODES} grid nodes"
            )

    options = raw.get("experiment_options", {})
    _validate_options(options, n, errors)
    domain = raw.get("domain")
    if ("gradient_check" in experiments and isinstance(domain, dict)
            and domain.get("shape") == geometry.BALL and isinstance(options, dict)):
        count = options.get("gradient_points", 50)
        if _is_int(count) and count >= 1:
            # the gradient check samples its points from the ball by rejection
            _check_ball_draws(n, count, "experiment_options: gradient_points", errors)

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append("output must be a string path")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        dimension=n,
        domain=raw["domain"],
        family=raw["family"],
        measure=raw.get("measure"),
        kernel=raw["kernel"],
        fields=tuple(fields),
        p=tuple(float(v) for v in ps),
        resolution=resolution,
        experiments=tuple(experiments),
        options=options,
        seed=seed,
        output=output,
    )


# building


def _build_domain(spec: dict, n: int):
    if spec["shape"] == geometry.BALL:
        return geometry.ball(spec["center"], spec["radius"])
    if spec["shape"] == geometry.BOX:
        return geometry.box(spec["lower"], spec["upper"])
    return geometry.truncated_space(spec["halfwidth"], n)


def _build_family_measure(config: RunConfig):
    spec = config.family
    kind = spec["kind"]
    if kind == "finite_group":
        return finite_group_family(spec["group"], config.dimension, spec.get("order"))
    mspec = dict(config.measure)
    if mspec["scheme"] == "monte_carlo":
        mspec.setdefault("seed", config.seed)
    measure = discretize(mspec)
    if kind == "rotations_haar":
        family = rotation_family(
            config.dimension, spec["count"], spec.get("seed", config.seed)
        )
    elif kind == "shifts":
        if "offsets" in spec:
            family = shift_family(spec["offsets"])
        else:
            nodes = measure.nodes
            if spec.get("fold", False):
                nodes = nodes - np.floor(nodes)
            family = shift_family(nodes)
    else:
        family = motion_family(
            [(m["matrix"], m.get("offset")) for m in spec["members"]]
        )
    return family, measure


def _build_field(spec: dict, n: int):
    kind = spec["kind"]
    if kind == "gaussian":
        return gaussian(spec["center"], spec["width"])
    if kind == "polynomial":
        return polynomial(spec["coeffs"], dimension=n)
    return gaussian_times_poly(spec["center"], spec["width"], spec["coeffs"])


def _kernel_form_from_spec(spec: dict):
    return kernel_form(spec["name"], **{k: v for k, v in spec.items() if k != "name"})


# running


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _report_row(r: ExperimentReport) -> str:
    p = "" if r.p is None else _fmt(r.p)
    flag = "true" if r.passed else "false"
    return ",".join([
        r.name, p, _fmt(r.lhs), _fmt(r.rhs), _fmt(r.bound_constant),
        _fmt(r.margin), str(r.resolution), str(r.seed), flag,
    ])


def _is_fatal(report: ExperimentReport) -> bool:
    return not (report.name == "sobolev_bound" and report.p is not None and report.p > 1)


def _thread_count() -> int:
    raw = os.environ.get("HAUSDORFF_OP_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run(config: RunConfig, out_dir) -> int:
    """Execute the configured experiments and write artifacts into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = config.dimension
    domain = _build_domain(config.domain, n)
    fields = [(f"{i}:{spec['kind']}", _build_field(spec, n))
              for i, spec in enumerate(config.fields)]
    opts = config.options

    operator = None
    quad = None
    if any(name in _GRID_EXPERIMENTS for name in config.experiments):
        family, measure = _build_family_measure(config)
        kernel = kernel_on_measure(_kernel_form_from_spec(config.kernel), measure)
        operator = HausdorffOperator(
            measure=measure, kernel=kernel, family=family, domain=domain
        )
        quad = build_grid_quadrature(domain, config.resolution)
    elif "measure_preservation" in config.experiments:
        family, _ = _build_family_measure(config)

    # each job returns {key: report}; `order` lists (key, label) in output order
    jobs = []
    order = []
    bound_suite = [name for name in config.experiments if name in _BOUND_EXPERIMENTS]
    if bound_suite:
        with_gradients = "sobolev_bound" in bound_suite
        runners = {"lp_bound": run_lp_bound, "sobolev_bound": run_sobolev_bound}

        def bound_job(j, f):
            # one evaluation of field j serves every bound check and every p
            evaluation = evaluate_field(operator, f, quad, gradients=with_gradients)
            return {(name, j, p): runners[name](evaluation, p, seed=config.seed)
                    for name in bound_suite for p in config.p}

        for j, (_, f) in enumerate(fields):
            jobs.append(lambda j=j, f=f: bound_job(j, f))

    for name in config.experiments:
        if name in _BOUND_EXPERIMENTS:
            for j, (label, _) in enumerate(fields):
                for p in config.p:
                    order.append(((name, j, p), f"{name} p={p:g} field={label}"))
        elif name == "gradient_check":
            count = opts.get("gradient_points", 50)
            step = opts.get("gradient_step")
            margin = opts.get("gradient_margin", 0.05)
            seed = config.seed + _GRADIENT_SEED_OFFSET
            points = interior_points(domain, count, seed, margin)
            for j, (label, f) in enumerate(fields):
                key = (name, j)
                jobs.append(lambda key=key, f=f, seed=seed:
                            {key: run_gradient_check(operator, f, points, step, seed=seed)})
                order.append((key, f"gradient_check field={label}"))
        elif name == "measure_preservation":
            members = opts.get("preservation_members", min(10, len(family)))
            members = min(members, len(family))
            samples = opts.get("preservation_samples", 100_000)
            region_spec = opts.get(
                "preservation_region",
                {"shape": geometry.BOX, "lower": [-0.5] * n, "upper": [0.5] * n},
            )
            region = _build_domain(region_spec, n)
            for i in range(members):
                key = (name, i)
                iso = family[i]
                seed = config.seed + _PRESERVATION_SEED_OFFSET + i
                jobs.append(lambda key=key, iso=iso, seed=seed:
                            {key: run_measure_preservation(iso, region, samples, seed)})
                order.append((key, f"measure_preservation member={i}"))
        else:
            nec = opts.get("necessity", {})
            form = _kernel_form_from_spec(nec.get("kernel", {"name": "power", "a": 1.0}))
            endpoints = nec.get("endpoints", _NECESSITY_ENDPOINTS)
            x0 = nec.get("x0", 0.0)
            ppp = nec.get("points_per_panel", _NECESSITY_POINTS_PER_PANEL)
            jobs.append(lambda key=name:
                        {key: run_necessity_divergence(form, endpoints, x0, ppp)})
            order.append((name, "necessity_divergence"))

    threads = _thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(fn) for fn in jobs]
            results = [f.result() for f in futures]
    else:
        results = [fn() for fn in jobs]
    by_key = {key: r for result in results for key, r in result.items()}
    ordered = [(label, by_key[key]) for key, label in order]

    reports = [(label, r) for label, r in ordered if isinstance(r, ExperimentReport)]
    divergences = [(label, r) for label, r in ordered if isinstance(r, DivergenceReport)]

    header = "experiment,p,lhs,rhs,bound_constant,margin,resolution,seed,passed"
    rows = [header] + [_report_row(r) for _, r in reports]
    (out / "results.csv").write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")

    if divergences:
        drows = ["endpoint,l1_norm,h_value,ratio,lower_bound"]
        for _, d in divergences:
            for k in range(len(d.truncation_points)):
                drows.append(",".join([
                    _fmt(d.truncation_points[k]), _fmt(d.l1_norms[k]),
                    _fmt(d.operator_values_at_x0[k]), _fmt(d.ratios[k]),
                    _fmt(d.lower_bound_constant),
                ]))
        (out / "divergence.csv").write_text(
            "\n".join(drows) + "\n", encoding="utf-8", newline="\n"
        )

    fatal_failures = 0
    informative_failures = 0
    lines = [
        "hausdorff-op run summary",
        f"dimension={n} resolution={config.resolution} seed={config.seed}",
        f"experiments={','.join(config.experiments)}",
        "",
    ]
    for label, r in reports:
        fatal = _is_fatal(r)
        if r.passed:
            status = "PASS"
        else:
            status = "FAIL" if fatal else "FAIL (informative)"
            if fatal:
                fatal_failures += 1
            else:
                informative_failures += 1
        line = f"{status:<19} {label}  lhs={r.lhs:.6g} rhs={r.rhs:.6g} margin={r.margin:.6g}"
        if r.notes:
            line += f"  [{r.notes}]"
        lines.append(line)
    for label, d in divergences:
        if d.passed:
            status = "PASS"
        else:
            status = "FAIL"
            fatal_failures += 1
        lines.append(
            f"{status:<19} {label}  growth={d.growth_factor:.6g} "
            f"min_ratio={d.ratios.min():.6g} bound={d.lower_bound_constant:.6g}"
        )
        if d.notes:
            lines.append(f"                    [{d.notes}]")
    lines.append("")
    lines.append(f"fatal failures: {fatal_failures}")
    lines.append(f"informative failures: {informative_failures}")
    code = 0 if fatal_failures == 0 else 1
    lines.append(f"exit code: {code}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    print(f"wrote {out / 'results.csv'} ({len(reports)} row(s))"
          + (f" and {out / 'divergence.csv'}" if divergences else ""))
    print(f"fatal failures: {fatal_failures}; informative failures: {informative_failures}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hausdorff-op",
        description="Run bound-verification experiments from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run experiments described by a config file")
    runp.add_argument("config", nargs="?", help="path to the JSON config")
    runp.add_argument("--out", help="output directory (default: config output, else '.')")
    runp.add_argument("--seed", type=int, help="override the config seed")
    runp.add_argument("--resolution", type=int, help="override the config resolution")
    runp.add_argument(
        "--list-experiments", action="store_true",
        help="list experiment names and exit",
    )
    args = parser.parse_args(argv)

    if args.list_experiments:
        for name, description in EXPERIMENT_DESCRIPTIONS:
            print(f"{name}: {description}")
        return 0
    if args.config is None:
        print("error: a config file is required (or pass --list-experiments)", file=sys.stderr)
        return 2
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    overrides = {key: value for key, value in
                 (("seed", args.seed), ("resolution", args.resolution)) if value is not None}
    try:
        config = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or config.output or "."
    try:
        return run(config, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
