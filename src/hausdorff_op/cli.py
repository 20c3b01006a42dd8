"""Config-driven experiment runner behind the ``hausdorff-op`` console script.

A run is described by one JSON file, and :func:`parse_config` walks it once:
each node's parser checks the node and returns what :func:`run` reads of it,
so every dispatch on a ``shape``, ``kind`` or ``scheme`` and every option
default is written once.  The walk is strict (unknown keys are rejected,
every violation is reported, not just the first) because a silent typo in a
tolerance or kernel name would invalidate a verification run.  It checks
what the library cannot: keys, JSON types (a number is a finite double),
lengths against the dimension and the CLI's own caps.  Value rules are the
library constructors': once the walk has passed, the measure, fields, domain
and preservation region are built, and a constructor's ``ValueError``
becomes an error named by its node.  The run builds the family, whose size
is a count in the config, except explicit ``motions``, built in the walk; a
finite group, and the necessity witness when it is listed, pass the
library's one check of their arguments there.
Artifacts: ``results.csv`` (one row per bound check), ``divergence.csv``
(present when the divergence experiment ran), and ``summary.txt``.  Numeric
CSV cells use 17 significant digits so reruns diff byte-identically.

Exit code 0 means every fatal check passed; each report says whether it
is fatal.  Sobolev checks at p > 1 are informative only: the proved
constant applies at p = 1, so they never flip the exit code.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import geometry
from .experiments import (
    TOLERANCES,
    ExperimentReport,
    evaluate_field,
    interior_points,
    run_gradient_check,
    run_lp_bound,
    run_measure_preservation,
    run_necessity_divergence,
    run_sobolev_bound,
    witness_member_count,
)
from .field import P_MAX, P_MIN, gaussian, gaussian_times_poly, polynomial
from .geometry import build_grid_quadrature
from .isometry import (
    GROUP_SIZE_CAP,
    finite_group_family,
    finite_group_size,
    motion_family,
    rotation_family,
    shift_family,
)
from .measure_kernel import KernelForm, discretize, kernel_form, kernel_on_measure
from .operator import HausdorffOperator

EXPERIMENT_DESCRIPTIONS = (
    ("lp_bound", "||Hf||_p against the kernel L1 norm times ||f||_p"),
    ("sobolev_bound", "W^{1,p} norm of Hf against (C n + 1) ||phi||_1 ||f||"),
    ("gradient_check", "analytic gradient of Hf against central differences"),
    ("measure_preservation", "Monte Carlo volume match under each motion"),
    ("necessity_divergence", "operator blowup alongside a non-integrable kernel"),
)
EXPERIMENT_NAMES = tuple(name for name, _ in EXPERIMENT_DESCRIPTIONS)
# experiments that build the operator, and whose resolution is capped at parse time
_GRID_EXPERIMENTS = ("lp_bound", "sobolev_bound", "gradient_check")
# the checks that build the resolution ** dimension grid and share one
# evaluation per field on it
_BOUND_EXPERIMENTS = ("lp_bound", "sobolev_bound")

# largest grid a run may build; its nodes, field values and gradients must
# fit in memory next to each other.  Also the most gradient_points: the
# gradient check's point, gradient and difference arrays have a grid's shape
MAX_GRID_NODES = 1 << 22
# largest Gauss-Legendre rule a run may build.  Rules above
# geometry.LEGENDRE_GOLUB_WELSCH_MAX_NODES are built in closed form, about
# 4 ms at this size, so the cap bounds the size of a grid axis, of a measure
# that becomes a shift family and of a witness panel, not the time of the rule
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
# every experiment option, and its value when the config leaves it out
_OPTION_DEFAULTS = {
    "gradient_points": 50,
    "gradient_step": TOLERANCES["gradient_step"],
    "gradient_margin": 0.05,
    "preservation_samples": 100_000,
    # a family with fewer members checks them all
    "preservation_members": 10,
    # the unit box about the origin, built in _parse_options for the dimension
    "preservation_region": None,
    "necessity": {},
}
# the default necessity witness: 88,880 folded shifts in all
_NECESSITY_DEFAULTS = {
    "kernel": {"name": "power", "a": 1.0},
    "endpoints": [10.0, 100.0, 1000.0, 10000.0],
    "x0": 0.0,
    "points_per_panel": 8,
}

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
class RunInputs:
    """What :func:`run` reads of a config, built and checked; the family is still a call."""

    domain: geometry.Domain
    kernel: KernelForm
    family_measure: Callable[[], tuple]  # returns (family, measure)
    fields: tuple  # a (label, field) pair per field
    options: dict  # every option; the region is a Domain, the necessity kernel a form


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description; ``inputs`` is what the run reads of its specs."""

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
    inputs: RunInputs = field(compare=False, repr=False)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # a finite double, the only number standard JSON has: written so that
    # NaN, the infinities and ints past the double range fail
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_seed(x) -> bool:
    return _is_int(x) and x >= 0


def _is_numbers(x) -> bool:
    return isinstance(x, list) and all(_is_number(v) for v in x)


def _is_vector(x, length: int) -> bool:
    return _is_numbers(x) and len(x) == length


def _is_number_tree(x) -> bool:
    """Whether ``x`` is a number or nested lists of them, not yet a rectangular array."""
    stack = [x]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif not _is_number(item):
            return False
    return True


def _check_keys(spec: dict, allowed: set, where: str, errors: list) -> None:
    unknown = sorted(set(spec) - allowed)
    if unknown:
        errors.append(f"{where}: unknown key(s) {unknown}, allowed: {sorted(allowed)}")


def _check_number(spec: dict, key: str, where: str, errors: list) -> None:
    if not _is_number(spec.get(key)):
        errors.append(f"{where}: {key} must be a number")


def _check_vector(spec: dict, key: str, length: int, where: str, errors: list) -> None:
    if not _is_vector(spec.get(key), length):
        errors.append(f"{where}: {key} must be a list of {length} numbers")


def _check_legendre_nodes(count: int, where: str, errors: list) -> None:
    if count > MAX_LEGENDRE_NODES:
        errors.append(
            f"{where} {count} asks for a Gauss-Legendre rule of more than "
            f"{MAX_LEGENDRE_NODES} nodes"
        )


def _build(call, where: str, errors: list):
    """``call()``, or None with its ValueError recorded as ``"<where>: <message>"``."""
    try:
        return call()
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def _check_size(domain: geometry.Domain, where: str, errors: list) -> bool:
    """Whether the domain's size fits the double range; records the error if not."""
    # the grid weights multiply up to the volume, and the squared distances
    # between points of the window reach n * extent^2; a corner or an extent
    # past the double range is inf
    with np.errstate(over="ignore"):
        lo, hi = domain.bounding_box()
        extent = float(np.max(hi - lo))
    if math.isfinite(domain.volume()) and math.isfinite(domain.dimension * extent * extent):
        return True
    errors.append(f"{where}: its volume or n * extent^2 exceeds the double range")
    return False


def _parse_domain(spec, n: int, where: str, errors: list, bounded_only=False):
    """Check a domain spec's shape; return a call that builds the domain."""
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return None
    shape = spec.get("shape")
    if shape == geometry.BALL:
        _check_keys(spec, {"shape", "center", "radius"}, where, errors)
        _check_vector(spec, "center", n, where, errors)
        _check_number(spec, "radius", where, errors)
        return lambda: geometry.ball(spec["center"], spec["radius"])
    if shape == geometry.BOX:
        _check_keys(spec, {"shape", "lower", "upper"}, where, errors)
        for key in ("lower", "upper"):
            _check_vector(spec, key, n, where, errors)
        return lambda: geometry.box(spec["lower"], spec["upper"])
    if shape == geometry.TRUNCATED:
        if bounded_only:
            errors.append(f"{where}: must be a bounded ball or box")
            return None
        _check_keys(spec, {"shape", "halfwidth"}, where, errors)
        _check_number(spec, "halfwidth", where, errors)
        return lambda: geometry.truncated_space(spec["halfwidth"], n)
    errors.append(
        f"{where}: shape must be one of "
        f"['{geometry.BALL}', '{geometry.BOX}', '{geometry.TRUNCATED}'], got {shape!r}"
    )
    return None


def _parse_family(spec, n: int, seed: int, errors: list):
    """Check the family spec; return (its member count when derivable, a call).

    The call takes the built measure (None for a finite group, which brings
    its own) and returns the (family, measure) pair.  Explicit ``motions``
    are built here, so a member that is not orthogonal is a config error;
    a finite group's arguments pass its one check, :func:`finite_group_size`.
    """
    if not isinstance(spec, dict):
        errors.append("family must be an object")
        return None, None
    kind = spec.get("kind")
    if kind == "rotations_haar":
        _check_keys(spec, {"kind", "count", "seed"}, "family", errors)
        count = spec.get("count")
        if not (_is_int(count) and 1 <= count <= GROUP_SIZE_CAP):
            errors.append(f"family: count must be an integer in [1, {GROUP_SIZE_CAP}]")
            return None, None
        if "seed" in spec and not _is_seed(spec["seed"]):
            errors.append("family: seed must be an integer >= 0")
        return count, lambda measure: (rotation_family(n, count, spec.get("seed", seed)), measure)
    if kind == "finite_group":
        _check_keys(spec, {"kind", "group", "order"}, "family", errors)
        group, order = spec.get("group"), spec.get("order")
        if "order" in spec and not _is_int(order):
            errors.append("family: order must be an integer")
            return None, None
        size = _build(partial(finite_group_size, group, n, order), "family", errors)
        return size, lambda _: finite_group_family(group, n, order)
    if kind == "shifts":
        if n != 1:
            errors.append("family: shifts need dimension 1")
        if "offsets" in spec:
            _check_keys(spec, {"kind", "offsets"}, "family", errors)
            offsets = spec["offsets"]
            if not (_is_numbers(offsets) and len(offsets) >= 1):
                errors.append("family: offsets must be a nonempty list of numbers")
                return None, None
            return len(offsets), lambda measure: (shift_family(offsets), measure)
        _check_keys(spec, {"kind", "from_measure", "fold"}, "family", errors)
        if spec.get("from_measure") is not True:
            errors.append("family: shifts need either offsets or from_measure = true")
        fold = spec.get("fold", False)
        if not isinstance(fold, bool):
            errors.append("family: fold must be a boolean")
        # the count is the measure's by construction
        return None, lambda measure: (shift_family(
            measure.nodes - np.floor(measure.nodes) if fold else measure.nodes), measure)
    if kind == "motions":
        _check_keys(spec, {"kind", "members"}, "family", errors)
        members = spec.get("members")
        if not (isinstance(members, list) and len(members) >= 1):
            errors.append("family: members must be a nonempty list")
            return None, None
        before = len(errors)
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
        if len(errors) > before:
            return len(members), None
        try:  # the family's own check names the first member that is not orthogonal
            family = motion_family([(m["matrix"], m.get("offset")) for m in members])
        except ValueError as exc:
            errors.append(str(exc))
            return len(members), None
        return len(members), lambda measure: (family, measure)
    errors.append(
        "family: kind must be one of "
        "['rotations_haar', 'finite_group', 'shifts', 'motions'], "
        f"got {kind!r}"
    )
    return None, None


def _parse_measure(spec, family_spec, family_count, seed: int, errors: list):
    """Check the measure spec against the family; return a call that builds it."""
    family_kind = family_spec.get("kind") if isinstance(family_spec, dict) else None
    if family_kind == "finite_group":
        if isinstance(spec, dict) and spec.get("scheme") == "finite_group_uniform":
            _check_keys(spec, {"scheme"}, "measure", errors)
        elif spec is not None:
            errors.append(
                "measure: a finite_group family carries its own uniform measure; "
                "omit the measure or set scheme = 'finite_group_uniform'"
            )
        return lambda: None  # the family call builds it
    if spec is None:
        errors.append("missing required key 'measure' (only finite_group families omit it)")
        return None
    if not isinstance(spec, dict):
        errors.append("measure must be an object")
        return None
    scheme = spec.get("scheme")
    count = None
    if scheme == "explicit":
        _check_keys(spec, {"scheme", "nodes", "weights"}, "measure", errors)
        for key in ("nodes", "weights"):
            if not _is_numbers(spec.get(key)):
                errors.append(f"measure: {key} must be a list of numbers")
        if _is_numbers(spec.get("nodes")):
            count = len(spec["nodes"])
    elif scheme in ("gauss_legendre", "monte_carlo"):
        allowed = {"scheme", "interval", "count"}
        if scheme == "monte_carlo":
            allowed.add("seed")
            spec = {"seed": seed, **spec}
        _check_keys(spec, allowed, "measure", errors)
        _check_vector(spec, "interval", 2, "measure", errors)
        if not _is_int(spec.get("count")):
            errors.append("measure: count must be an integer")
        else:
            count = spec["count"]
            if scheme == "gauss_legendre":
                _check_legendre_nodes(count, "measure: count", errors)
            elif count > GROUP_SIZE_CAP:
                # the monte_carlo nodes can become a shift family
                errors.append(
                    f"measure: count {count} exceeds the family size cap of {GROUP_SIZE_CAP}"
                )
        if "seed" in spec and not _is_seed(spec["seed"]):
            errors.append("measure: seed must be an integer >= 0")
    elif scheme == "finite_group_uniform":
        errors.append("measure: finite_group_uniform requires a finite_group family")
    else:
        errors.append(
            "measure: scheme must be one of ['explicit', 'gauss_legendre', "
            f"'monte_carlo', 'finite_group_uniform'], got {scheme!r}"
        )
    if count is not None and family_count is not None and count != family_count:
        errors.append(f"measure has {count} nodes but the family has {family_count} members")
    return lambda: discretize(spec)


def _parse_kernel(spec, where: str, errors: list) -> KernelForm | None:
    """Check a kernel spec; return its form."""
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return None
    params = {k: v for k, v in spec.items() if k != "name"}
    bad = [k for k, v in params.items() if not _is_number(v)]
    errors.extend(f"{where}: kernel parameter {k} must be a number" for k in bad)
    if bad:
        return None
    # the form's constructor is the one whitelist check
    return _build(partial(kernel_form, spec.get("name"), **params), where, errors)


def _parse_field(spec, n: int, index: int, errors: list):
    """Check a field spec; return (its label, a call that builds the field)."""
    where = f"fields[{index}]"
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return None
    kind = spec.get("kind")
    if kind == "gaussian":
        _check_keys(spec, {"kind", "center", "width"}, where, errors)
        build = lambda: gaussian(spec["center"], spec["width"])
    elif kind == "polynomial":
        _check_keys(spec, {"kind", "coeffs"}, where, errors)
        build = lambda: polynomial(spec["coeffs"], dimension=n)
    elif kind == "gaussian_times_poly":
        _check_keys(spec, {"kind", "center", "width", "coeffs"}, where, errors)
        build = lambda: gaussian_times_poly(spec["center"], spec["width"], spec["coeffs"])
    else:
        errors.append(
            f"{where}: kind must be one of ['gaussian', 'polynomial', "
            f"'gaussian_times_poly'], got {kind!r}"
        )
        return None
    if kind != "polynomial":
        _check_vector(spec, "center", n, where, errors)
        _check_number(spec, "width", where, errors)
    # numpy would turn JSON strings and booleans into numbers
    if kind != "gaussian" and not _is_number_tree(spec.get("coeffs")):
        errors.append(f"{where}: coeffs must be a (nested) list of numbers")
    return f"{index}:{kind}", build


def _parse_options(options, n: int, experiments: list, errors: list) -> dict:
    """Check experiment_options; return every option, defaults filled in.

    The preservation region comes back as a call that builds it, and the
    necessity kernel as its form.  When necessity_divergence is listed, the
    witness passes its one check, :func:`witness_member_count`.
    """
    if not isinstance(options, dict):
        errors.append("experiment_options must be an object")
        return {}
    _check_keys(options, set(_OPTION_DEFAULTS), "experiment_options", errors)
    opts = {**_OPTION_DEFAULTS, **options}
    for key in ("gradient_points", "preservation_samples", "preservation_members"):
        if not (_is_int(opts[key]) and opts[key] >= 1):
            errors.append(f"experiment_options: {key} must be an integer >= 1")
    for key, cap, per in (("gradient_points", MAX_GRID_NODES, ""),
                          ("preservation_samples", MAX_PRESERVATION_SAMPLES, " per member")):
        count = opts[key]
        if _is_int(count) and count > cap:
            errors.append(f"experiment_options: {key} {count} exceeds the cap of {cap}{per}")
    for key in ("gradient_step", "gradient_margin"):
        if not (_is_number(opts[key]) and opts[key] > 0):
            errors.append(f"experiment_options: {key} must be a positive number")
    if "preservation_region" in options:
        opts["preservation_region"] = _parse_domain(
            options["preservation_region"], n,
            "experiment_options.preservation_region", errors, bounded_only=True,
        )
    else:
        opts["preservation_region"] = lambda: geometry.box([-0.5] * n, [0.5] * n)
    spec = opts["necessity"]
    if not isinstance(spec, dict):
        errors.append("experiment_options.necessity must be an object")
        return opts
    _check_keys(spec, set(_NECESSITY_DEFAULTS), "experiment_options.necessity", errors)
    nec = opts["necessity"] = {**_NECESSITY_DEFAULTS, **spec}
    form = nec["kernel"] = _parse_kernel(
        nec["kernel"], "experiment_options.necessity.kernel", errors)
    before = len(errors)
    if not _is_numbers(nec["endpoints"]):
        errors.append("experiment_options.necessity: endpoints must be a list of numbers")
    if not _is_number(nec["x0"]):
        errors.append("experiment_options.necessity: x0 must be a number")
    per_panel = nec["points_per_panel"]
    if not (_is_int(per_panel) and per_panel >= 2):
        errors.append("experiment_options.necessity: points_per_panel must be an integer >= 2")
    else:
        _check_legendre_nodes(per_panel, "experiment_options.necessity: points_per_panel", errors)
    if "necessity_divergence" in experiments and form is not None and len(errors) == before:
        # so that the run builds no member of a witness that would be refused
        _build(partial(witness_member_count, form, nec["endpoints"], per_panel, nec["x0"]),
               "experiment_options.necessity", errors)
    return opts


def _check_gradient_points(domain: geometry.Domain, opts: dict, errors: list) -> None:
    """Check, on the built domain, that the gradient check can draw its points."""
    n, count = domain.dimension, opts["gradient_points"]
    # on a ball it samples them by rejection from the bounding box, and
    # log(vol(ball) / vol(box)) = log(pi^(n/2) / (Gamma(n/2 + 1) 2^n))
    log_rate = n / 2 * math.log(math.pi) - math.lgamma(n / 2 + 1) - n * math.log(2)
    log10_draws = (math.log(count) - log_rate) / math.log(10)
    if domain.shape == geometry.BALL and log10_draws > math.log10(MAX_BALL_DRAWS):
        exponent = math.floor(log10_draws)
        errors.append(
            f"experiment_options: gradient_points {count} on a ball in dimension {n} "
            f"expects {10 ** (log10_draws - exponent):.2f}e{exponent} rejection-sampling "
            f"draws, more than the cap of {MAX_BALL_DRAWS}"
        )
    key, inset, what = _gradient_inset(opts)
    try:
        domain.shrink(inset)
    except ValueError:
        errors.append(f"experiment_options: {key} {opts[key]} leaves no gradient "
                      f"points: {what} reaches the inradius of the domain")


def _gradient_inset(opts: dict) -> tuple[str, float, str]:
    """How far inside the domain the gradient points are drawn, and the option that sets it.

    The check skips points within twice the step of the boundary, so points
    drawn the larger of the margin and twice the step inside skip none.
    """
    margin, twice_step = opts["gradient_margin"], 2 * opts["gradient_step"]
    if margin >= twice_step:
        return "gradient_margin", margin, "the margin"
    return "gradient_step", twice_step, "twice the step"


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a JSON run config, in one walk.

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
    seed = raw.get("seed", 0)
    if not _is_seed(seed):
        errors.append("seed must be an integer >= 0")
        seed = 0

    domain = _parse_domain(raw["domain"], n, "domain", errors) if "domain" in raw else None
    family_count, family = (_parse_family(raw["family"], n, seed, errors)
                            if "family" in raw else (None, None))
    measure = None
    if raw.get("family") is not None or "measure" in raw:
        measure = _parse_measure(raw.get("measure"), raw.get("family"), family_count, seed, errors)
    kernel = _parse_kernel(raw["kernel"], "kernel", errors) if "kernel" in raw else None

    fields = raw.get("fields", [])
    if "fields" in raw and not (isinstance(fields, list) and len(fields) >= 1):
        errors.append("fields must be a nonempty list")
        fields = []
    field_inputs = [_parse_field(spec, n, i, errors) for i, spec in enumerate(fields)]

    ps = raw.get("p", [1.0])
    if not (_is_numbers(ps) and ps):
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

    experiments = raw.get("experiments", [])
    if "experiments" in raw and not (isinstance(experiments, list) and len(experiments) >= 1):
        errors.append("experiments must be a nonempty list")
        experiments = []
    unknown = [e for e in experiments if e not in EXPERIMENT_NAMES]
    if unknown:
        errors.append(f"unknown experiment(s) {unknown}, known: {list(EXPERIMENT_NAMES)}")
    elif len(set(experiments)) != len(experiments):
        errors.append("experiments must not repeat")
    if any(name in _GRID_EXPERIMENTS for name in experiments):
        # every grid axis is one Gauss-Legendre rule of `resolution` nodes
        _check_legendre_nodes(resolution, "resolution", errors)
        # min(n, 64) keeps the power small for any n: 2 ** 64 already exceeds the cap
        if resolution ** min(n, 64) > MAX_GRID_NODES:
            errors.append(
                f"resolution {resolution} in dimension {n} gives more than "
                f"{MAX_GRID_NODES} grid nodes"
            )

    options = raw.get("experiment_options", {})
    opts = _parse_options(options, n, experiments, errors)

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append("output must be a string path")

    if errors:
        raise ConfigError(errors)
    # the shapes hold, so each constructor checks its own values
    measure = _build(measure, "measure", errors)
    field_inputs = [(label, _build(build, f"fields[{i}]", errors))
                    for i, (label, build) in enumerate(field_inputs)]
    if errors:
        raise ConfigError(errors)
    # built only now: a truncated window and the default region hold n numbers
    # each, and n is bounded by the size of the config only once the fields build
    domain = _build(domain, "domain", errors)
    region = opts["preservation_region"] = _build(
        opts["preservation_region"], "experiment_options.preservation_region", errors)
    if (domain is not None and _check_size(domain, "domain", errors)
            and "gradient_check" in experiments):
        # a grid that fits has n <= 22, so the draw estimate's floats cannot overflow
        _check_gradient_points(domain, opts, errors)
    if region is not None:
        _check_size(region, "experiment_options.preservation_region", errors)
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
        inputs=RunInputs(domain, kernel, partial(family, measure), tuple(field_inputs), opts),
    )


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


def _bound_reports(evaluation, label: str, config: RunConfig) -> list:
    """(check, row label, report) for each bound check in the config and each p."""
    runners = {"lp_bound": run_lp_bound, "sobolev_bound": run_sobolev_bound}
    return [(name, f"{name} p={p:g} field={label}", runners[name](evaluation, p, seed=config.seed))
            for name in config.experiments if name in runners for p in config.p]


def run(config: RunConfig, out_dir) -> int:
    """Execute the configured experiments and write artifacts into out_dir.

    When a bound check runs, each field is evaluated once, reduced to its
    rows for every bound check and every p, and freed before the next field
    is evaluated.  The rows are then written in config order: each
    experiment in turn, then field, then p.
    """
    n = config.dimension
    inputs = config.inputs
    domain, opts = inputs.domain, inputs.options

    fields = inputs.fields
    operator = None
    if any(name in _GRID_EXPERIMENTS for name in config.experiments):
        family, measure = inputs.family_measure()
        kernel = kernel_on_measure(inputs.kernel, measure)
        operator = HausdorffOperator(
            measure=measure, kernel=kernel, family=family, domain=domain
        )
    elif "measure_preservation" in config.experiments:
        family, _ = inputs.family_measure()

    bound_reports = []
    if any(name in _BOUND_EXPERIMENTS for name in config.experiments):
        quad = build_grid_quadrature(domain, config.resolution)
        with_gradients = "sobolev_bound" in config.experiments
        for label, f in fields:
            # the evaluation is a temporary, so one field's arrays are alive at a time
            bound_reports += _bound_reports(
                evaluate_field(operator, f, quad, gradients=with_gradients), label, config)

    reports, divergences = [], []
    for name in config.experiments:
        if name in _BOUND_EXPERIMENTS:
            reports += [(label, r) for check, label, r in bound_reports if check == name]
        elif name == "gradient_check":
            seed = config.seed + _GRADIENT_SEED_OFFSET
            points = interior_points(domain, opts["gradient_points"], seed,
                                     _gradient_inset(opts)[1])
            for label, f in fields:
                reports.append((f"gradient_check field={label}", run_gradient_check(
                    operator, f, points, opts["gradient_step"], seed=seed)))
        elif name == "measure_preservation":
            members = min(opts["preservation_members"], len(family))
            for i in range(members):
                reports.append((f"measure_preservation member={i}", run_measure_preservation(
                    family, i, opts["preservation_region"], opts["preservation_samples"],
                    config.seed + _PRESERVATION_SEED_OFFSET + i)))
        else:
            nec = opts["necessity"]
            divergences.append(("necessity_divergence", run_necessity_divergence(
                nec["kernel"], nec["endpoints"], nec["x0"], nec["points_per_panel"])))

    header = "experiment,p,lhs,rhs,bound_constant,margin,resolution,seed,passed"
    rows = [header] + [_report_row(r) for _, r in reports]
    # only now, so that a run that fails leaves no empty directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
        if r.passed:
            status = "PASS"
        else:
            status = "FAIL" if r.fatal else "FAIL (informative)"
            if r.fatal:
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
    import argparse  # not loaded by `import hausdorff_op.cli`
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
