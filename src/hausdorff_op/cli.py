"""Config-driven experiment runner behind the ``hausdorff-op`` console script.

A run is described by one JSON file, and :func:`parse_config` walks it once.
The schema is data: each kind of node has a table mapping each key to its
JSON shape (a number is a finite double) and, if it may be left out, its
default, and one walker, :func:`_walk`, checks every node against its table.
The node parsers keep only the calls that build the nodes and the rules
across keys and nodes: the CLI's caps, counts that must agree, explicit
``motions``.  The walk is strict (unknown keys are rejected, every
violation is reported) because a silent typo in a tolerance or kernel name
would invalidate a verification run.  Value rules are the library
constructors': once the walk has passed, the measure, fields, domain and
preservation region are built, and a constructor's ``ValueError`` becomes
an error named by its node; a finite group, a Haar family's stack and the
necessity witness pass the library's checks during the walk.
Artifacts: ``results.csv`` (one row per bound check), ``divergence.csv``
(present when the divergence experiment ran), and ``summary.txt``.  Numeric
CSV cells use 17 significant digits so reruns diff byte-identically.

Exit code 0 means every fatal check passed; each report says whether it
is fatal.  Sobolev checks at p > 1 are informative only: the proved
constant applies at p = 1, so they never flip the exit code.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

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
    check_stack_entries,
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


# the schema: one table per kind of node, mapping each key to its shape

_REQUIRED = object()  # the default of a key the config may not leave out


class _Key(NamedTuple):
    """A key of a node table: its JSON shape, and its default if it may be left out."""

    test: Callable  # test(value, n), with n the dimension
    phrase: str  # the shape in "<where>: <key> must be <phrase>"; {n} is the dimension
    default: object = _REQUIRED

    def optional(self, default) -> _Key:
        return self._replace(default=default)


def _at_least(low: int) -> _Key:
    return _Key(lambda v, n: _is_int(v) and v >= low, f"an integer >= {low}")


_ANY = _Key(lambda v, n: True, "anything")
_INT = _Key(lambda v, n: _is_int(v), "an integer")
_NUMBER = _Key(lambda v, n: _is_number(v), "a number")
_POSITIVE = _Key(lambda v, n: _is_number(v) and v > 0, "a positive number")
_NUMBERS = _Key(lambda v, n: isinstance(v, list) and all(_is_number(x) for x in v),
               "a list of numbers")
_VECTOR = _Key(lambda v, n: _NUMBERS.test(v, n) and len(v) == n, "a list of {n} numbers")
_INTERVAL = _Key(lambda v, n: _NUMBERS.test(v, n) and len(v) == 2, "a list of 2 numbers")
# numpy would turn JSON strings and booleans into numbers
_COEFFS = _Key(lambda v, n: _is_number_tree(v), "a (nested) list of numbers")
_BOOL = _Key(lambda v, n: isinstance(v, bool), "a boolean")
_NONEMPTY_NUMBERS = _Key(lambda v, n: _NUMBERS.test(v, n) and len(v) >= 1,
                         "a nonempty list of numbers")
_LIST = _Key(lambda v, n: isinstance(v, list) and len(v) >= 1, "a nonempty list")
_COUNT = _at_least(1)
_RULE_SIZE = _at_least(2)  # of a Gauss-Legendre rule
# None is the config seed, filled in by the walk
_SEED = _at_least(0).optional(None)

_DOMAINS = {
    geometry.BALL: {"center": _VECTOR, "radius": _NUMBER},
    geometry.BOX: {"lower": _VECTOR, "upper": _VECTOR},
    geometry.TRUNCATED: {"halfwidth": _NUMBER},
}
_FAMILIES = {
    "rotations_haar": {
        "count": _Key(lambda v, n: _is_int(v) and 1 <= v <= GROUP_SIZE_CAP,
                      f"an integer in [1, {GROUP_SIZE_CAP}]"),
        "seed": _SEED,
    },
    # the group's values pass its one check, finite_group_size
    "finite_group": {"group": _ANY.optional(None), "order": _INT.optional(None)},
    "shifts": {"offsets": _NONEMPTY_NUMBERS},
    "motions": {"members": _LIST},
}
# shifts without offsets, one per measure node; _parse_family requires from_measure
_MEASURE_SHIFTS = {"from_measure": _ANY.optional(None), "fold": _BOOL.optional(False)}
# one of the motions' members; _parse_family checks the values against n
_MOTION = {"matrix": _ANY.optional(None), "offset": _ANY.optional(None)}
_MEASURES = {
    "explicit": {"nodes": _NUMBERS, "weights": _NUMBERS},
    "gauss_legendre": {"interval": _INTERVAL, "count": _INT},
    "monte_carlo": {"interval": _INTERVAL, "count": _INT, "seed": _SEED},
}
_FIELDS = {
    "gaussian": {"center": _VECTOR, "width": _NUMBER},
    "polynomial": {"coeffs": _COEFFS},
    "gaussian_times_poly": {"center": _VECTOR, "width": _NUMBER, "coeffs": _COEFFS},
}
_OPTIONS = {
    "gradient_points": _COUNT.optional(50),
    "preservation_samples": _COUNT.optional(100_000),
    # a family with fewer members checks them all
    "preservation_members": _COUNT.optional(10),
    "gradient_step": _POSITIVE.optional(TOLERANCES["gradient_step"]),
    "gradient_margin": _POSITIVE.optional(0.05),
    # both nodes are walked by _parse_options; no region is the unit box
    "preservation_region": _ANY.optional(None),
    "necessity": _ANY.optional({}),
}
# the default necessity witness: 88,880 folded shifts in all
_NECESSITY = {
    "kernel": _ANY.optional({"name": "power", "a": 1.0}),  # its form, by _parse_kernel
    "endpoints": _NUMBERS.optional([10.0, 100.0, 1000.0, 10000.0]),
    "x0": _NUMBER.optional(0.0),
    "points_per_panel": _RULE_SIZE.optional(8),
}
# the top level: its keys and defaults; parse_config checks the values in
# turn, so that each error follows those of the nodes before it
_TOP = {
    "dimension": _ANY, "domain": _ANY, "family": _ANY, "measure": _ANY.optional(None),
    "kernel": _ANY, "fields": _ANY, "p": _ANY.optional([1.0]), "resolution": _ANY.optional(64),
    "experiments": _ANY, "experiment_options": _ANY.optional({}), "seed": _ANY.optional(0),
    "output": _ANY.optional(None),
}


def _walk(spec, where: str, tables: dict, errors: list, n: int = 1, tag=None,
          rules=None, seed: int = 0):
    """Check one config node against its table; return a checked copy, or None.

    ``tables`` is the node's table or, with ``tag``, a table per value of
    that key.  The walk checks that the node is an object with a known tag,
    rejects unknown keys, then checks each key's shape in table order: a key
    left out takes a copy of its default (a seed the config ``seed``), and a
    required one left out fails.  The copy holds the tag and each key that
    passed.  ``rules`` maps the tag or a key to a check that runs right after
    it, so that its errors follow that key's; a rule that returns False ends
    the walk, which then returns None.
    """
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return None
    rules = rules or {}
    node, table = {}, tables
    if tag is not None:
        kind = spec.get(tag)
        # a list or a dict is unhashable, so the type is tested first
        if not (isinstance(kind, str) and kind in tables):
            errors.append(f"{where}: {tag} must be one of {list(tables)}, got {kind!r}")
            return None
        node[tag], table = kind, tables[kind]
        if tag in rules and rules[tag](node) is False:
            return None
    allowed = {*node, *table}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        errors.append(f"{where}: unknown key(s) {unknown}, allowed: {sorted(allowed)}")
    for key, shape in table.items():
        if key not in spec and shape.default is not _REQUIRED:
            node[key] = seed if shape is _SEED else copy.deepcopy(shape.default)
        elif shape.test(spec.get(key), n):
            node[key] = spec.get(key)
        else:
            errors.append(f"{where}: {key} must be {shape.phrase.format(n=n)}")
        if key in rules and rules[key](node) is False:
            return None
    return node


def _check_legendre_nodes(count: int, where: str, errors: list) -> None:
    if count > MAX_LEGENDRE_NODES:
        errors.append(f"{where} {count} asks for a Gauss-Legendre rule of more than "
                      f"{MAX_LEGENDRE_NODES} nodes")


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


# each kind of node's build call, made once the walk has passed; the lambdas
# look the constructors up when called, so that a tracer replacing them sees them
_DOMAIN_BUILDS = {
    geometry.BALL: lambda d, n: geometry.ball(d["center"], d["radius"]),
    geometry.BOX: lambda d, n: geometry.box(d["lower"], d["upper"]),
    geometry.TRUNCATED: lambda d, n: geometry.truncated_space(d["halfwidth"], n),
}
_FIELD_BUILDS = {
    "gaussian": lambda f, n: gaussian(f["center"], f["width"]),
    "polynomial": lambda f, n: polynomial(f["coeffs"], dimension=n),
    "gaussian_times_poly": lambda f, n: gaussian_times_poly(f["center"], f["width"], f["coeffs"]),
}


def _parse_domain(spec, n: int, where: str, errors: list, bounded_only=False):
    """Walk a domain spec; return a call that builds the domain."""

    def bounded(node):
        if bounded_only and node["shape"] == geometry.TRUNCATED:
            errors.append(f"{where}: must be a bounded ball or box")
            return False

    node = _walk(spec, where, _DOMAINS, errors, n, tag="shape", rules={"shape": bounded})
    return node and partial(_DOMAIN_BUILDS[node["shape"]], node, n)


def _parse_family(spec, n: int, seed: int, errors: list):
    """Walk the family spec; return (its member count when derivable, a call).

    The call takes the built measure (None for a finite group, which brings
    its own) and returns the (family, measure) pair.  Explicit ``motions``
    are built here, so a member that is not orthogonal is a config error; a
    finite group's arguments pass its one check, :func:`finite_group_size`,
    and a Haar count and dimension the stack cap, :func:`check_stack_entries`.
    """

    def one_dimensional(node):
        if node["kind"] == "shifts" and n != 1:
            errors.append("family: shifts need dimension 1")

    def from_measure(node):
        if node["from_measure"] is not True:
            errors.append("family: shifts need either offsets or from_measure = true")

    tables = ({**_FAMILIES, "shifts": _MEASURE_SHIFTS}
              if isinstance(spec, dict) and "offsets" not in spec else _FAMILIES)
    node = _walk(spec, "family", tables, errors, n, tag="kind", seed=seed, rules={
        "kind": one_dimensional, "from_measure": from_measure,
        # a Haar family without a count is not walked further
        "count": lambda node: "count" in node,
    })
    kind = node and node["kind"]
    if kind == "rotations_haar":
        count = node["count"]
        _build(partial(check_stack_entries, count, n), "family", errors)
        return count, lambda measure: (rotation_family(n, count, node["seed"]), measure)
    if kind == "finite_group" and "order" in node:
        group, order = node["group"], node["order"]
        size = _build(partial(finite_group_size, group, n, order), "family", errors)
        return size, lambda _: finite_group_family(group, n, order)
    if kind == "shifts" and "offsets" in node:
        return len(node["offsets"]), lambda measure: (shift_family(node["offsets"]), measure)
    if kind == "shifts" and "from_measure" in node:
        # the count is the measure's by construction
        fold = node.get("fold")
        return None, lambda measure: (shift_family(
            measure.nodes - np.floor(measure.nodes) if fold else measure.nodes), measure)
    if kind != "motions" or "members" not in node:
        return None, None
    members, before = node["members"], len(errors)
    for i, member in enumerate(members):
        if not isinstance(member, dict):
            errors.append(f"family: member {i} must be an object")
            continue
        _walk(member, f"family member {i}", _MOTION, errors)
        matrix = member.get("matrix")
        if not (isinstance(matrix, list) and len(matrix) == n
                and all(_VECTOR.test(row, n) for row in matrix)):
            errors.append(f"family: member {i} matrix must be {n}x{n}")
        if "offset" in member and not _VECTOR.test(member["offset"], n):
            errors.append(f"family: member {i} offset must be a list of {n} numbers")
    if len(errors) > before:
        return len(members), None
    try:  # the family's own check names the first member that is not orthogonal
        family = motion_family([(m["matrix"], m.get("offset")) for m in members])
    except ValueError as exc:
        errors.append(str(exc))
        return len(members), None
    return len(members), lambda measure: (family, measure)


def _parse_measure(spec, family_spec, family_count, seed: int, errors: list):
    """Walk the measure spec against the family; return a call that builds it."""
    if isinstance(family_spec, dict) and family_spec.get("kind") == "finite_group":
        if spec is not None:
            errors.append("measure: a finite_group family carries its own uniform measure; "
                          "omit the measure")
        return lambda: None  # the family call builds it
    if spec is None:
        errors.append("missing required key 'measure' (only finite_group families omit it)")
        return None

    def capped(node):
        count = node.get("count", 0)
        if node["scheme"] == "gauss_legendre":
            _check_legendre_nodes(count, "measure: count", errors)
        elif count > GROUP_SIZE_CAP:  # the monte_carlo nodes can become a shift family
            errors.append(f"measure: count {count} exceeds the family size cap of "
                          f"{GROUP_SIZE_CAP}")

    node = _walk(spec, "measure", _MEASURES, errors, tag="scheme", seed=seed,
                 rules={"count": capped})
    if node is None:
        return None
    count = len(node["nodes"]) if "nodes" in node else node.get("count")
    if count is not None and family_count is not None and count != family_count:
        errors.append(f"measure has {count} nodes but the family has {family_count} members")
    return lambda: discretize(node)


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


def _parse_options(options, n: int, experiments: list, errors: list) -> dict:
    """Walk experiment_options; return every option, defaults filled in.

    The preservation region comes back as a call that builds it, and the
    necessity kernel as its form.  When necessity_divergence is listed, the
    witness passes its one check, :func:`witness_member_count`.
    """

    def capped(opts):  # once the three counts are walked
        for key, cap, per in (("gradient_points", MAX_GRID_NODES, ""),
                              ("preservation_samples", MAX_PRESERVATION_SAMPLES, " per member")):
            if opts.get(key, 0) > cap:
                errors.append(
                    f"experiment_options: {key} {opts[key]} exceeds the cap of {cap}{per}")

    opts = _walk(options, "experiment_options", _OPTIONS, errors, n,
                 rules={"preservation_members": capped})
    if opts is None:
        return {}
    opts["preservation_region"] = (
        _parse_domain(options["preservation_region"], n,
                      "experiment_options.preservation_region", errors, bounded_only=True)
        if "preservation_region" in options else lambda: geometry.box([-0.5] * n, [0.5] * n))
    where = "experiment_options.necessity"
    nec = opts["necessity"] = _walk(opts["necessity"], where, _NECESSITY, errors, rules={
        "kernel": lambda nec: nec.update(
            kernel=_parse_kernel(nec["kernel"], f"{where}.kernel", errors))})
    if nec is None or "points_per_panel" not in nec:
        return opts
    before = len(errors)
    _check_legendre_nodes(nec["points_per_panel"], f"{where}: points_per_panel", errors)
    if ("necessity_divergence" in experiments and len(errors) == before
            and nec["kernel"] is not None and len(nec) == len(_NECESSITY)):
        # so that the run builds no member of a witness that would be refused
        _build(partial(witness_member_count, nec["kernel"], nec["endpoints"],
                       nec["points_per_panel"], nec["x0"]), where, errors)
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
    top = _walk(raw, "config", _TOP, errors)
    errors += [f"missing required key '{key}'" for key, shape in _TOP.items()
               if shape.default is _REQUIRED and key not in raw]

    n = top["dimension"]
    if not _COUNT.test(n, 1):
        errors.append(f"dimension must be {_COUNT.phrase}")
        raise ConfigError(errors)
    seed = top["seed"]
    if not _SEED.test(seed, n):
        errors.append(f"seed must be {_SEED.phrase}")
        seed = 0

    domain = _parse_domain(raw["domain"], n, "domain", errors) if "domain" in raw else None
    family_count, family = (_parse_family(raw["family"], n, seed, errors)
                            if "family" in raw else (None, None))
    measure = (_parse_measure(top["measure"], top["family"], family_count, seed, errors)
               if top["family"] is not None or "measure" in raw else None)
    kernel = _parse_kernel(raw["kernel"], "kernel", errors) if "kernel" in raw else None

    fields = top["fields"] if _LIST.test(top["fields"], n) else []
    if "fields" in raw and not fields:
        errors.append(f"fields must be {_LIST.phrase}")
    field_nodes = [_walk(spec, f"fields[{i}]", _FIELDS, errors, n, tag="kind")
                   for i, spec in enumerate(fields)]

    ps = top["p"]
    if not _NONEMPTY_NUMBERS.test(ps, n):
        errors.append(f"p must be {_NONEMPTY_NUMBERS.phrase}")
        ps = [1.0]
    bad = [v for v in ps if not P_MIN <= v <= P_MAX]
    if bad:
        errors.append(f"p values must lie in [{P_MIN:g}, {P_MAX:g}], got {bad}")

    resolution = top["resolution"]
    if not _RULE_SIZE.test(resolution, n):
        errors.append(f"resolution must be {_RULE_SIZE.phrase}")
        resolution = 64

    experiments = top["experiments"] if _LIST.test(top["experiments"], n) else []
    if "experiments" in raw and not experiments:
        errors.append(f"experiments must be {_LIST.phrase}")
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

    opts = _parse_options(top["experiment_options"], n, experiments, errors)

    output = top["output"]
    if output is not None and not isinstance(output, str):
        errors.append("output must be a string path")
    if errors:
        raise ConfigError(errors)
    # the shapes hold, so each constructor checks its own values
    measure = _build(measure, "measure", errors)
    field_inputs = [(f"{i}:{f['kind']}", _build(partial(_FIELD_BUILDS[f["kind"]], f, n),
                                                 f"fields[{i}]", errors))
                    for i, f in enumerate(field_nodes)]
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
        options=top["experiment_options"],
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
    inputs = config.inputs
    domain, opts = inputs.domain, inputs.options

    fields = inputs.fields
    operator = None
    if any(name in _GRID_EXPERIMENTS for name in config.experiments):
        family, measure = inputs.family_measure()
        kernel = kernel_on_measure(inputs.kernel, measure)
        operator = HausdorffOperator(measure=measure, kernel=kernel, family=family,
                                     domain=domain)
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

    reports, divergence = [], None
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
            divergence = run_necessity_divergence(
                nec["kernel"], nec["endpoints"], nec["x0"], nec["points_per_panel"])

    header = "experiment,p,lhs,rhs,bound_constant,margin,resolution,seed,passed"
    rows = [header] + [_report_row(r) for _, r in reports]
    # only now, so that a run that fails leaves no empty directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")

    d = divergence
    if d is not None:
        drows = ["endpoint,l1_norm,h_value,ratio,lower_bound"] + [",".join(_fmt(v) for v in (
            d.truncation_points[k], d.l1_norms[k], d.operator_values_at_x0[k], d.ratios[k],
            d.lower_bound_constant)) for k in range(len(d.truncation_points))]
        (out / "divergence.csv").write_text("\n".join(drows) + "\n", encoding="utf-8",
                                            newline="\n")

    # whether each failure is fatal; a failed divergence always is
    failed = [r.fatal for _, r in reports if not r.passed]
    if d is not None and not d.passed:
        failed.append(True)
    fatal_failures = sum(failed)
    informative_failures = len(failed) - fatal_failures
    code = 0 if fatal_failures == 0 else 1
    lines = [
        "hausdorff-op run summary",
        f"dimension={config.dimension} resolution={config.resolution} seed={config.seed}",
        f"experiments={','.join(config.experiments)}",
        "",
    ]
    for label, r in reports:
        status = "PASS" if r.passed else "FAIL" if r.fatal else "FAIL (informative)"
        lines.append(f"{status:<19} {label}  lhs={r.lhs:.6g} rhs={r.rhs:.6g} margin={r.margin:.6g}"
                     + (f"  [{r.notes}]" if r.notes else ""))
    if d is not None:
        lines.append(
            f"{'PASS' if d.passed else 'FAIL':<19} necessity_divergence  "
            f"growth={d.growth_factor:.6g} min_ratio={d.ratios.min():.6g} "
            f"bound={d.lower_bound_constant:.6g}"
        )
        if d.notes:
            lines.append(f"                    [{d.notes}]")
    lines += ["", f"fatal failures: {fatal_failures}",
              f"informative failures: {informative_failures}", f"exit code: {code}"]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    print(f"wrote {out / 'results.csv'} ({len(reports)} row(s))"
          + (f" and {out / 'divergence.csv'}" if d is not None else ""))
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
    runp.add_argument("--list-experiments", action="store_true",
                      help="list experiment names and exit")
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
