"""Config-driven experiment runner behind the ``hausdorff-op`` console script.

A run is described by one JSON file, and :func:`parse_config` checks it in
two passes.  The schema is data: one tree of tables, a table per kind of
node mapping each key to its JSON shape (a number is a finite double), its
default if it may be left out and, for a key that holds a node, the node's
tables.  Pass one checks ``dimension`` and then walks the tree from its
root with one walker, :func:`_walk`, which never stops early: unknown keys
are rejected and every violation is reported, because a silent typo in a
tolerance or kernel name would invalidate a verification run.  Pass two
runs every value rule, in build order, on the values whose shapes passed:
the rules across nodes (a measure beside its family, the ``p`` range, the
experiment names), the CLI's caps, counts that must agree, the library's
checks of a family, a kernel and the necessity witness, then the builds of
the measure, fields, domain and preservation region, and the domain's checks
that it can sample the gradient points and inset them, where a library
``ValueError`` becomes an error named by its node; last, once every rule
has passed, the family, the kernel's values on its measure and the
operator, whose constructor checks that each motion keeps the domain in
itself and that each weight times kernel value is finite.  So every shape
error comes in the tree's order, depth first, then every value error in
build order, and :func:`run` builds only its grid and gradient points.
Artifacts: ``results.csv`` (one row per bound check), ``divergence.csv``
(present when the divergence experiment ran), and ``summary.txt``.  Numeric
CSV cells use 17 significant digits so reruns diff byte-identically.

Exit code 0 means every fatal check passed; each report says whether it
is fatal.  Sobolev checks at p > 1 are informative only: the proved
constant applies at p = 1, so they never flip the exit code.  A run whose
arithmetic overflows, or forms an invalid value or a division by zero,
stops there with exit 2 and writes nothing.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections.abc import Callable
from contextlib import contextmanager
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
    DomainEscapeError,
    IsometryFamily,
    check_stack_entries,
    finite_group_family,
    finite_group_size,
    motion_family,
    rotation_family,
    shift_family,
)
from .measure_kernel import _FORMS, discretize, kernel_form, kernel_on_measure
from .operator import HausdorffOperator

EXPERIMENT_DESCRIPTIONS = (
    ("lp_bound", "||Hf||_p against the kernel L1 norm times ||f||_p"),
    ("sobolev_bound", "W^{1,p} norm of Hf against (C n + 1) ||phi||_1 ||f||"),
    ("gradient_check", "analytic gradient of Hf against central differences"),
    ("measure_preservation", "Monte Carlo volume match under each motion"),
    ("necessity_divergence", "operator blowup alongside a non-integrable kernel"),
)
EXPERIMENT_NAMES = tuple(name for name, _ in EXPERIMENT_DESCRIPTIONS)
# experiments that read the operator, and whose resolution is capped at parse time
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


class RunInputs(NamedTuple):
    """What :func:`run` reads of a config, built; None for what no experiment reads."""

    domain: geometry.Domain
    family: IsometryFamily | None
    operator: HausdorffOperator | None
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


# the schema: one tree of tables, one per kind of node, mapping each key to
# its shape; a key whose value is a node names the node's tables

_REQUIRED = object()  # the default of a key the config may not leave out


class _Key(NamedTuple):
    """A key of a node table: its JSON shape, its default if it may be left out, and its nodes."""

    test: Callable  # test(value, n), with n the dimension
    phrase: str  # the shape in "<where>: <key> must be <phrase>"; {n} is the dimension
    default: object = _REQUIRED
    # a node value: its table or a table per value of the key tag, and
    # whether the value is a list of such nodes
    tables: dict | None = None
    tag: str | None = None
    many: bool = False

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
_MATRIX = _Key(lambda v, n: isinstance(v, list) and len(v) == n
               and all(_VECTOR.test(row, n) for row in v), "a list of {n} rows of {n} numbers")
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


def _node(tables: dict, tag: str | None = None, many: bool = False) -> _Key:
    # the walk of each node checks that it is an object
    return (_LIST if many else _ANY)._replace(tables=tables, tag=tag, many=many)


_DOMAINS = {
    geometry.BALL: {"center": _VECTOR, "radius": _NUMBER},
    geometry.BOX: {"lower": _VECTOR, "upper": _VECTOR},
    geometry.TRUNCATED: {"halfwidth": _NUMBER},
}
# one of the motions' members
_MOTION = {"matrix": _MATRIX, "offset": _VECTOR.optional(None)}
_FAMILIES = {
    "rotations_haar": {
        "count": _Key(lambda v, n: _is_int(v) and 1 <= v <= GROUP_SIZE_CAP,
                      f"an integer in [1, {GROUP_SIZE_CAP}]"),
        "seed": _SEED,
    },
    # the group's values pass its one check, finite_group_size
    "finite_group": {"group": _ANY.optional(None), "order": _INT.optional(None)},
    # offsets, or from_measure = true with fold: pass two checks which
    "shifts": {"offsets": _NONEMPTY_NUMBERS.optional(None), "from_measure": _ANY.optional(None),
               "fold": _BOOL.optional(None)},
    "motions": {"members": _node(_MOTION, many=True)},
}
_MEASURES = {
    "explicit": {"nodes": _NUMBERS, "weights": _NUMBERS},
    "gauss_legendre": {"interval": _INTERVAL, "count": _INT},
    "monte_carlo": {"interval": _INTERVAL, "count": _INT, "seed": _SEED},
}
# the whitelist of kernel forms, by name: each parameter is a number, and
# kernel_form checks the values
_KERNELS = {name: dict.fromkeys(form.params, _NUMBER) for name, form in _FORMS.items()}
_FIELDS = {
    "gaussian": {"center": _VECTOR, "width": _NUMBER},
    "polynomial": {"coeffs": _COEFFS},
    "gaussian_times_poly": {"center": _VECTOR, "width": _NUMBER, "coeffs": _COEFFS},
}
# the default necessity witness: 88,880 folded shifts in all
_NECESSITY = {
    "kernel": _node(_KERNELS, "name").optional({"name": "power", "a": 1.0}),
    "endpoints": _NUMBERS.optional([10.0, 100.0, 1000.0, 10000.0]),
    "x0": _NUMBER.optional(0.0),
    "points_per_panel": _RULE_SIZE.optional(8),
}
_OPTIONS = {
    "gradient_points": _COUNT.optional(50),
    "preservation_samples": _COUNT.optional(100_000),
    # a family with fewer members checks them all
    "preservation_members": _COUNT.optional(10),
    "gradient_step": _POSITIVE.optional(TOLERANCES["gradient_step"]),
    "gradient_margin": _POSITIVE.optional(0.05),
    # no region is the unit box
    "preservation_region": _node(_DOMAINS, "shape").optional(None),
    "necessity": _node(_NECESSITY).optional({}),
}
# the root of the tree; only a finite_group family, which brings its own,
# may leave out the measure
_TOP = {
    "dimension": _COUNT, "seed": _at_least(0).optional(0),
    "domain": _node(_DOMAINS, "shape"), "family": _node(_FAMILIES, "kind"),
    "measure": _node(_MEASURES, "scheme").optional(None), "kernel": _node(_KERNELS, "name"),
    "fields": _node(_FIELDS, "kind", many=True), "p": _NONEMPTY_NUMBERS.optional([1.0]),
    "resolution": _RULE_SIZE.optional(64), "experiments": _LIST,
    "experiment_options": _node(_OPTIONS).optional({}),
    "output": _Key(lambda v, n: v is None or isinstance(v, str), "a string path").optional(None),
}


def _walk(spec, where: str, shape: _Key, errors: list, sound: set, n: int, seed: int) -> dict:
    """Check one config node, and the nodes under it, against their tables.

    The node must be an object with a known tag (``shape.tag``); unknown
    keys are rejected, then each key is checked in table order: one left
    out takes a copy of its default (a seed the config ``seed``) or, if
    required, fails, and a node value is walked in its place, unless it is
    null with a null default.  Returns a copy of the tag and each key that
    passed, ``{}`` for a node that is not an object or has no known tag, and
    adds ``where`` to ``sound`` when no error was found in or under the node.
    """
    if not isinstance(spec, dict):
        errors.append(f"{where} must be an object")
        return {}
    before, node, table, at = len(errors), {}, shape.tables, f"{where}: " if where else ""
    if shape.tag is not None:
        kind = spec.get(shape.tag)
        # a list or a dict is unhashable, so the type is tested first
        if not (isinstance(kind, str) and kind in table):
            errors.append(f"{at}{shape.tag} must be one of {list(table)}, got {kind!r}")
            return {}
        node[shape.tag], table = kind, table[kind]
    allowed = {*node, *table}
    unknown = sorted(set(spec) - allowed)
    if unknown:
        errors.append(f"{at}unknown key(s) {unknown}, allowed: {sorted(allowed)}")
    for key, value_shape in table.items():
        if key in spec and value_shape.test(spec[key], n):
            value = spec[key]
        elif key in spec:
            errors.append(f"{at}{key} must be {value_shape.phrase.format(n=n)}")
            continue
        elif value_shape.default is _REQUIRED:
            errors.append(f"{at}missing required key '{key}'")
            continue
        else:
            value = seed if value_shape is _SEED else copy.deepcopy(value_shape.default)
        if value_shape.tables is not None and not (value is None and value_shape.default is None):
            walk = partial(_walk, shape=value_shape, errors=errors, sound=sound, n=n, seed=seed)
            path = f"{where}.{key}" if where else key
            value = ([walk(item, f"{path}[{i}]") for i, item in enumerate(value)]
                     if value_shape.many else walk(value, path))
        node[key] = value
    if len(errors) == before:
        sound.add(where)
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


# each kind of node's build call, made in pass two; the lambdas look the
# constructors up when called, so that a tracer replacing them sees them
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


# each family's build, the last of pass two: it takes the built measure (None
# for a finite group, which brings its own) and returns the (family, measure)
# pair; shifts take their offsets or the measure's nodes, folded into [0, 1)
# with fold, and a motions family was built earlier, as its orthogonality check
_FAMILY_BUILDS = {
    "rotations_haar": lambda f, n, m: (rotation_family(n, f["count"], f["seed"]), m),
    "finite_group": lambda f, n, m: finite_group_family(f["group"], n, f["order"]),
    "shifts": lambda f, n, m: (shift_family(
        f["offsets"] if f["offsets"] is not None
        else m.nodes - np.floor(m.nodes) if f["fold"] else m.nodes), m),
    "motions": lambda f, n, m: (f["motions"], m),
}
_REGION = "experiment_options.preservation_region"
_WITNESS = "experiment_options.necessity"


def _check_shapes(raw: dict, errors: list) -> tuple[dict, set]:
    """Pass one: walk the config tree; return its checked copy and the set
    of nodes whose walk found no error (see :func:`_walk`).

    It stops early only at a bad ``dimension``, which every length is
    checked against; a bad ``seed`` is reported in its turn, and the nodes'
    seeds default to 0.
    """
    n, seed, sound = raw.get("dimension"), raw.get("seed", 0), set()
    if not _COUNT.test(n, 1):
        raise ConfigError([f"dimension must be {_COUNT.phrase}"])
    seed = seed if _TOP["seed"].test(seed, n) else 0
    return _walk(raw, "", _node(_TOP), errors, sound, n, seed), sound


def _check_values(top: dict, sound: set, errors: list) -> RunInputs | None:
    """Pass two: every value rule, in build order, on the checked values it reads.

    A rule runs when the values it reads passed pass one, whatever failed
    elsewhere; a node is built once it and its rules passed, the family and
    operator once all did.  Returns what the run reads, or None on any error.
    """
    n, experiments = top["dimension"], top.get("experiments", [])
    grid = any(name in _GRID_EXPERIMENTS for name in experiments)

    def form(spec, where):  # a kernel's form: its constructor checks the values
        if where in sound:
            return _build(partial(kernel_form, **spec), where, errors)

    family, before = top.get("family", {}), len(errors)
    kind = family.get("kind")
    if kind == "shifts" and n != 1:
        errors.append("family: shifts need dimension 1")
    if kind == "shifts" and "offsets" in family:
        # offsets alone, or from_measure = true with an optional fold
        alone = family["from_measure"] is None and family.get("fold") is None
        if not (alone if family["offsets"] is not None else family["from_measure"] is True):
            errors.append("family: shifts need either offsets or from_measure = true")
    if kind == "rotations_haar" and "count" in family:
        _build(partial(check_stack_entries, family["count"], n), "family", errors)
    if kind == "finite_group" and "order" in family:
        _build(partial(finite_group_size, family["group"], n, family["order"]), "family", errors)
    members = family.get("members", [])
    if members and all(f"family.members[{i}]" in sound for i in range(len(members))):
        try:  # the family's own check names the first member that is not orthogonal
            family["motions"] = motion_family([(m["matrix"], m["offset"]) for m in members])
        except ValueError as exc:
            errors.append(str(exc))
    if len(errors) > before:
        sound.discard("family")

    measure, before = top["measure"], len(errors)
    if kind == "finite_group":
        if measure is not None:
            errors.append("measure: a finite_group family carries its own uniform measure; "
                          "omit the measure")
    elif kind is not None and measure is None:
        errors.append("missing required key 'measure' (only finite_group families omit it)")
    elif measure:
        count = measure.get("count", 0)
        if measure["scheme"] == "gauss_legendre":
            _check_legendre_nodes(count, "measure: count", errors)
        elif count > GROUP_SIZE_CAP:  # the monte_carlo nodes can become a shift family
            errors.append(f"measure: count {count} exceeds the family size cap of "
                          f"{GROUP_SIZE_CAP}")
        # the member count the family states: a Haar count, its offsets or members
        members = family.get("count") or len(family.get("offsets") or members)
        count = len(measure["nodes"]) if "nodes" in measure else measure.get("count")
        if count is not None and members and count != members:
            errors.append(f"measure has {count} nodes but the family has {members} members")
    if len(errors) > before:
        sound.discard("measure")
    kernel = form(top.get("kernel"), "kernel")

    bad = [v for v in top.get("p", []) if not P_MIN <= v <= P_MAX]
    if bad:
        errors.append(f"p values must lie in [{P_MIN:g}, {P_MAX:g}], got {bad}")
    unknown = [e for e in experiments if e not in EXPERIMENT_NAMES]
    if unknown:
        errors.append(f"unknown experiment(s) {unknown}, known: {list(EXPERIMENT_NAMES)}")
    elif len(set(experiments)) != len(experiments):
        errors.append("experiments must not repeat")
    resolution = top.get("resolution")
    if resolution is not None and grid:
        # every grid axis is one Gauss-Legendre rule of `resolution` nodes
        _check_legendre_nodes(resolution, "resolution", errors)
        # min(n, 64) keeps the power small for any n: 2 ** 64 already exceeds the cap
        if resolution ** min(n, 64) > MAX_GRID_NODES:
            errors.append(f"resolution {resolution} in dimension {n} gives more than "
                          f"{MAX_GRID_NODES} grid nodes")

    opts = top.get("experiment_options", {})
    for key, cap, per in (("gradient_points", MAX_GRID_NODES, ""),
                          ("preservation_samples", MAX_PRESERVATION_SAMPLES, " per member")):
        if opts.get(key, 0) > cap:
            errors.append(f"experiment_options: {key} {opts[key]} exceeds the cap of {cap}{per}")
    region = opts.get("preservation_region")
    if region and region["shape"] == geometry.TRUNCATED:
        errors.append(f"{_REGION}: must be a bounded ball or box")
        sound.discard(_REGION)
    nec, before = opts.get("necessity"), len(errors)
    if nec is not None:
        nec["kernel"] = form(nec.get("kernel"), f"{_WITNESS}.kernel")
        if "points_per_panel" in nec:
            _check_legendre_nodes(nec["points_per_panel"], f"{_WITNESS}: points_per_panel",
                                  errors)
        if ("necessity_divergence" in experiments and len(errors) == before
                and all(nec.get(key) is not None for key in _NECESSITY)):
            # so that the run builds no member of a witness that would be refused
            _build(partial(witness_member_count, nec["kernel"], nec["endpoints"],
                           nec["points_per_panel"], nec["x0"]), _WITNESS, errors)

    # the builds; the measure only beside a family that passed, which takes it
    measure = (_build(partial(discretize, measure), "measure", errors)
               if "measure" in sound and "family" in sound else None)
    nodes = top.get("fields", [])
    built = {i: _build(partial(_FIELD_BUILDS[node["kind"]], node, n), f"fields[{i}]", errors)
             for i, node in enumerate(nodes) if f"fields[{i}]" in sound}
    fields = [(f"{i}:{nodes[i]['kind']}", f) for i, f in built.items()]
    # a truncated window and the default region hold n numbers each, and n is
    # bounded by the size of the config only once every field is built
    sized = len(built) == len(nodes) > 0 and None not in built.values()
    domain = top.get("domain")
    if "domain" in sound and (sized or domain["shape"] != geometry.TRUNCATED):
        domain = _build(partial(_DOMAIN_BUILDS[domain["shape"]], domain, n), "domain", errors)
    else:
        domain = None
    if _REGION in sound:
        region = _build(partial(_DOMAIN_BUILDS[region["shape"]], region, n), _REGION, errors)
    else:
        region = geometry.box([-0.5] * n, [0.5] * n) if sized and region is None else None
    if (domain is not None and _check_size(domain, "domain", errors)
            and "gradient_check" in experiments
            and opts.keys() >= {"gradient_points", "gradient_step", "gradient_margin"}):
        _check_gradient_points(domain, opts, errors)
    if region is not None:
        _check_size(region, _REGION, errors)
    pair = values = operator = None  # the built (family, measure), kernel and operator
    if not errors and (grid or "measure_preservation" in experiments):
        pair = _build(partial(_FAMILY_BUILDS[kind], family, n, measure), "family", errors)
    if pair is not None and grid:
        values = _build(partial(kernel_on_measure, kernel, pair[1]), "kernel", errors)
    if values is not None:
        try:  # its constructor checks that the family keeps the domain, then each coefficient
            operator = HausdorffOperator(measure=pair[1], kernel=values, family=pair[0],
                                         domain=domain)
        except ValueError as exc:
            where = "family" if isinstance(exc, DomainEscapeError) else "measure"
            errors.append(f"{where}: {exc}")
    if errors:
        return None
    opts.update(preservation_region=region, necessity=nec)
    return RunInputs(domain, pair and pair[0], operator, tuple(fields), opts)


def _check_gradient_points(domain: geometry.Domain, opts: dict, errors: list) -> None:
    """Check, on the built domain, that the gradient check can draw its points."""
    _build(partial(domain.check_sample, opts["gradient_points"]),
           "experiment_options: gradient_points", errors)
    _build(partial(domain.shrink, _gradient_inset(opts)), "experiment_options: gradient_margin "
           f"{opts['gradient_margin']} and gradient_step {opts['gradient_step']} leave no "
           "gradient points", errors)


def _gradient_inset(opts: dict) -> float:
    """How far inside the domain the gradient points are drawn.

    The check refuses points within twice the step of the boundary, so
    points drawn the larger of the margin and twice the step inside pass.
    """
    return float(max(opts["gradient_margin"], 2 * opts["gradient_step"]))


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully validate a JSON run config, in two passes.

    ``overrides`` replaces top-level keys before validation, so command-line
    values pass the same checks as the file's.  Raises :class:`ConfigError`
    carrying every violation found: every shape error in the tree's order,
    then every value error in build order.
    """
    try:  # a leading byte-order mark, as some editors save UTF-8, is not JSON
        raw = json.loads(text.removeprefix("\ufeff"))
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer of more digits than Python converts, or
        # nesting deeper than the decoder recurses
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    raw.update(overrides or {})
    errors: list[str] = []
    try:
        top, sound = _check_shapes(raw, errors)
        inputs = _check_values(top, sound, errors)
    except RecursionError as exc:  # the repr of a value nested just short of that depth
        raise ConfigError([*errors, f"a value nests too deeply to report: {exc}"]) from exc
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        dimension=top["dimension"],
        domain=raw["domain"],
        family=raw["family"],
        measure=raw.get("measure"),
        kernel=raw["kernel"],
        fields=tuple(raw["fields"]),
        p=tuple(float(v) for v in top["p"]),
        resolution=top["resolution"],
        experiments=tuple(top["experiments"]),
        options=raw.get("experiment_options", {}),
        seed=top["seed"],
        output=top["output"],
        inputs=inputs,
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


@contextmanager
def _job(label: str):
    """Turn a floating-point error in the block into a ValueError that names the job."""
    try:
        yield
    except FloatingPointError as exc:
        raise ValueError(f"{label}: {exc}") from None


def run(config: RunConfig, out_dir) -> int:
    """Execute the configured experiments and write artifacts into out_dir.

    When a bound check runs, each field is evaluated once, reduced to its
    rows for every bound check and every p, and freed before the next field
    is evaluated.  The rows are then written in config order: each
    experiment in turn, then field, then p.  Every computation runs before
    any output is written, and the first overflow, invalid value or division
    by zero in it raises a ValueError that names its job (``fields[i]``,
    ``measure_preservation member=i`` or ``necessity_divergence``), then
    numpy's reason.  Underflow is ignored: gaussian tails underflow by design.
    """
    domain, family, operator, fields, opts = config.inputs
    reports, bound_reports, divergence = [], [], None
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        if any(name in _BOUND_EXPERIMENTS for name in config.experiments):
            quad = build_grid_quadrature(domain, config.resolution)
            with_gradients = "sobolev_bound" in config.experiments
            for i, (label, f) in enumerate(fields):
                # the evaluation is a temporary, so one field's arrays are alive at a time
                with _job(f"fields[{i}]"):
                    bound_reports += _bound_reports(
                        evaluate_field(operator, f, quad, gradients=with_gradients), label, config)
        for name in config.experiments:
            if name in _BOUND_EXPERIMENTS:
                reports += [(label, r) for check, label, r in bound_reports if check == name]
            elif name == "gradient_check":
                seed = config.seed + _GRADIENT_SEED_OFFSET
                points = interior_points(domain, opts["gradient_points"], seed,
                                         _gradient_inset(opts))
                for i, (label, f) in enumerate(fields):
                    with _job(f"fields[{i}]"):
                        reports.append((f"gradient_check field={label}", run_gradient_check(
                            operator, f, points, opts["gradient_step"], seed=seed)))
            elif name == "measure_preservation":
                for i in range(min(opts["preservation_members"], len(family))):
                    label = f"measure_preservation member={i}"
                    with _job(label):
                        reports.append((label, run_measure_preservation(
                            family, i, opts["preservation_region"], opts["preservation_samples"],
                            config.seed + _PRESERVATION_SEED_OFFSET + i)))
            else:
                nec = opts["necessity"]
                with _job("necessity_divergence"):
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
    except UnicodeDecodeError as exc:
        print(f"error: {ConfigError([f'not valid UTF-8 at byte {exc.start}: {exc.reason}'])}",
              file=sys.stderr)
        return 2
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
