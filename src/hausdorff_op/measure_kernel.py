"""Discretized parameter measures and kernel weights.

A measure is a finite list of parameter nodes with nonnegative weights; a
kernel is the list of weight-function values on those nodes.  Kernels bound
everything downstream through their discrete L1 norm, so that norm uses the
same deterministic pairwise reduction as the operator itself.

Kernel forms are a fixed whitelist (no expression parser), one row each of
the ``_FORMS`` table: a form's parameter names, its formula and whether
its |phi| is integrable on [0, inf), which the necessity witness's check
reads.  :func:`kernel_form` is the one whitelist check.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import _legendre_rule, _rule_count, gauss_legendre_rule
from .summation import pairwise_sum

EXPLICIT = "explicit"
GAUSS_LEGENDRE = "gauss_legendre"
MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class DiscretizedMeasure:
    """Finite nonnegative measure on a 1-D parameter set.

    ``nodes`` hold parameter values (member indices for group families) and
    ``weights`` the measure of each node.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.weights.ndim != 1:
            raise ValueError("measure nodes and weights must be 1-D arrays")
        if len(self.nodes) != len(self.weights):
            raise ValueError(
                f"{len(self.nodes)} nodes vs {len(self.weights)} weights"
            )
        if len(self.nodes) == 0:
            raise ValueError("measure needs at least one node")
        if not np.all(np.isfinite(self.nodes)) or not np.all(np.isfinite(self.weights)):
            raise ValueError("measure nodes and weights must be finite")
        if np.any(self.weights < 0):
            k = int(np.argmin(self.weights))
            raise ValueError(f"negative weight {self.weights[k]} at node index {k}")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.nodes)


def explicit_measure(nodes, weights) -> DiscretizedMeasure:
    """Measure from caller-supplied nodes and weights."""
    return DiscretizedMeasure(nodes=np.asarray(nodes, dtype=float).copy(),
                              weights=np.asarray(weights, dtype=float).copy())


def gauss_legendre_measure(interval, count: int) -> DiscretizedMeasure:
    """Gauss-Legendre rule on an interval as a measure."""
    lo, hi = float(interval[0]), float(interval[1])
    nodes, weights = gauss_legendre_rule(lo, hi, count)
    return DiscretizedMeasure(nodes=nodes.copy(), weights=weights.copy())


def monte_carlo_measure(interval, count: int, seed: int) -> DiscretizedMeasure:
    """Uniform random nodes on an interval, each weighted by length/count."""
    lo, hi = float(interval[0]), float(interval[1])
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ValueError(f"interval [{lo}, {hi}] is longer than the largest double")
    rng = np.random.default_rng(seed)
    nodes = rng.uniform(lo, hi, size=count)
    weights = np.full(count, (hi - lo) / count)
    return DiscretizedMeasure(nodes=nodes, weights=weights)


def finite_group_uniform_measure(size: int) -> DiscretizedMeasure:
    """Uniform probability on group member indices 0..size-1."""
    if size < 1:
        raise ValueError(f"group size must be >= 1, got {size}")
    return DiscretizedMeasure(nodes=np.arange(size, dtype=float), weights=np.full(size, 1.0 / size))


def gauss_legendre_panels(
    interval, points_per_panel: int = 8, members: range | None = None
) -> DiscretizedMeasure:
    """Composite Gauss-Legendre rule on ``ceil(hi - lo)`` equal panels of
    width at most 1, or the run ``members`` of its nodes.

    Node m is node ``m % points_per_panel`` of panel ``m // points_per_panel``,
    whose edges are ``lo + (hi - lo) * p / count``, so a run of members has
    the bits it has in the whole rule.  Composite panels keep integrands that
    are smooth per unit interval (such as folded shifts) resolvable without a
    huge global rule, and intervals [0, e] with integer e share their panels.
    """
    lo, hi = float(interval[0]), float(interval[1])
    points_per_panel = _rule_count(points_per_panel, lo, hi, name="points_per_panel")
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    count = int(np.ceil(hi - lo))
    size = count * points_per_panel
    if members is None:
        members = range(size)
    if not (members.step == 1 and 0 <= members.start < members.stop <= size):
        raise ValueError(f"members {members} is not a nonempty run of the {size} nodes")
    # the panels that hold the members, and the members' place in their nodes
    first = members.start // points_per_panel
    edges = lo + (hi - lo) * np.arange(first, (members.stop - 1) // points_per_panel + 2) / count
    lower, upper = edges[:-1, None], edges[1:, None]
    if not np.all(upper > lower):
        raise ValueError(f"panel edges of [{lo}, {hi}] collapse at unit width")
    run = slice(members.start - first * points_per_panel, members.stop - first * points_per_panel)
    # the per-panel affine map of gauss_legendre_rule, over the panels at once
    base_nodes, base_weights = _legendre_rule(points_per_panel)
    mid = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    return DiscretizedMeasure(nodes=(mid + half * base_nodes).ravel()[run],
                              weights=(half * base_weights).ravel()[run])


def discretize(spec: dict) -> DiscretizedMeasure:
    """Build a measure from a scheme spec dict.

    Accepts ``{"scheme": "gauss_legendre", "interval": [a, b], "count": N}``,
    ``{"scheme": "monte_carlo", "interval": [a, b], "count": N, "seed": s}``
    and ``{"scheme": "explicit", "nodes": [...], "weights": [...]}``.
    """
    if "scheme" not in spec:
        raise ValueError("measure spec needs a 'scheme' key")
    scheme = spec["scheme"]
    known = {GAUSS_LEGENDRE, MONTE_CARLO, EXPLICIT}
    if scheme not in known:
        raise ValueError(f"unknown measure scheme {scheme!r}, expected one of {sorted(known)}")
    if scheme == GAUSS_LEGENDRE:
        return gauss_legendre_measure(spec["interval"], spec["count"])
    if scheme == MONTE_CARLO:
        return monte_carlo_measure(spec["interval"], spec["count"], spec["seed"])
    return explicit_measure(spec["nodes"], spec["weights"])


# kernel forms


class _Form(NamedTuple):
    params: tuple[str, ...]
    phi: Callable  # phi(u, *params)
    integrable: Callable  # integrable(*params): whether |phi| has a finite integral on [0, inf)


_FORMS = {
    "exp_decay": _Form(("a",), lambda u, a: np.exp(-a * u), lambda a: True),
    "power": _Form(("a",), lambda u, a: (1.0 + np.abs(u)) ** (-a), lambda a: a > 1.0),
    "constant": _Form(("c",), lambda u, c: np.full_like(u, c), lambda c: c == 0.0),
    "indicator": _Form(("lo", "hi"), lambda u, lo, hi: np.where((u >= lo) & (u <= hi), 1.0, 0.0),
                       lambda lo, hi: True),
}
KERNEL_FORM_NAMES = tuple(_FORMS)


@dataclass(frozen=True)
class KernelForm:
    """A whitelisted kernel shape with frozen parameters, in the order of its ``_FORMS`` row."""

    name: str
    params: tuple[tuple[str, float], ...]

    def __call__(self, u) -> np.ndarray:
        return _FORMS[self.name].phi(np.asarray(u, dtype=float), *(v for _, v in self.params))

    @property
    def description(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.name}({inner})"

    @property
    def integrable_on_halfline(self) -> bool:
        """Whether the |form| integral over [0, inf) is finite."""
        return _FORMS[self.name].integrable(*(v for _, v in self.params))


def kernel_form(name: str, **params: float) -> KernelForm:
    """Validated constructor for the whitelisted kernel forms."""
    # a tuple, so that a name that is a list or a dict is unknown, not unhashable
    if name not in KERNEL_FORM_NAMES:
        raise ValueError(f"unknown kernel form {name!r}, expected one of {KERNEL_FORM_NAMES}")
    keys = _FORMS[name].params
    if set(params) != set(keys):
        raise ValueError(
            f"kernel form {name!r} takes parameters {keys}, got {tuple(sorted(params))}"
        )
    for key in keys:
        if not np.isfinite(params[key]):
            raise ValueError(f"kernel form {name!r} needs a finite {key}, got {key}={params[key]}")
    if "a" in params and params["a"] <= 0:
        raise ValueError(f"kernel form {name!r} needs a > 0, got a={params['a']}")
    if "hi" in params and not params["hi"] > params["lo"]:
        raise ValueError(f"indicator needs hi > lo, got lo={params['lo']} hi={params['hi']}")
    return KernelForm(name=name, params=tuple((k, float(params[k])) for k in keys))


@dataclass(frozen=True)
class Kernel:
    """Kernel values aligned with a measure's nodes."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 1:
            raise ValueError("kernel values must be a 1-D array")
        if len(self.values) == 0:
            raise ValueError("kernel needs at least one value")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("kernel values must be finite")
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


def kernel_from_values(values) -> Kernel:
    return Kernel(values=np.asarray(values, dtype=float).copy())


def kernel_on_measure(form: KernelForm, measure: DiscretizedMeasure) -> Kernel:
    """Evaluate a whitelisted form on a measure's nodes.

    Raises ValueError naming the form and the first node where it is not
    finite (exp_decay overflows far left of 0), without a numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = form(measure.nodes)
    if not np.all(np.isfinite(values)):
        node = float(measure.nodes[np.argmin(np.isfinite(values))])
        raise ValueError(f"kernel {form.description} is not finite at measure node {node!r}")
    return Kernel(values=values)


def kernel_l1_norm(kernel: Kernel, measure: DiscretizedMeasure) -> float:
    """Discrete L1 norm: sum of |value| * weight in pairwise order.

    Homogeneous of degree 1 in the kernel and monotone in truncation.
    """
    if len(kernel) != len(measure):
        raise ValueError(
            f"kernel has {len(kernel)} values but measure has {len(measure)} nodes"
        )
    return float(pairwise_sum(np.abs(kernel.values) * measure.weights))
