import copy
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff_op import cli
from hausdorff_op.cli import (
    EXPERIMENT_NAMES,
    MAX_GRID_NODES,
    MAX_LEGENDRE_NODES,
    MAX_PRESERVATION_SAMPLES,
    ConfigError,
    main,
    parse_config,
    run,
)
from hausdorff_op.experiments import evaluate_field, run_lp_bound, run_sobolev_bound
from hausdorff_op.geometry import MAX_BALL_DRAWS, build_grid_quadrature
from hausdorff_op.field import MAX_POLYNOMIAL_COEFFS
from hausdorff_op.isometry import GROUP_SIZE_CAP, STACK_ENTRIES_CAP
from hausdorff_op.measure_kernel import KERNEL_FORM_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def _minimal_config(**overrides):
    config = {
        "dimension": 1,
        "domain": {"shape": "box", "lower": [0.0], "upper": [1.0]},
        "family": {"kind": "motions", "members": [{"matrix": [[1.0]]}]},
        "measure": {"scheme": "explicit", "nodes": [0.0], "weights": [1.0]},
        "kernel": {"name": "constant", "c": 1.0},
        "fields": [{"kind": "polynomial", "coeffs": [0.0, 1.0]}],
        "experiments": ["lp_bound"],
    }
    config.update(overrides)
    return config


def _cube_config(halfwidth):
    """A gaussian on the 3-D box [-halfwidth, halfwidth]^3, under the identity."""
    return {
        "dimension": 3,
        "domain": {"shape": "box", "lower": [-halfwidth] * 3, "upper": [halfwidth] * 3},
        "family": {"kind": "motions", "members": [
            {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}]},
        "measure": {"scheme": "explicit", "nodes": [0.0], "weights": [1.0]},
        "kernel": {"name": "constant", "c": 1.0},
        "fields": [{"kind": "gaussian", "center": [0.0] * 3, "width": 1.0}],
        "experiments": ["lp_bound"],
    }


def _read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# parsing


def test_minimal_config_parses_with_defaults():
    config = parse_config(json.dumps(_minimal_config()))
    assert config.dimension == 1
    assert config.p == (1.0,)
    assert config.resolution == 64
    assert config.seed == 0
    assert config.output is None
    assert config.experiments == ("lp_bound",)


def test_minimal_config_runs_clean(tmp_path):
    config = parse_config(json.dumps(_minimal_config()))
    assert run(config, tmp_path) == 0
    rows = _read_rows(tmp_path / "results.csv")
    assert len(rows) == 1
    assert rows[0]["experiment"] == "lp_bound"
    assert rows[0]["passed"] == "true"
    assert "PASS" in (tmp_path / "summary.txt").read_text()


def test_family_measure_count_mismatch_is_one_error():
    config = _minimal_config(
        dimension=2,
        domain={"shape": "ball", "center": [0.0, 0.0], "radius": 3.0},
        family={"kind": "rotations_haar", "count": 64, "seed": 1},
        measure={"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 32},
        fields=[{"kind": "gaussian", "center": [0.0, 0.0], "width": 0.5}],
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [
        "measure has 32 nodes but the family has 64 members"
    ]


def test_unknown_kernel_lists_whitelist():
    config = _minimal_config(kernel={"name": "gauss"})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    (message,) = exc.value.errors
    assert message == f"kernel: name must be one of {list(KERNEL_FORM_NAMES)}, got 'gauss'"
    for name in ("exp_decay", "power", "constant", "indicator"):
        assert name in message


def test_kernel_name_that_is_a_list_lists_whitelist():
    # the walk tests a tag's type first, so an unhashable name is unknown, not a TypeError
    config = _minimal_config(kernel={"name": ["power"], "a": 1.0})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [
        f"kernel: name must be one of {list(KERNEL_FORM_NAMES)}, got ['power']"
    ]


def test_bad_kernel_parameters_are_named():
    for where, config in (
        ("kernel", _minimal_config(kernel={"name": "indicator", "lo": "0", "hi": True})),
        ("experiment_options.necessity.kernel",
         _necessity_config(kernel={"name": "indicator", "lo": 0.0, "hi": "1"})),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(config))
        bad = ("lo", "hi") if where == "kernel" else ("hi",)
        assert exc.value.errors == [f"{where}: {key} must be a number" for key in bad]


def test_all_violations_are_collected():
    config = _minimal_config(
        dimension=2,
        domain={"shape": "pyramid"},
        family={"kind": "spirals"},
        measure={"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 4},
        kernel={"name": "gauss"},
        fields=[{"kind": "fourier"}],
        p=[0.5],
    )
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert len(exc.value.errors) == 5
    assert "config invalid (5 error(s))" in str(exc.value)


_ORDERED_ERRORS = {
    # a rule's place is after every shape error: the option caps follow the
    # shapes of the other options
    "options": ({"experiment_options": {
        "gradient_points": 10**9, "preservation_members": 0, "gradient_step": -1}}, [
        "experiment_options: preservation_members must be an integer >= 1",
        "experiment_options: gradient_step must be a positive number",
        "experiment_options: gradient_points 1000000000 exceeds the cap of 4194304",
    ]),
    # the family's rules come before the measure's, in build order
    "measure": ({
        "domain": {"shape": "truncated_space", "halfwidth": 8.0},
        "family": {"kind": "shifts", "from_measure": "yes", "fold": 1},
        "measure": {"scheme": "monte_carlo", "interval": [0.0, 1.0], "count": 2 * 10**6,
                    "seed": -1}}, [
        "family: fold must be a boolean",
        "measure: seed must be an integer >= 0",
        "family: shifts need either offsets or from_measure = true",
        "measure: count 2000000 exceeds the family size cap of 1000000",
    ]),
    # a Haar family whose count fails is still walked to its seed
    "haar": ({"family": {"kind": "rotations_haar", "count": 0, "seed": -1}}, [
        "family: count must be an integer in [1, 1000000]",
        "family: seed must be an integer >= 0",
    ]),
    # a truncated region is walked to every key before it is refused
    "region": ({"experiment_options": {"preservation_region": {
        "shape": "truncated_space", "halfwidth": "x", "y": 1}}}, [
        "experiment_options.preservation_region: unknown key(s) ['y'], allowed: "
        "['halfwidth', 'shape']",
        "experiment_options.preservation_region: halfwidth must be a number",
        "experiment_options.preservation_region: must be a bounded ball or box",
    ]),
    # a sub-node is walked in its key's place in its parent's table; rules on
    # a tag come after every shape, and a truncated region is walked to its
    # unknown keys
    "tags": ({
        "dimension": 2,
        "domain": {"shape": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "family": {"kind": "shifts", "offsets": [0.0], "x": 1},
        "fields": [{"kind": "gaussian", "center": [0.0, 0.0], "width": 1.0}],
        "experiment_options": {
            "preservation_region": {"shape": "truncated_space", "halfwidth": 1.0, "x": 1},
            "necessity": {"kernel": {"name": "power", "a": "1"}, "x0": "0"}}}, [
        "family: unknown key(s) ['x'], allowed: ['fold', 'from_measure', 'kind', 'offsets']",
        "experiment_options.preservation_region: unknown key(s) ['x'], allowed: "
        "['halfwidth', 'shape']",
        "experiment_options.necessity.kernel: a must be a number",
        "experiment_options.necessity: x0 must be a number",
        "family: shifts need dimension 1",
        "experiment_options.preservation_region: must be a bounded ball or box",
    ]),
}


@pytest.mark.parametrize("name", sorted(_ORDERED_ERRORS))
def test_rules_keep_their_place_among_the_shape_errors(name):
    overrides, errors = _ORDERED_ERRORS[name]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(_minimal_config(**overrides)))
    assert exc.value.errors == errors


def test_value_errors_follow_the_shape_errors():
    # a value error shows once the shapes it reads pass, whatever fails elsewhere
    config = _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": -1.0},
                             fields=[{"kind": "gaussian", "center": [0.0]}])
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == ["fields[0]: missing required key 'width'",
                                "domain: radius must be finite and > 0, got -1.0"]
    config["fields"][0]["width"] = 1.0
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == ["domain: radius must be finite and > 0, got -1.0"]


def test_a_huge_motion_entry_is_refused_without_a_warning(recwarn):
    # V^T V overflows to an inf defect, which fails the orthogonality check
    config = _minimal_config(family={"kind": "motions", "members": [{"matrix": [[1e308]]}]})
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [
        "family member 0 is not orthogonal: max |V^T V - I| = inf exceeds 1e-12"]
    assert not recwarn.list


@pytest.mark.parametrize("node, tag, kinds", [
    ("domain", "shape", ["ball", "box", "truncated_space"]),
    ("family", "kind", ["rotations_haar", "finite_group", "shifts", "motions"]),
    ("measure", "scheme", ["explicit", "gauss_legendre", "monte_carlo"]),
])
def test_a_tag_that_is_a_list_lists_the_kinds(node, tag, kinds):
    # a list is unhashable: the walk reports it and raises no TypeError
    config = _minimal_config()
    config[node] = {**config[node], tag: ["x"]}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [f"{node}: {tag} must be one of {kinds}, got ['x']"]


def test_defaults_are_copies():
    # a run that changes its options leaves the next parse's defaults alone
    text = json.dumps(_minimal_config(experiments=["necessity_divergence"]))
    endpoints = parse_config(text).inputs.options["necessity"]["endpoints"]
    endpoints.append(1e5)
    assert parse_config(text).inputs.options["necessity"]["endpoints"] == [
        10.0, 100.0, 1000.0, 10000.0]


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['verbose'\]"):
        parse_config(json.dumps(_minimal_config(verbose=True)))


def test_invalid_json_is_reported():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        parse_config("[]")


def test_bad_dimension_short_circuits():
    with pytest.raises(ConfigError, match="dimension must be an integer >= 1"):
        parse_config(json.dumps(_minimal_config(dimension=0)))


def test_finite_group_family_owns_its_measure():
    config = _minimal_config(
        domain={"shape": "box", "lower": [-1.0], "upper": [1.0]},
        family={"kind": "finite_group", "group": "sign_flips"},
    )
    with pytest.raises(ConfigError, match="carries its own uniform measure"):
        parse_config(json.dumps(config))
    del config["measure"]
    parsed = parse_config(json.dumps(config))
    assert parsed.measure is None


def test_only_a_finite_group_may_omit_the_measure():
    # a value rule of pass two: after every shape error, before the p range
    message = "missing required key 'measure' (only finite_group families omit it)"
    config = _minimal_config()
    del config["measure"]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [message]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({**config, "p": [0.5], "kernel": {"name": "constant", "c": "x"}}))
    assert exc.value.errors == ["kernel: c must be a number", message,
                                "p values must lie in [1, 16], got [0.5]"]


@pytest.mark.parametrize("measure", [[1], "x", 3])
def test_finite_group_rejects_non_object_measure(measure):
    config = _minimal_config(
        family={"kind": "finite_group", "group": "sign_flips"}, measure=measure,
    )
    with pytest.raises(ConfigError, match="carries its own uniform measure"):
        parse_config(json.dumps(config))


@pytest.mark.parametrize("bad", [
    "Infinity", "-Infinity", "NaN", pytest.param("1" + "0" * 400, id="10**400"), '"1"', "true",
])
def test_non_finite_coefficients_rejected(bad):
    # json.loads accepts these non-standard literals, and an int past the
    # double range; numpy would turn a string or a boolean into a number
    text = json.dumps(_minimal_config()).replace("[0.0, 1.0]", f"[0.0, {bad}]")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == ["fields[0]: coeffs must be a (nested) list of numbers"]


_HUGE = 10**400

# (config with an int past the double range in one number field, its one error)
_HUGE_NUMBERS = {
    "domain.radius": (
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": _HUGE}),
        "domain: radius must be a number",
    ),
    "domain.upper": (
        _minimal_config(domain={"shape": "box", "lower": [0.0], "upper": [_HUGE]}),
        "domain: upper must be a list of 1 numbers",
    ),
    "measure.interval": (
        _minimal_config(
            domain={"shape": "truncated_space", "halfwidth": 8.0},
            family={"kind": "shifts", "from_measure": True},
            measure={"scheme": "monte_carlo", "interval": [-_HUGE, 1.0], "count": 4},
        ),
        "measure: interval must be a list of 2 numbers",
    ),
    "measure.weights": (
        _minimal_config(measure={"scheme": "explicit", "nodes": [0.0], "weights": [_HUGE]}),
        "measure: weights must be a list of numbers",
    ),
    "kernel": (
        _minimal_config(kernel={"name": "constant", "c": _HUGE}),
        "kernel: c must be a number",
    ),
    "fields.center": (
        _minimal_config(fields=[{"kind": "gaussian", "center": [-_HUGE], "width": 1.0}]),
        "fields[0]: center must be a list of 1 numbers",
    ),
    "p": (_minimal_config(p=[1.0, _HUGE]), "p must be a nonempty list of numbers"),
    "gradient_step": (
        _minimal_config(experiments=["gradient_check"],
                        experiment_options={"gradient_step": _HUGE}),
        "experiment_options: gradient_step must be a positive number",
    ),
    "necessity.endpoints": (
        _minimal_config(experiments=["necessity_divergence"],
                        experiment_options={"necessity": {"endpoints": [1.0, _HUGE]}}),
        "experiment_options.necessity: endpoints must be a list of numbers",
    ),
    "necessity.x0": (
        _minimal_config(experiments=["necessity_divergence"],
                        experiment_options={"necessity": {"x0": -_HUGE}}),
        "experiment_options.necessity: x0 must be a number",
    ),
    "motions.matrix": (
        _minimal_config(family={"kind": "motions", "members": [{"matrix": [[_HUGE]]}]}),
        "family.members[0]: matrix must be a list of 1 rows of 1 numbers",
    ),
    "motions.offset": (
        _minimal_config(family={"kind": "motions",
                                "members": [{"matrix": [[1.0]], "offset": [_HUGE]}]}),
        "family.members[0]: offset must be a list of 1 numbers",
    ),
    "shifts.offsets": (
        _minimal_config(domain={"shape": "truncated_space", "halfwidth": 2.0},
                        family={"kind": "shifts", "offsets": [_HUGE]}),
        "family: offsets must be a nonempty list of numbers",
    ),
}


@pytest.mark.parametrize("name", sorted(_HUGE_NUMBERS))
def test_ints_past_the_double_range_are_rejected(tmp_path, capsys, name):
    # math.isfinite would raise OverflowError on such an int
    config, message = _HUGE_NUMBERS[name]
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [message]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiments", [
    ["necessity_divergence"], ["lp_bound"], ["measure_preservation"]])
def test_non_orthogonal_motions_are_config_errors(tmp_path, capsys, experiments):
    # a shear has the right shape; whichever experiments run, parsing refuses it
    config = _minimal_config(
        dimension=2,
        domain={"shape": "ball", "center": [0.0, 0.0], "radius": 1.0},
        family={"kind": "motions", "members": [
            {"matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            {"matrix": [[1.0, 0.001], [0.0, 1.0]], "offset": [0.0, 0.0]}]},
        measure={"scheme": "explicit", "nodes": [0.0, 1.0], "weights": [0.5, 0.5]},
        fields=[{"kind": "gaussian", "center": [0.0, 0.0], "width": 0.5}],
        experiments=experiments,
    )
    message = "family member 1 is not orthogonal: max |V^T V - I| = 1.000e-03 exceeds 1e-12"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [message]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_huge_dimension_skips_the_ball_draw_estimate():
    # the center does not hold n numbers, so no ball is built to estimate on
    config = {**_minimal_config(experiments=["gradient_check"]), "dimension": _HUGE,
              "domain": {"shape": "ball", "center": [0.0], "radius": 1.0}}
    with pytest.raises(ConfigError, match=f"resolution 64 in dimension {_HUGE} gives more than"):
        parse_config(json.dumps(config))


@pytest.mark.parametrize("where, message", [
    ({"seed": -5}, "seed must be an integer >= 0"),
    ({"family": {"kind": "rotations_haar", "count": 4, "seed": -1}},
     "family: seed must be an integer >= 0"),
    ({"measure": {"scheme": "monte_carlo", "interval": [0.0, 1.0], "count": 4, "seed": -1}},
     "measure: seed must be an integer >= 0"),
], ids=["seed", "family.seed", "measure.seed"])
def test_negative_seeds_are_rejected(where, message):
    config = _minimal_config(
        dimension=2,
        domain={"shape": "ball", "center": [0.0, 0.0], "radius": 3.0},
        family={"kind": "rotations_haar", "count": 4, "seed": 1},
        measure={"scheme": "monte_carlo", "interval": [0.0, 1.0], "count": 4},
        fields=[{"kind": "gaussian", "center": [0.0, 0.0], "width": 0.5}],
    )
    assert parse_config(json.dumps(config)).seed == 0
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({**config, **where}))
    assert exc.value.errors == [message]


def test_main_negative_seed_override_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_minimal_config()))
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_size_is_capped():
    at_cap = _minimal_config(dimension=2, resolution=2048,
                             domain={"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                             family={"kind": "finite_group", "group": "sign_flips"},
                             fields=[{"kind": "gaussian", "center": [0.0, 0.0], "width": 1.0}])
    del at_cap["measure"]
    assert parse_config(json.dumps(at_cap)).resolution == 2048
    with pytest.raises(ConfigError, match="resolution 2049 in dimension 2 gives more than"):
        parse_config(json.dumps({**at_cap, "resolution": 2049}))
    huge = {**at_cap, "dimension": 10**6}
    with pytest.raises(ConfigError, match=f"in dimension {10**6} gives more than"):
        parse_config(json.dumps(huge))
    # no grid is built without a bound or gradient experiment
    parse_config(json.dumps({**at_cap, "resolution": 10**6,
                             "experiments": ["measure_preservation"]}))


def test_haar_count_is_capped():
    config = _minimal_config(family={"kind": "rotations_haar", "count": 10**6 + 1})
    with pytest.raises(ConfigError, match=r"count must be an integer in \[1, 1000000\]"):
        parse_config(json.dumps(config))


def _haar_config(dimension, count):
    """A Haar family of ``count`` members in ``dimension``, with a measure to match."""
    return _minimal_config(
        dimension=dimension,
        domain={"shape": "truncated_space", "halfwidth": 2.0},
        family={"kind": "rotations_haar", "count": count},
        measure={"scheme": "monte_carlo", "interval": [0.0, 1.0], "count": count},
        fields=[{"kind": "gaussian", "center": [0.0] * dimension, "width": 1.0}],
        experiments=["measure_preservation"],
    )


def test_a_haar_stack_past_its_cap_exits_2_at_once(tmp_path, capsys):
    # 10^6 draws of 100 x 100 matrices would ask for 10^10 normals, 80 GB
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_haar_config(100, GROUP_SIZE_CAP)))
    start = time.perf_counter()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 0.05
    assert "make 10000000000 matrix entries" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _group_config(group, dimension, **family):
    # a 3-D field: only the dimension-3 config is meant to parse
    config = _minimal_config(
        dimension=dimension,
        domain={"shape": "truncated_space", "halfwidth": 2.0},
        family={"kind": "finite_group", "group": group, **family},
        fields=[{"kind": "polynomial", "coeffs": [[[1.0]]]}],
        experiments=["measure_preservation"],
    )
    del config["measure"]  # a finite group carries its own
    return config


@pytest.mark.parametrize("group, dimension, members", [
    ("signed_permutations", 8, 10_321_920),
    ("sign_flips", 20, 1_048_576),
])
def test_oversized_finite_group_rejected_at_parse_time(group, dimension, members):
    config = _group_config(group, dimension)
    assert members > GROUP_SIZE_CAP
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert (f"family: {group} in dimension {dimension} exceeds the group size cap "
            f"of {GROUP_SIZE_CAP} members") in exc.value.errors


def test_huge_group_dimension_is_rejected_at_once():
    small = _group_config("signed_permutations", 3)
    assert parse_config(json.dumps(small)).dimension == 3  # 48 members
    huge = json.dumps({**small, "dimension": 300_000})
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="signed_permutations in dimension 300000 exceeds"):
        parse_config(huge)
    assert time.perf_counter() - start < 0.1


def _necessity_config(**necessity):
    return _minimal_config(experiments=["necessity_divergence"],
                           experiment_options={"necessity": necessity})


def test_necessity_witness_is_capped_at_parse_time():
    # the default witness: 8 nodes per unit panel up to 10, 100, 1000, 10000
    assert parse_config(json.dumps(_minimal_config(experiments=["necessity_divergence"])))
    parse_config(json.dumps(_necessity_config(endpoints=[10.0, 100.0, 1000.0, 10000.0],
                                              points_per_panel=8)))
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(_necessity_config(endpoints=[10, 1e12])))
    assert exc.value.errors == [
        "experiment_options.necessity: endpoints [10.0, 1000000000000.0] with "
        "points_per_panel 8 give 8000000000080 witness members, more than the cap "
        f"of {GROUP_SIZE_CAP}"
    ]
    # 25,000 + 100,000 unit panels of 8 nodes is exactly the cap; a fraction
    # of a panel more adds a whole one
    parse_config(json.dumps(_necessity_config(endpoints=[25_000, 100_000])))
    with pytest.raises(ConfigError, match="1000008 witness members"):
        parse_config(json.dumps(_necessity_config(endpoints=[25_000, 100_000.5])))


def _shift_measure_config(scheme, count):
    return _minimal_config(
        domain={"shape": "truncated_space", "halfwidth": 8.0},
        family={"kind": "shifts", "from_measure": True},
        measure={"scheme": scheme, "interval": [0.0, 1.0], "count": count},
    )


def _preservation_config(samples):
    return _minimal_config(experiments=["measure_preservation"],
                           experiment_options={"preservation_samples": samples})


def _ball_gradient_config(dimension, **options):
    config = _minimal_config(
        dimension=dimension,
        domain={"shape": "ball", "center": [0.0] * dimension, "radius": 1.0},
        family={"kind": "finite_group", "group": "sign_flips"},
        fields=[{"kind": "gaussian", "center": [0.0] * dimension, "width": 1.0}],
        experiments=["gradient_check"],
        resolution=2,
        experiment_options=options,
    )
    del config["measure"]  # a finite group carries its own
    return config


def _gradient_inset_config(domain, **options):
    return {**_ball_gradient_config(2, **options), "domain": domain}


_BALL3 = {"shape": "ball", "center": [0.0, 0.0], "radius": 3.0}
_BOX_1_BY_4 = {"shape": "box", "lower": [-0.5, -2.0], "upper": [0.5, 2.0]}
_WINDOW_2 = {"shape": "truncated_space", "halfwidth": 2.0}


_WIDTH_RULE = "width must be finite and > 0 with a finite nonzero square"


def _inset_message(margin, step, reason):
    return (f"experiment_options: gradient_margin {margin} and gradient_step {step} leave no "
            f"gradient points: {reason}")


def _wide_box_config(width):
    """A gaussian of the given width at 0 on the box [0, 1e10]."""
    return _minimal_config(domain={"shape": "box", "lower": [0.0], "upper": [1e10]},
                           fields=[{"kind": "gaussian", "center": [0.0], "width": width}])


def _shifted_window_config(offset):
    return _minimal_config(domain={"shape": "truncated_space", "halfwidth": 2.0},
                           family={"kind": "shifts", "offsets": [offset]},
                           fields=[{"kind": "gaussian_times_poly", "center": [0.0], "width": 1.0,
                                    "coeffs": [1.0]}])


# (config at the cap, the same one step past it, the message past it)
_CAPPED_INPUTS = {
    # a 16-D ball takes 3.59e-6 of its bounding-box draws: 35 points expect
    # 9.75e6 draws, 36 expect 1.0025e7
    "ball_gradient_points": (
        _ball_gradient_config(16, gradient_points=35),
        _ball_gradient_config(16, gradient_points=36),
        "experiment_options: gradient_points: a uniform sample of size 36 from a ball in "
        "dimension 16 expects 1.00e7 rejection-sampling draws, more than the cap of "
        f"{MAX_BALL_DRAWS}",
    ),
    # a box samples without rejection; the points, their gradients and
    # differences are (count, n) arrays
    "box_gradient_points": (
        _minimal_config(experiments=["gradient_check"],
                        experiment_options={"gradient_points": MAX_GRID_NODES}),
        _minimal_config(experiments=["gradient_check"],
                        experiment_options={"gradient_points": MAX_GRID_NODES + 1}),
        f"experiment_options: gradient_points {MAX_GRID_NODES + 1} exceeds the cap of "
        f"{MAX_GRID_NODES}",
    ),
    "resolution": (
        _minimal_config(resolution=MAX_LEGENDRE_NODES),
        _minimal_config(resolution=MAX_LEGENDRE_NODES + 1),
        f"resolution {MAX_LEGENDRE_NODES + 1} asks for a Gauss-Legendre rule of more "
        f"than {MAX_LEGENDRE_NODES} nodes",
    ),
    "gauss_legendre_count": (
        _shift_measure_config("gauss_legendre", MAX_LEGENDRE_NODES),
        _shift_measure_config("gauss_legendre", MAX_LEGENDRE_NODES + 1),
        f"measure: count {MAX_LEGENDRE_NODES + 1} asks for a Gauss-Legendre rule of "
        f"more than {MAX_LEGENDRE_NODES} nodes",
    ),
    "points_per_panel": (
        _necessity_config(endpoints=[1.0, 2.0], points_per_panel=MAX_LEGENDRE_NODES),
        _necessity_config(endpoints=[1.0, 2.0], points_per_panel=MAX_LEGENDRE_NODES + 1),
        f"experiment_options.necessity: points_per_panel {MAX_LEGENDRE_NODES + 1} asks "
        f"for a Gauss-Legendre rule of more than {MAX_LEGENDRE_NODES} nodes",
    ),
    "monte_carlo_count": (
        _shift_measure_config("monte_carlo", GROUP_SIZE_CAP),
        _shift_measure_config("monte_carlo", GROUP_SIZE_CAP + 1),
        f"measure: count {GROUP_SIZE_CAP + 1} exceeds the family size cap of "
        f"{GROUP_SIZE_CAP}",
    ),
    # the gradient points lie the margin inside the domain, and the check
    # refuses those within twice the step of its boundary: the inradius is the
    # radius of a ball, half the smallest extent of a box, a window's halfwidth
    "gradient_margin_ball": (
        _gradient_inset_config(_BALL3, gradient_margin=2.99),
        _gradient_inset_config(_BALL3, gradient_margin=5),
        _inset_message(5, 1e-05, "margin 5.0 swallows ball of radius 3.0"),
    ),
    "gradient_step_ball": (
        _gradient_inset_config(_BALL3, gradient_step=1.49),
        _gradient_inset_config(_BALL3, gradient_step=2.0),
        _inset_message(0.05, 2.0, "margin 4.0 swallows ball of radius 3.0"),
    ),
    "gradient_margin_box": (
        _gradient_inset_config(_BOX_1_BY_4, gradient_margin=0.49),
        _gradient_inset_config(_BOX_1_BY_4, gradient_margin=0.5),
        _inset_message(0.5, 1e-05, "margin 0.5 swallows box with extents [1. 4.]"),
    ),
    "gradient_step_window": (
        _gradient_inset_config(_WINDOW_2, gradient_step=0.99),
        _gradient_inset_config(_WINDOW_2, gradient_step=1.0),
        _inset_message(0.05, 1.0, "margin 2.0 swallows box with extents [4. 4.]"),
    ),
    "preservation_samples": (
        _preservation_config(MAX_PRESERVATION_SAMPLES),
        _preservation_config(MAX_PRESERVATION_SAMPLES + 1),
        f"experiment_options: preservation_samples {MAX_PRESERVATION_SAMPLES + 1} "
        f"exceeds the cap of {MAX_PRESERVATION_SAMPLES} per member",
    ),
    # a necessity witness must not be integrable on [0, inf): power(a) is
    # integrable for a > 1, exp_decay always
    "necessity_power_kernel": (
        _necessity_config(kernel={"name": "power", "a": 1.0}),
        _necessity_config(kernel={"name": "power", "a": 2.0}),
        "experiment_options.necessity: kernel form power(a=2) has a finite L1 norm on "
        "[0, inf) and is not a necessity witness",
    ),
    "necessity_exp_decay_kernel": (
        # an integrable kernel is no error where no necessity check runs
        {**_necessity_config(kernel={"name": "exp_decay", "a": 1.0}),
         "experiments": ["lp_bound"]},
        _necessity_config(kernel={"name": "exp_decay", "a": 1.0}),
        "experiment_options.necessity: kernel form exp_decay(a=1) has a finite L1 norm "
        "on [0, inf) and is not a necessity witness",
    ),
    # the witness's lower bound exp(-2 (x0^2 + 1)) is a positive double up to
    # |x0| = 19.276; past it the growth factor would be 0 / 0
    "necessity_x0": (
        _necessity_config(x0=19),
        _necessity_config(x0=20),
        "experiment_options.necessity: x0 20 makes the lower bound exp(-2 (x0^2 + 1)) "
        "underflow to 0; |x0| may be at most about 19.27",
    ),
    "necessity_x0_far": (
        _necessity_config(x0=-19.27),
        _necessity_config(x0=30.0),
        "experiment_options.necessity: x0 30.0 makes the lower bound exp(-2 (x0^2 + 1)) "
        "underflow to 0; |x0| may be at most about 19.27",
    ),
    # spans past the double range: the grid, the samplers and shrink all
    # work with upper - lower, and a gaussian divides by its width squared;
    # the size check caps a 1-D span at sqrt(max double), 1.34e154
    "ball_span": (
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": 5e153}),
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": 1e308}),
        "domain: its volume or n * extent^2 exceeds the double range",
    ),
    "box_span": (
        _minimal_config(domain={"shape": "box", "lower": [-5e153], "upper": [5e153]}),
        _minimal_config(domain={"shape": "box", "lower": [-1e308], "upper": [1e308]}),
        "domain: its volume or n * extent^2 exceeds the double range",
    ),
    "window_span": (
        _minimal_config(domain={"shape": "truncated_space", "halfwidth": 5e153}),
        _minimal_config(domain={"shape": "truncated_space", "halfwidth": 1e308}),
        "domain: its volume or n * extent^2 exceeds the double range",
    ),
    # a corner of the region's bounding box is past the double range
    "preservation_region_span": (
        _minimal_config(experiments=["measure_preservation"], experiment_options={
            "preservation_region": {"shape": "ball", "center": [5e153], "radius": 5e153}}),
        _minimal_config(experiments=["measure_preservation"], experiment_options={
            "preservation_region": {"shape": "ball", "center": [1e308], "radius": 8e307}}),
        "experiment_options.preservation_region: its volume or n * extent^2 exceeds "
        "the double range",
    ),
    # sizes past the double range: the grid weights multiply up to the
    # volume, and squared distances over the window reach n * extent^2
    "squared_extent": (
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": 5e153}),
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": 1e154}),
        "domain: its volume or n * extent^2 exceeds the double range",
    ),
    "volume": (
        _cube_config(2e102),
        _cube_config(3e102),
        "domain: its volume or n * extent^2 exceeds the double range",
    ),
    "preservation_region_squared_extent": (
        _minimal_config(experiments=["measure_preservation"], experiment_options={
            "preservation_region": {"shape": "box", "lower": [-5e153], "upper": [5e153]}}),
        _minimal_config(experiments=["measure_preservation"], experiment_options={
            "preservation_region": {"shape": "box", "lower": [-1e154], "upper": [1e154]}}),
        "experiment_options.preservation_region: its volume or n * extent^2 exceeds "
        "the double range",
    ),
    "monte_carlo_interval": (
        {**_shift_measure_config("monte_carlo", 4), "measure": {
            "scheme": "monte_carlo", "interval": [-8e307, 8e307], "count": 4}},
        {**_shift_measure_config("monte_carlo", 4), "measure": {
            "scheme": "monte_carlo", "interval": [-1e308, 1e308], "count": 4}},
        "measure: interval [-1e+308, 1e+308] is longer than the largest double",
    ),
    "gaussian_width_small": (
        _minimal_config(fields=[{"kind": "gaussian", "center": [0.0], "width": 1e-154}]),
        _minimal_config(fields=[{"kind": "gaussian", "center": [0.0], "width": 1e-300}]),
        f"fields[0]: {_WIDTH_RULE}, got 1e-300",
    ),
    "gaussian_width_large": (
        _minimal_config(fields=[{"kind": "gaussian", "center": [0.0], "width": 1e154}]),
        _minimal_config(fields=[{"kind": "gaussian", "center": [0.0], "width": 1e155}]),
        f"fields[0]: {_WIDTH_RULE}, got 1e+155",
    ),
    # every value rule is its library constructor's, reported under the node
    "ball_radius": (
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": 1e-300}),
        _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": 0}),
        "domain: radius must be finite and > 0, got 0",
    ),
    "box_corners": (
        _minimal_config(domain={"shape": "box", "lower": [0.0], "upper": [1e-300]}),
        _minimal_config(domain={"shape": "box", "lower": [0.0], "upper": [0.0]}),
        "domain: box needs upper > lower componentwise",
    ),
    "window_halfwidth": (
        _minimal_config(domain={"shape": "truncated_space", "halfwidth": 1e-300}),
        _minimal_config(domain={"shape": "truncated_space", "halfwidth": 0}),
        "domain: halfwidth must be finite and > 0, got 0",
    ),
    "gaussian_width_zero": (
        _minimal_config(fields=[{"kind": "gaussian", "center": [0.0], "width": 1.0}]),
        _minimal_config(fields=[{"kind": "gaussian", "center": [0.0], "width": 0}]),
        f"fields[0]: {_WIDTH_RULE}, got 0",
    ),
    "negative_weight": (
        _minimal_config(measure={"scheme": "explicit", "nodes": [0.0], "weights": [0.0]}),
        _minimal_config(measure={"scheme": "explicit", "nodes": [0.0], "weights": [-1.0]}),
        "measure: negative weight -1.0 at node index 0",
    ),
    "weight_count": (
        _minimal_config(measure={"scheme": "explicit", "nodes": [0.0], "weights": [1.0]}),
        _minimal_config(measure={"scheme": "explicit", "nodes": [0.0], "weights": [1.0, 1.0]}),
        "measure: 1 nodes vs 2 weights",
    ),
    "reversed_interval": (
        _shift_measure_config("gauss_legendre", 4),
        {**_shift_measure_config("gauss_legendre", 4), "measure": {
            "scheme": "gauss_legendre", "interval": [1.0, 0.0], "count": 4}},
        "measure: empty interval [1.0, 0.0]",
    ),
    "empty_coeffs": (
        _minimal_config(fields=[{"kind": "polynomial", "coeffs": [0.0]}]),
        _minimal_config(fields=[{"kind": "polynomial", "coeffs": []}]),
        "fields[0]: polynomial needs at least one coefficient",
    ),
    # a family's (members, n, n) matrix stack holds at most 2^24 entries:
    # 10^6 Haar draws fit in 4-D, and a sign_flips group up to 16-D
    "haar_stack_entries": (
        _haar_config(4, GROUP_SIZE_CAP),
        _haar_config(5, GROUP_SIZE_CAP),
        f"family: {GROUP_SIZE_CAP} members in dimension 5 make {25 * GROUP_SIZE_CAP} matrix "
        f"entries, more than the cap of {STACK_ENTRIES_CAP}",
    ),
    # (10 points: 35 would also expect more than the draw cap on a 17-D ball)
    "sign_flips_stack_entries": (
        _ball_gradient_config(16, gradient_points=10),
        _ball_gradient_config(17, gradient_points=10),
        f"family: {2**17} members in dimension 17 make {2**17 * 17 * 17} matrix entries, "
        f"more than the cap of {STACK_ENTRIES_CAP}",
    ),
    # a polynomial's power tables grow with its coefficient count
    "polynomial_coefficients": (
        _minimal_config(fields=[{"kind": "polynomial", "coeffs": [0.5] * MAX_POLYNOMIAL_COEFFS}]),
        _minimal_config(fields=[{"kind": "polynomial",
                                 "coeffs": [0.5] * (MAX_POLYNOMIAL_COEFFS + 1)}]),
        f"fields[0]: polynomial has {MAX_POLYNOMIAL_COEFFS + 1} coefficients, more than the "
        f"cap of {MAX_POLYNOMIAL_COEFFS}",
    ),
    "ragged_coeffs": (
        {**_group_config("sign_flips", 2),
         "fields": [{"kind": "polynomial", "coeffs": [[1.0, 0.5], [0.2, 0.0]]}]},
        {**_group_config("sign_flips", 2),
         "fields": [{"kind": "polynomial", "coeffs": [[1.0, 0.5], [0.2]]}]},
        "fields[0]: polynomial coefficients must be a rectangular array of numbers",
    ),
    "coeffs_depth": (
        _minimal_config(fields=[{"kind": "gaussian_times_poly", "center": [0.0], "width": 1.0,
                                 "coeffs": [1.0, 0.5]}]),
        _minimal_config(fields=[{"kind": "gaussian_times_poly", "center": [0.0], "width": 1.0,
                                 "coeffs": [[1.0, 0.5]]}]),
        "fields[0]: coefficient array has 2 axes but dimension is 1",
    ),
    "cyclic_rotation_dimension": (
        {**_group_config("cyclic_rotation_2d", 2, order=4),
         "fields": [{"kind": "polynomial", "coeffs": [[1.0]]}]},
        _group_config("cyclic_rotation_2d", 3, order=4),
        "family: cyclic_rotation_2d needs dimension 2, got 3",
    ),
    "sign_flips_order": (
        _group_config("sign_flips", 3),
        _group_config("sign_flips", 3, order=4),
        "family: order only applies to cyclic_rotation_2d",
    ),
    "necessity_endpoints_order": (
        _necessity_config(endpoints=[1.0, 2.0]),
        _necessity_config(endpoints=[2.0, 1.0]),
        "experiment_options.necessity: endpoints must be finite, positive and increasing, "
        "got [2.0, 1.0]",
    ),
    # a gaussian's |x - c|^2 / w^2 and, with gradients, 2 |x - c| / w^2 must
    # stay doubles where the run evaluates them; no parse-time rule predicts
    # that range, the run stops at the overflow (_CAPPED_BY_THE_RUN)
    "gaussian_center_far": (
        _minimal_config(fields=[{"kind": "gaussian", "center": [1e154], "width": 1.0}]),
        _minimal_config(fields=[{"kind": "gaussian", "center": [1e308], "width": 1.0}]),
        "error: fields[0]: overflow encountered in multiply",
    ),
    "gaussian_width_on_a_wide_box": (
        _wide_box_config(1e-144),
        _wide_box_config(1e-150),
        "error: fields[0]: overflow encountered in divide",
    ),
    # on a truncated window the run evaluates the field at the shifted points
    "gaussian_shifted_window": (
        _shifted_window_config(1e154),
        _shifted_window_config(1e155),
        "error: fields[0]: overflow encountered in multiply",
    ),
    # without gradients, this width runs (gaussian_width_small)
    "gaussian_gradient_factor": (
        _minimal_config(experiments=["sobolev_bound"],
                        fields=[{"kind": "gaussian", "center": [0.0], "width": 1.1e-154}]),
        _minimal_config(experiments=["sobolev_bound"],
                        fields=[{"kind": "gaussian", "center": [0.0], "width": 1e-154}]),
        "error: fields[0]: invalid value encountered in multiply",
    ),
}
_CAPPED_BY_THE_RUN = {"gaussian_center_far", "gaussian_width_on_a_wide_box",
                      "gaussian_shifted_window", "gaussian_gradient_factor"}


@pytest.mark.parametrize("name", sorted(_CAPPED_INPUTS))
def test_unbounded_inputs_are_capped_at_parse_time(tmp_path, name):
    at_cap, past_cap, message = _CAPPED_INPUTS[name]
    config = parse_config(json.dumps(at_cap))
    if name in _CAPPED_BY_THE_RUN:
        # both configs parse; the one at the cap runs clean, the one past it
        # stops the run (test_main_past_a_cap_exits_2_without_output)
        parse_config(json.dumps(past_cap))
        assert run(config, tmp_path) == 0
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(past_cap))
    assert exc.value.errors == [message]
    if name.startswith("gradient_"):
        # the points are drawn the larger of the margin and twice the step
        # inside, so the check refuses none (a step this large fails the check)
        assert run(config, tmp_path) in (0, 1)
        row = _read_rows(tmp_path / "results.csv")[0]
        assert row["resolution"] == str(config.inputs.options["gradient_points"])
        assert "[" not in (tmp_path / "summary.txt").read_text()


def test_legendre_cap_keeps_the_fine_rules():
    assert MAX_LEGENDRE_NODES == 2**15
    for nodes in (8192, 16384):
        assert parse_config(json.dumps(_minimal_config(resolution=nodes))).resolution == nodes
        parse_config(json.dumps(_shift_measure_config("gauss_legendre", nodes)))
    # no grid is built without a bound or gradient experiment, so no rule either
    parse_config(json.dumps({**_preservation_config(10), "resolution": 10**6}))


def test_ball_rejection_sampling_that_would_not_finish_is_rejected_at_once():
    assert parse_config(json.dumps(_ball_gradient_config(3))).dimension == 3
    # 50 points (the default) in 16-D expect 1.4e7 draws; sampling them took
    # 23.5 s, and 15-D (4.3e6 draws) 7.3 s
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="ball in dimension 16 expects 1.39e7"):
        parse_config(json.dumps(_ball_gradient_config(16)))
    assert time.perf_counter() - start < 0.1
    # a box samples without rejection
    box16 = {**_ball_gradient_config(16),
             "domain": {"shape": "box", "lower": [-1.0] * 16, "upper": [1.0] * 16}}
    assert parse_config(json.dumps(box16)).dimension == 16


@pytest.mark.parametrize("domain", [
    {"shape": "box", "lower": [-1e200, -1e200], "upper": [1e200, 1e200]},
    {"shape": "ball", "center": [0.0, 0.0], "radius": 1e300},
])
def test_overflowing_domains_are_rejected_at_parse_time(tmp_path, capsys, domain):
    # both spans are finite, but the grid weights and squared distances
    # overflow: the run printed lhs=nan rhs=nan and failed both rows
    config = {
        "dimension": 2,
        "domain": domain,
        "family": {"kind": "finite_group", "group": "sign_flips"},
        "kernel": {"name": "constant", "c": 1.0},
        "fields": [{"kind": "gaussian", "center": [0.0, 0.0], "width": 1.0}],
        "experiments": ["lp_bound", "sobolev_bound"],
        "resolution": 8,
    }
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == ["domain: its volume or n * extent^2 exceeds the double range"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "domain: its volume" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_size_check_takes_a_high_dimensional_ball():
    # gamma(n/2 + 1) overflows from n = 341 on; the volume of the unit ball
    # does not, so the config parses
    n = 400
    config = {**_minimal_config(), "dimension": n,
              "domain": {"shape": "ball", "center": [0.0] * n, "radius": 1.0},
              "family": {"kind": "rotations_haar", "count": 2, "seed": 0},
              "measure": {"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 2},
              "fields": [{"kind": "gaussian", "center": [0.0] * n, "width": 1.0}],
              "experiments": ["measure_preservation"]}
    assert parse_config(json.dumps(config)).dimension == n


@pytest.mark.parametrize("name", sorted(_CAPPED_INPUTS))
def test_main_past_a_cap_exits_2_without_output(tmp_path, capsys, name):
    _, past_cap, message = _CAPPED_INPUTS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(past_cap))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_witness_values_are_checked_only_when_it_runs():
    # shapes are checked always; the witness's values when it is listed
    options = {"necessity": {"endpoints": [10, 1e12], "x0": 30.0,
                             "kernel": {"name": "exp_decay", "a": 1.0}}}
    assert parse_config(json.dumps(_minimal_config(experiment_options=options)))
    options["necessity"]["x0"] = "0"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(_minimal_config(experiment_options=options)))
    assert exc.value.errors == ["experiment_options.necessity: x0 must be a number"]


def test_main_oversized_necessity_witness_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_necessity_config(endpoints=[10, 1e12])))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "8000000000080 witness members" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unhashable_experiment_is_reported():
    with pytest.raises(ConfigError, match=r"unknown experiment\(s\) \[\['lp_bound'\]\]"):
        parse_config(json.dumps(_minimal_config(experiments=[["lp_bound"]])))


def test_repeated_experiments_rejected():
    config = _minimal_config(experiments=["lp_bound", "lp_bound"])
    with pytest.raises(ConfigError, match="must not repeat"):
        parse_config(json.dumps(config))


def test_unknown_experiment_rejected():
    config = _minimal_config(experiments=["spectral_gap"])
    with pytest.raises(ConfigError, match=r"unknown experiment\(s\) \['spectral_gap'\]"):
        parse_config(json.dumps(config))


# running


def test_row_accounting(tmp_path):
    config = parse_config(json.dumps(_minimal_config(
        fields=[
            {"kind": "polynomial", "coeffs": [0.0, 1.0]},
            {"kind": "gaussian", "center": [0.5], "width": 1.0},
        ],
        p=[1.0, 2.0],
        experiments=["lp_bound", "sobolev_bound", "gradient_check"],
    )))
    assert run(config, tmp_path) == 0
    rows = _read_rows(tmp_path / "results.csv")
    assert len(rows) == 10  # 2 fields x 2 p twice over, plus 2 gradient rows
    assert sum(r["experiment"] == "lp_bound" for r in rows) == 4
    assert sum(r["experiment"] == "sobolev_bound" for r in rows) == 4
    assert sum(r["experiment"] == "gradient_check" for r in rows) == 2
    summary = (tmp_path / "summary.txt").read_text()
    assert "lp_bound p=2 field=1:gaussian" in summary
    assert "informative" in summary or all(r["passed"] == "true" for r in rows)


def test_shift_family_from_monte_carlo_measure(tmp_path):
    config = parse_config(json.dumps(_minimal_config(
        domain={"shape": "truncated_space", "halfwidth": 8.0},
        family={"kind": "shifts", "from_measure": True, "fold": True},
        measure={"scheme": "monte_carlo", "interval": [0.0, 4.0], "count": 8},
        fields=[{"kind": "gaussian", "center": [0.0], "width": 2.4}],
        resolution=32,
        seed=5,
    )))
    assert run(config, tmp_path) == 0
    rows = _read_rows(tmp_path / "results.csv")
    assert rows[0]["seed"] == "5"
    assert rows[0]["resolution"] == "32"


def _full_config(tmp_name):
    return _minimal_config(
        domain={"shape": "truncated_space", "halfwidth": 8.0},
        family={"kind": "shifts", "from_measure": True, "fold": True},
        measure={"scheme": "gauss_legendre", "interval": [0.0, 4.0], "count": 16},
        kernel={"name": "exp_decay", "a": 1.0},
        fields=[
            {"kind": "gaussian", "center": [0.0], "width": 2.4},
            {"kind": "polynomial", "coeffs": [0.0, 1.0]},
        ],
        p=[1.0, 2.0],
        resolution=32,
        seed=3,
        experiments=[
            "lp_bound",
            "sobolev_bound",
            "gradient_check",
            "measure_preservation",
            "necessity_divergence",
        ],
        experiment_options={
            "preservation_samples": 20000,
            "preservation_members": 4,
            "necessity": {"endpoints": [5.0, 50.0], "points_per_panel": 4},
        },
    )


def test_full_run_is_deterministic(tmp_path):
    config = parse_config(json.dumps(_full_config("full")))
    first = tmp_path / "a"
    second = tmp_path / "b"
    code1 = run(config, first)
    code2 = run(config, second)
    assert code1 == code2
    for name in ("results.csv", "divergence.csv", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def _two_field_grid_config(experiments):
    return _minimal_config(
        dimension=2,
        domain={"shape": "ball", "center": [0.0, 0.0], "radius": 2.0},
        family={"kind": "rotations_haar", "count": 6, "seed": 4},
        measure={"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 6},
        kernel={"name": "exp_decay", "a": 1.0},
        fields=[
            {"kind": "gaussian", "center": [0.1, -0.2], "width": 0.9},
            {"kind": "gaussian_times_poly", "center": [0.0, 0.1], "width": 0.8,
             "coeffs": [[1.0, 0.3, 0.1], [-0.2, 0.0, 0.05]]},
        ],
        p=[1.0, 2.0],
        resolution=20,
        experiments=experiments,
        experiment_options={"gradient_points": 6},
    )


def test_a_gradient_check_alone_builds_no_grid(tmp_path, monkeypatch):
    # only the bound checks read the resolution ** dimension grid
    config = parse_config(json.dumps(_two_field_grid_config(["gradient_check"])))
    assert run(config, tmp_path / "grid") == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "build_grid_quadrature", refuse)
    assert run(config, tmp_path / "none") == 0
    for name in ("results.csv", "summary.txt"):
        assert (tmp_path / "grid" / name).read_bytes() == (tmp_path / "none" / name).read_bytes()


def test_each_field_evaluation_is_freed_before_the_next_is_built(tmp_path, monkeypatch):
    # one field's arrays are alive at a time, however many fields the config lists
    config = _two_field_grid_config(["lp_bound", "sobolev_bound", "gradient_check"])
    config["fields"] *= 2
    evaluate, evaluations, alive = cli.evaluate_field, [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in evaluations))
        evaluation = evaluate(*args, **kwargs)
        evaluations.append(weakref.ref(evaluation))
        return evaluation

    monkeypatch.setattr(cli, "evaluate_field", tracked)
    assert run(parse_config(json.dumps(config)), tmp_path) == 0
    assert alive == [0, 0, 0, 0]


def test_the_run_starts_no_thread(tmp_path, monkeypatch):
    config = _two_field_grid_config(["lp_bound", "sobolev_bound", "measure_preservation"])
    config["experiment_options"].update(preservation_samples=1000, preservation_members=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setenv("HAUSDORFF_OP_THREADS", "1")
    assert main(["run", str(path), "--out", str(tmp_path / "1")]) == 0

    def refuse(self):
        raise AssertionError("the run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setenv("HAUSDORFF_OP_THREADS", "2")
    assert main(["run", str(path), "--out", str(tmp_path / "2")]) == 0
    for name in ("results.csv", "summary.txt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_output_does_not_depend_on_thread_count(tmp_path, monkeypatch):
    rows_by_order = []
    for k, experiments in enumerate((["lp_bound", "sobolev_bound", "gradient_check"],
                                     ["sobolev_bound", "lp_bound", "gradient_check"],
                                     ["lp_bound", "gradient_check", "sobolev_bound"])):
        config = tmp_path / f"{k}.json"
        config.write_text(json.dumps(_two_field_grid_config(experiments)))
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("HAUSDORFF_OP_THREADS", threads)
            out = tmp_path / f"{k}-{threads}"
            assert main(["run", str(config), "--out", str(out)]) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in ("results.csv", "summary.txt")})
        assert outputs[0] == outputs[1]
        rows = _read_rows(tmp_path / f"{k}-1" / "results.csv")
        rows_by_order.append(rows)
        # rows follow the config: each experiment in turn, then field, then p
        want = [(name, p) for name in experiments for _ in range(2)
                for p in (("",) if name == "gradient_check" else ("1", "2"))]
        assert [(r["experiment"], r["p"]) for r in rows] == want
    # the order of the experiments moves rows, not their values
    lp_first, sobolev_first, gradient_between = rows_by_order
    assert lp_first[:4] == sobolev_first[4:8] and lp_first[4:8] == sobolev_first[:4]
    assert lp_first[8:] == sobolev_first[8:]
    assert gradient_between == lp_first[:4] + lp_first[8:] + lp_first[4:8]


def test_gradient_check_rows_keep_their_seed(tmp_path):
    # a later experiment's loop must not change the seed a gradient check reports
    config = _two_field_grid_config(["gradient_check", "measure_preservation"])
    config["experiment_options"].update(preservation_samples=1000, preservation_members=2)
    config["seed"] = 5
    assert run(parse_config(json.dumps(config)), tmp_path) == 0
    rows = _read_rows(tmp_path / "results.csv")
    assert [(r["experiment"], r["seed"]) for r in rows] == [
        ("gradient_check", "16"), ("gradient_check", "16"),
        ("measure_preservation", "1005"), ("measure_preservation", "1006"),
    ]


def test_necessity_artifacts(tmp_path):
    config = parse_config(json.dumps(_minimal_config(
        experiments=["necessity_divergence"],
        experiment_options={
            "necessity": {"endpoints": [5.0, 50.0], "points_per_panel": 4}
        },
    )))
    # truncated growth is logarithmic, so the tenfold gate reports failure
    assert run(config, tmp_path) == 1
    rows = _read_rows(tmp_path / "divergence.csv")
    assert [r["endpoint"] for r in rows] == ["5", "50"]
    for row in rows:
        assert float(row["ratio"]) >= math.exp(-2.0) - 1e-9
        assert float(row["lower_bound"]) == pytest.approx(math.exp(-2.0))
    summary = (tmp_path / "summary.txt").read_text()
    assert "FAIL" in summary
    assert "growth factor" in summary
    assert (tmp_path / "results.csv").read_text().strip().count("\n") == 0


# entry point


def test_run_does_not_import_scipy(tmp_path):
    # a Gauss-Legendre measure (16 nodes) and a 300-node grid axis cover
    # both ways of building a rule
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_minimal_config(
        domain={"shape": "truncated_space", "halfwidth": 8.0},
        family={"kind": "shifts", "from_measure": True},
        measure={"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 16},
        fields=[{"kind": "gaussian", "center": [0.0], "width": 2.4}],
        resolution=300,
        experiments=["lp_bound", "gradient_check"],
    )))
    script = (
        "import sys\n"
        "import hausdorff_op\n"
        "from hausdorff_op import cli\n"
        f"code = cli.main(['run', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "0 []"


def test_import_leaves_out_argparse_and_the_thread_pool():
    # the run starts no thread, and only main parses arguments
    script = (
        "import sys\n"
        "import hausdorff_op.cli\n"
        "print(sorted(m for m in ('argparse', 'concurrent.futures') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_main_list_experiments(capsys):
    assert main(["run", "--list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_NAMES:
        assert name in out


def test_main_requires_config(capsys):
    assert main(["run"]) == 2
    assert "config file is required" in capsys.readouterr().err


def test_main_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_minimal_config(kernel={"name": "gauss"})))
    assert main(["run", str(path)]) == 2
    assert "config invalid" in capsys.readouterr().err


def test_main_deep_json_exits_2_with_one_error(tmp_path):
    # the decoder recurses once per level; past its limit it raised RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"dimension": 1, "fields": ' + "[" * 100_000 + "]" * 100_000 + "}")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "hausdorff_op.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: config invalid (1 error(s)):")
    (line,) = [line for line in done.stderr.splitlines() if line.startswith("  - ")]
    assert line.startswith("  - not valid JSON: maximum recursion depth exceeded")
    assert not (tmp_path / "out").exists()


def test_main_non_utf8_config_exits_2_with_one_error(tmp_path):
    # a UTF-16 byte-order mark is not UTF-8; decoding it raised UnicodeDecodeError
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"dimension": 1}')
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "hausdorff_op.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr == ("error: config invalid (1 error(s)):\n"
                           "  - not valid UTF-8 at byte 0: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_main_reads_a_config_saved_with_a_byte_order_mark(tmp_path, capsys):
    # as some editors save UTF-8; it was "Unexpected UTF-8 BOM", exit 2
    text = json.dumps(_minimal_config())
    outputs = []
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / f"{name}.json").write_bytes(data)
        code = main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)])
        outputs.append((code, *((tmp_path / name / f).read_bytes()
                                for f in ("results.csv", "summary.txt"))))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]
    assert parse_config("\ufeff" + text).dimension == 1  # as library callers pass it
    # a byte that is not UTF-8 is named by its offset in the file, mark included
    (tmp_path / "bad.json").write_bytes(b'\xef\xbb\xbf{"a": "\xff"}')
    capsys.readouterr()
    assert main(["run", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: config invalid (1 error(s)):\n"
                                       "  - not valid UTF-8 at byte 10: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_main_overrides_seed_and_resolution(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_minimal_config()))
    out = tmp_path / "out"
    code = main([
        "run", str(path), "--out", str(out), "--seed", "9", "--resolution", "16",
    ])
    assert code == 0
    rows = _read_rows(out / "results.csv")
    assert rows[0]["seed"] == "9"
    assert rows[0]["resolution"] == "16"


@pytest.mark.parametrize("resolution, message", [
    ("1", "resolution must be an integer >= 2"),
    (str(2**22 + 1), "grid nodes"),
])
def test_main_resolution_override_is_validated(tmp_path, capsys, resolution, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_minimal_config()))
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--resolution", resolution])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("measure", ["[1]", '"x"', "3"])
def test_main_non_object_measure_exits_2(tmp_path, capsys, measure):
    config = _minimal_config(family={"kind": "finite_group", "group": "sign_flips"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace(
        json.dumps(config["measure"]), measure))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config invalid" in capsys.readouterr().err


def test_main_surfaces_runtime_value_errors(tmp_path, capsys):
    # a family that escapes its bounded domain fails when pass two builds the operator
    config = _minimal_config(
        family={"kind": "shifts", "offsets": [0.5]},
        domain={"shape": "box", "lower": [0.0], "upper": [1.0]},
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "leaves the domain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coefficient", [1e306, 1e308])
def test_bound_rows_with_a_non_finite_side_fail(tmp_path, capsys, coefficient):
    # x^2 times the coefficient, or its square, overflows on [-3, 3]: the run
    # stops there, before any row is written (the library's rows FAIL, see
    # tests/test_experiments.py)
    spec = _minimal_config(
        domain={"shape": "box", "lower": [-3.0], "upper": [3.0]},
        family={"kind": "finite_group", "group": "sign_flips"},
        fields=[{"kind": "polynomial", "coeffs": [0.0, 0.0, coefficient]}],
        p=[1.0, 2.0],
        experiments=["lp_bound", "sobolev_bound"],
    )
    del spec["measure"]  # a finite group carries its own
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: fields[0]: overflow encountered in ")
    assert not (tmp_path / "out").exists()


def test_narrow_gaussian_workload_runs_clean(tmp_path):
    # a width of 0.01 builds and passes like any other field
    config = workloads.make_config("line-shifts-fine", 0)
    config["fields"][0]["width"] = 0.01
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = _read_rows(tmp_path / "out" / "results.csv")
    assert all(r["passed"] == "true" for r in rows)


def test_main_empty_ball_grid_exits_2(tmp_path, capsys):
    # the 2-point rule's nodes are +-r/sqrt(3) per axis, at distance
    # r sqrt(4/3) from the center in dimension 4
    config = {**_ball_gradient_config(4), "experiments": ["lp_bound"], "resolution": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: no node of the 2-point grid in dimension 4 lies in the ball; "
        "raise the resolution\n")
    assert not (tmp_path / "out").exists()


def test_main_kernel_overflow_exits_2_without_a_warning(tmp_path, capsys):
    # exp(-u) overflows at the nodes far left of 0; under the error filter
    # for RuntimeWarning a numpy warning would escape main
    config = _shift_measure_config("gauss_legendre", 64)
    config["measure"]["interval"] = [-1000.0, 0.0]
    config["kernel"] = {"name": "exp_decay", "a": 1.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config invalid (1 error(s)):\n"
                          "  - kernel: kernel exp_decay(a=1) is not finite at measure node -9")
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


# sign flips on the box [0, 1], and on a ball whose escape passes the double range
_ESCAPES = {
    "box": ({}, "1.000e+00"),
    "far ball": ({"dimension": 3,
                  "domain": {"shape": "ball", "center": [0.0, 0.0, 1e308], "radius": 2.0},
                  "fields": [{"kind": "polynomial", "coeffs": [[[0.0, 1.0]]]}]}, "inf"),
}


@pytest.mark.parametrize("name", sorted(_ESCAPES))
def test_a_family_that_leaves_the_domain_is_a_config_error(tmp_path, capsys, name):
    # the operator's constructor checks the escape in pass two, without a
    # numpy warning when the escape overflows
    overrides, escape = _ESCAPES[name]
    config = _minimal_config(family={"kind": "finite_group", "group": "sign_flips"}, **overrides)
    del config["measure"]  # a finite group carries its own
    message = (f"family: family member 1 leaves the domain by {escape} (> 1e-09); "
               "the family does not preserve this domain")
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [message]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: config invalid (1 error(s)):\n  - {message}\n"
    assert not (tmp_path / "out").exists()


# failure tiers


def test_only_high_p_sobolev_is_informative():
    config = parse_config(json.dumps(_minimal_config(resolution=8)))
    inputs = config.inputs
    quad = build_grid_quadrature(inputs.domain, config.resolution)
    ev = evaluate_field(inputs.operator, inputs.fields[0][1], quad, gradients=True)
    assert run_sobolev_bound(ev, 1.0).fatal
    assert not run_sobolev_bound(ev, 2.0).fatal
    assert run_lp_bound(ev, 2.0).fatal


# parse fuzzing

_WORKLOAD_CONFIGS = [workloads.make_config(name, 3) for name in workloads.WORKLOADS]
# small configs that reach every node kind the workloads leave out: a box
# domain and region, each finite group, shifts by offsets and folded from a
# measure, explicit motions, explicit and monte_carlo measures, constant and
# indicator kernels, polynomial fields, every experiment option
_FUZZ_BASES = [
    {
        "dimension": 2,
        "domain": {"shape": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "family": {"kind": "finite_group", "group": "cyclic_rotation_2d", "order": 4},
        "kernel": {"name": "constant", "c": 1.0},
        "fields": [{"kind": "polynomial", "coeffs": [[1.0, 0.5], [0.2, 0.0]]}],
        "resolution": 8,
        "experiments": ["lp_bound", "measure_preservation"],
        "experiment_options": {
            "preservation_samples": 100, "preservation_members": 2,
            "preservation_region": {"shape": "box", "lower": [-0.5, -0.5], "upper": [0.5, 0.5]},
        },
    },
    {
        "dimension": 3,
        "domain": {"shape": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0},
        "family": {"kind": "finite_group", "group": "sign_flips"},
        "kernel": {"name": "exp_decay", "a": 2.0},
        "fields": [{"kind": "gaussian", "center": [0.1, 0.0, -0.1], "width": 1.0}],
        "resolution": 4,
        "experiments": ["gradient_check"],
        "experiment_options": {"gradient_points": 10, "gradient_step": 1e-4,
                               "gradient_margin": 0.1},
    },
    {
        "dimension": 2,
        "domain": {"shape": "truncated_space", "halfwidth": 3.0},
        "family": {"kind": "finite_group", "group": "signed_permutations"},
        "kernel": {"name": "power", "a": 1.0},
        "fields": [{"kind": "gaussian_times_poly", "center": [0.0, 0.5], "width": 0.9,
                    "coeffs": [[1.0], [0.5]]}],
        "experiments": ["necessity_divergence"],
        "experiment_options": {"necessity": {
            "kernel": {"name": "constant", "c": 1.0}, "endpoints": [2.0, 4.0], "x0": 0.5,
            "points_per_panel": 4}},
    },
    {
        "dimension": 1,
        "domain": {"shape": "truncated_space", "halfwidth": 4.0},
        "family": {"kind": "shifts", "offsets": [0.0, 0.5]},
        "measure": {"scheme": "explicit", "nodes": [0.1, 0.2], "weights": [0.5, 0.5]},
        "kernel": {"name": "indicator", "lo": 0.0, "hi": 1.0},
        "fields": [{"kind": "polynomial", "coeffs": [1.0, -0.5]}],
        "p": [1.0, 2.0],
        "experiments": ["lp_bound", "sobolev_bound"],
        "seed": 5,
    },
    {
        "dimension": 1,
        "domain": {"shape": "box", "lower": [0.0], "upper": [1.0]},
        "family": {"kind": "shifts", "from_measure": True, "fold": True},
        "measure": {"scheme": "monte_carlo", "interval": [0.0, 1.0], "count": 3, "seed": 2},
        "kernel": {"name": "exp_decay", "a": 1.0},
        "fields": [{"kind": "gaussian", "center": [0.5], "width": 0.5}],
        "experiments": ["measure_preservation"],
        "output": "out",
    },
    {
        "dimension": 2,
        "domain": {"shape": "truncated_space", "halfwidth": 2.0},
        "family": {"kind": "motions", "members": [
            {"matrix": [[0.0, -1.0], [1.0, 0.0]], "offset": [0.5, 0.0]},
            {"matrix": [[1.0, 0.0], [0.0, 1.0]]}]},
        "measure": {"scheme": "monte_carlo", "interval": [0.0, 1.0], "count": 2},
        "kernel": {"name": "power", "a": 0.5},
        "fields": [{"kind": "gaussian", "center": [0.0, 0.0], "width": 1.0}],
        "resolution": 4,
        "experiments": ["lp_bound"],
    },
]
_DELETE = object()
# a wrong type, a huge, negative or empty value, or a deletion
_MUTATIONS = [
    _DELETE, "x", True, None, [1.0], {"a": 1}, _HUGE, -_HUGE, 1e308, -1e308, math.inf,
    -math.inf, math.nan, 10**9, 1e-300, -1, -0.5, 0, "", [], {},
]


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and node:
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaf_paths(child, path + (key,))]


@pytest.mark.parametrize("index", range(len(_FUZZ_BASES)))
def test_fuzz_bases_parse(index):
    # the fuzzer's mutations start from configs that pass the walk
    assert parse_config(json.dumps(_FUZZ_BASES[index]))


# each base's exit code.  Base 2 exits 1 by design: its witness of two short
# panels grows 2x, below the tenfold necessity gate.  Base 5 exits 1 on its
# p = 1 lp_bound row, lhs 2.4756 against rhs 2.4532: the offset rotation
# carries field mass into the resolution-4 truncated window from outside it,
# which the bound over the window alone does not cover
_FUZZ_BASE_CODES = [0, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("index", range(len(_FUZZ_BASES)))
def test_fuzz_bases_run_end_to_end(tmp_path, index):
    base = _FUZZ_BASES[index]
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(base))
    assert main(["run", str(path), "--out", str(out)]) == _FUZZ_BASE_CODES[index]
    divergence = {"divergence.csv"} if "necessity_divergence" in base["experiments"] else set()
    assert {p.name for p in out.iterdir()} == {"results.csv", "summary.txt", *divergence}


def _mutate(config, path, value):
    """Set the leaf at ``path`` to ``value``, or delete it; no-op if its parent is gone."""
    parent = config
    try:
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    except (LookupError, TypeError):
        pass  # an earlier mutation removed or replaced the parent


def _errors(config) -> list:
    try:
        parse_config(json.dumps(config))
    except ConfigError as exc:
        return exc.errors
    return []


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_workload_configs_raise_only_config_errors(data):
    config = copy.deepcopy(data.draw(st.sampled_from(_WORKLOAD_CONFIGS + _FUZZ_BASES)))
    paths = st.sampled_from(_leaf_paths(config))
    for path in data.draw(st.lists(paths, min_size=1, max_size=3, unique=True)):
        _mutate(config, path, data.draw(st.sampled_from(_MUTATIONS)))
    _errors(config)


# what replaces a leaf in the raw text: the leaf nested in lists, below and
# past the decoder's recursion limit, or an integer past the double range,
# past the digits Python converts
_NESTINGS = st.one_of(st.integers(1, 64), st.sampled_from([500, 990, 1_000, 100_000]))
_HUGE_INTS = st.sampled_from([400, 5_000]).map(lambda digits: "1" + "0" * digits)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_deep_or_huge_leaves_in_the_raw_text_raise_only_config_errors(data):
    config = copy.deepcopy(data.draw(st.sampled_from(_WORKLOAD_CONFIGS + _FUZZ_BASES)))
    path = data.draw(st.sampled_from(_leaf_paths(config)))
    leaf = json.dumps(_leaf(config, path))
    _mutate(config, path, "@leaf@")
    depth = data.draw(_NESTINGS)
    raw = data.draw(st.one_of(st.just("[" * depth + leaf + "]" * depth), _HUGE_INTS))
    text = json.dumps(config).replace('"@leaf@"', raw)
    try:
        parse_config(text)
    except ConfigError:
        pass


def test_a_name_nested_just_short_of_the_decoder_limit_is_a_config_error():
    # the decoder takes it, and the repr of the name in its error recurses
    # a few frames deeper than the decoder did
    config = _necessity_config(kernel={"name": "@leaf@", "a": 1.0})
    for depth in range(850, 1001):
        text = json.dumps(config).replace('"@leaf@"', "[" * depth + "1" + "]" * depth)
        with pytest.raises(ConfigError):
            parse_config(text)


def _leaf(config, path):
    for key in path:
        config = config[key]
    return config


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_errors_of_unlinked_nodes_add_up(data):
    # no rule reads both the kernel and a field, so a config with a leaf of
    # each mutated reports every error that each mutation reports alone
    base = data.draw(st.sampled_from(_FUZZ_BASES))
    both, alone = copy.deepcopy(base), []
    for prefix, node in ((("kernel",), base["kernel"]), (("fields", 0), base["fields"][0])):
        path = data.draw(st.sampled_from(_leaf_paths(node, prefix)))
        value = data.draw(st.sampled_from(_MUTATIONS))
        config = copy.deepcopy(base)
        _mutate(config, path, value)
        _mutate(both, path, value)
        alone += _errors(config)
    assert set(alone) <= set(_errors(both))


# one overflow rule: the run stops at its first floating-point overflow,
# invalid value or division by zero, with exit 2 and no output

_LINE = _FUZZ_BASES[3]  # a polynomial [1, -0.5] on the window h = 4, p = 1, 2
_RUN_OVERFLOWS = {
    "shift_past_the_double_range": {
        **_LINE, "family": {"kind": "shifts", "offsets": [-1e308, 0.5]}},
    "coefficient_at_the_double_max": {
        **_LINE, "family": {"kind": "shifts", "offsets": [0.0, 0.5]},
        "fields": [{"kind": "polynomial", "coeffs": [1e308, -0.5]}]},
    # each coefficient is finite, their sum is not
    "two_weights_at_the_double_max": _minimal_config(
        family={"kind": "motions", "members": [{"matrix": [[1.0]]}, {"matrix": [[1.0]]}]},
        measure={"scheme": "explicit", "nodes": [0.0, 1.0], "weights": [1e308, 1e308]}),
}


@pytest.mark.parametrize("name", sorted(_RUN_OVERFLOWS))
def test_a_run_that_overflows_exits_2_without_output(tmp_path, capsys, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_RUN_OVERFLOWS[name]))
    before = np.geterr()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert np.geterr() == before
    assert capsys.readouterr().err.startswith("error: fields[0]: overflow encountered in ")
    assert not (tmp_path / "out").exists()


def test_a_weight_times_kernel_value_past_the_double_range_is_a_config_error(tmp_path, capsys):
    config = _minimal_config(measure={"scheme": "explicit", "nodes": [0.0], "weights": [1e308]},
                             kernel={"name": "constant", "c": 10.0})
    message = "measure: weight times kernel value is not finite at measure node 0.0"
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == [message]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: config invalid (1 error(s)):\n  - {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_valid_run_restores_the_error_state(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_minimal_config()))
    before = np.geterr()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert np.geterr() == before


_EXTREMES = [1e308, -1e308, 1e-300, 1e154, -1e154]


def test_extreme_floats_end_in_an_exit_code(tmp_path, capsys):
    # every float leaf of every base, set in turn to each extreme value; a
    # numpy RuntimeWarning is an error here, as in every test
    before, runs = np.geterr(), 0
    for base in _FUZZ_BASES:
        for path in _leaf_paths(base):
            if not isinstance(_leaf(base, path), float):
                continue
            for value in _EXTREMES:
                config = copy.deepcopy(base)
                _mutate(config, path, value)
                text, out = tmp_path / f"config{runs}.json", tmp_path / f"out{runs}"
                text.write_text(json.dumps(config))
                code = main(["run", str(text), "--out", str(out)])
                assert code in (0, 1, 2) and out.exists() == (code != 2), (path, value)
                assert np.geterr() == before
                runs += 1
    assert runs == 360
