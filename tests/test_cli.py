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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hausdorff_op import cli
from hausdorff_op.cli import (
    EXPERIMENT_NAMES,
    MAX_BALL_DRAWS,
    MAX_GRID_NODES,
    MAX_LEGENDRE_NODES,
    MAX_PRESERVATION_SAMPLES,
    ConfigError,
    _is_fatal,
    main,
    parse_config,
    run,
)
from hausdorff_op.experiments import ExperimentReport
from hausdorff_op.isometry import GROUP_SIZE_CAP

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
    assert "unknown kernel 'gauss'" in message
    for name in ("exp_decay", "power", "constant", "indicator"):
        assert name in message


def test_bad_kernel_parameters_are_named():
    for where, config in (
        ("kernel", _minimal_config(kernel={"name": "indicator", "lo": "0", "hi": True})),
        ("experiment_options.necessity.kernel",
         _necessity_config(kernel={"name": "indicator", "lo": 0.0, "hi": "1"})),
    ):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(config))
        bad = ("lo", "hi") if where == "kernel" else ("hi",)
        assert exc.value.errors == [f"{where}: kernel parameter {key} must be a number"
                                    for key in bad]


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


def test_value_errors_follow_the_shape_errors():
    # the constructors check values only once every node has its shape
    config = _minimal_config(domain={"shape": "ball", "center": [0.0], "radius": -1.0},
                             fields=[{"kind": "gaussian", "center": [0.0]}])
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(config))
    assert exc.value.errors == ["fields[0]: width must be a number"]
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
        family={"kind": "finite_group", "group": "sign_flips"},
    )
    with pytest.raises(ConfigError, match="carries its own uniform measure"):
        parse_config(json.dumps(config))
    del config["measure"]
    parsed = parse_config(json.dumps(config))
    assert parsed.measure is None


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
        "kernel: kernel parameter c must be a number",
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
        "family: member 0 matrix must be 1x1",
    ),
    "motions.offset": (
        _minimal_config(family={"kind": "motions",
                                "members": [{"matrix": [[1.0]], "offset": [_HUGE]}]}),
        "family: member 0 offset must be a list of 1 numbers",
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
    # the grid cap rejects the config before the estimate's floats overflow
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
                             domain={"shape": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
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


def _inset_message(key, value, what):
    return (f"experiment_options: {key} {value} leaves no gradient points: "
            f"{what} reaches the inradius of the domain")


# (config at the cap, the same one step past it, the message past it)
_CAPPED_INPUTS = {
    # a 16-D ball takes 3.59e-6 of its bounding-box draws: 35 points expect
    # 9.75e6 draws, 36 expect 1.0025e7
    "ball_gradient_points": (
        _ball_gradient_config(16, gradient_points=35),
        _ball_gradient_config(16, gradient_points=36),
        "experiment_options: gradient_points 36 on a ball in dimension 16 expects "
        f"1.00e7 rejection-sampling draws, more than the cap of {MAX_BALL_DRAWS}",
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
    # skips those within twice the step of its boundary: the inradius is the
    # radius of a ball, half the smallest extent of a box, a window's halfwidth
    "gradient_margin_ball": (
        _gradient_inset_config(_BALL3, gradient_margin=2.99),
        _gradient_inset_config(_BALL3, gradient_margin=5),
        _inset_message("gradient_margin", 5, "the margin"),
    ),
    "gradient_step_ball": (
        _gradient_inset_config(_BALL3, gradient_step=1.49),
        _gradient_inset_config(_BALL3, gradient_step=2.0),
        _inset_message("gradient_step", 2.0, "twice the step"),
    ),
    "gradient_margin_box": (
        _gradient_inset_config(_BOX_1_BY_4, gradient_margin=0.49),
        _gradient_inset_config(_BOX_1_BY_4, gradient_margin=0.5),
        _inset_message("gradient_margin", 0.5, "the margin"),
    ),
    "gradient_step_window": (
        _gradient_inset_config(_WINDOW_2, gradient_step=0.99),
        _gradient_inset_config(_WINDOW_2, gradient_step=1.0),
        _inset_message("gradient_step", 1.0, "twice the step"),
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
        "experiment_options.necessity.kernel: power(a=2) has a finite L1 norm on "
        "[0, inf) and is not a necessity witness",
    ),
    "necessity_exp_decay_kernel": (
        # an integrable kernel is no error where no necessity check runs
        {**_necessity_config(kernel={"name": "exp_decay", "a": 1.0}),
         "experiments": ["lp_bound"]},
        _necessity_config(kernel={"name": "exp_decay", "a": 1.0}),
        "experiment_options.necessity.kernel: exp_decay(a=1) has a finite L1 norm on "
        "[0, inf) and is not a necessity witness",
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
}


@pytest.mark.parametrize("name", sorted(_CAPPED_INPUTS))
def test_unbounded_inputs_are_capped_at_parse_time(tmp_path, name):
    at_cap, past_cap, message = _CAPPED_INPUTS[name]
    config = parse_config(json.dumps(at_cap))
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(past_cap))
    assert exc.value.errors == [message]
    if name.startswith("gradient_"):
        # the points are drawn the larger of the margin and twice the step
        # inside, so the check skips none (a step this large fails the check)
        assert run(config, tmp_path) in (0, 1)
        row = _read_rows(tmp_path / "results.csv")[0]
        assert row["resolution"] == str(config.inputs.options["gradient_points"])
        assert "skipped" not in (tmp_path / "summary.txt").read_text()


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
    # a family that escapes its bounded domain fails at build time, not parse
    config = _minimal_config(
        family={"kind": "shifts", "offsets": [0.5]},
        domain={"shape": "box", "lower": [0.0], "upper": [1.0]},
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "leaves the domain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("coefficient", [1e306, 1e308])
def test_bound_rows_with_a_non_finite_side_fail(tmp_path, coefficient):
    # x^2 times the coefficient overflows on [-3, 3]; inf <= inf proves nothing
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
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    rows = _read_rows(tmp_path / "out" / "results.csv")
    finite = [math.isfinite(float(r["lhs"])) and math.isfinite(float(r["rhs"])) for r in rows]
    assert not all(finite)
    assert all(r["passed"] == "false" for r, ok in zip(rows, finite) if not ok)


def test_narrow_gaussian_workload_runs_clean(tmp_path):
    # a width of 0.01 builds and passes like any other field
    config = workloads.make_config("line-shifts-fine", 0)
    config["fields"][0]["width"] = 0.01
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    rows = _read_rows(tmp_path / "out" / "results.csv")
    assert all(r["passed"] == "true" for r in rows)


# failure tiers


def _synthetic(name, p):
    return ExperimentReport(
        name=name, p=p, lhs=1.0, rhs=0.5, bound_constant=1.0,
        margin=-0.5, resolution=8, seed=0, passed=False,
    )


def test_only_high_p_sobolev_is_informative():
    assert not _is_fatal(_synthetic("sobolev_bound", 2.0))
    assert _is_fatal(_synthetic("sobolev_bound", 1.0))
    assert _is_fatal(_synthetic("lp_bound", 2.0))
    assert _is_fatal(_synthetic("measure_preservation", None))


# parse fuzzing

_WORKLOAD_CONFIGS = [workloads.make_config(name, 3) for name in workloads.WORKLOADS]
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


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_mutated_workload_configs_raise_only_config_errors(data):
    config = copy.deepcopy(data.draw(st.sampled_from(_WORKLOAD_CONFIGS)))
    paths = st.sampled_from(_leaf_paths(config))
    for path in data.draw(st.lists(paths, min_size=1, max_size=3, unique=True)):
        value = data.draw(st.sampled_from(_MUTATIONS))
        parent = config
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(value)
        except (LookupError, TypeError):
            continue  # an earlier mutation removed or replaced the parent
    try:
        parse_config(json.dumps(config))
    except ConfigError:
        pass
