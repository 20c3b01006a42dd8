"""The benchmark under bench/ reaches into the package by name.

``bench/tracing.py`` wraps public callables where their callers look them up,
and ``bench/setup_probe.py`` rebuilds what ``cli.run`` builds from public
calls.  Both run here on a tiny 2-D config, each in a fresh interpreter, so
renaming or removing a name they use fails this test rather than every
benchmark run.  Each workload also runs once, as ``bench/run.py`` runs it,
and its outputs must pass that script's own check against
``bench/reference.json``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

# the input seed of a default `bench/run.py` invocation
REFERENCE_SEED = 0
# the package modules the benchmark reports a `<layer>.self_s` for
LAYERS = ("cli", "experiments", "operator", "field", "geometry",
          "isometry", "measure_kernel", "summation")

CONFIG = {
    "dimension": 2,
    "domain": {"shape": "ball", "center": [0.0, 0.0], "radius": 2.0},
    "family": {"kind": "rotations_haar", "count": 4, "seed": 3},
    "measure": {"scheme": "gauss_legendre", "interval": [0.0, 1.0], "count": 4},
    "kernel": {"name": "exp_decay", "a": 1.0},
    "fields": [
        {"kind": "gaussian", "center": [0.1, -0.2], "width": 0.9},
        {"kind": "gaussian_times_poly", "center": [0.0, 0.1], "width": 0.8,
         "coeffs": [[1.0, 0.3], [-0.2, 0.0]]},
    ],
    "p": [1.0, 2.0],
    "resolution": 16,
    "experiments": ["lp_bound", "sobolev_bound", "gradient_check", "measure_preservation"],
    "experiment_options": {"gradient_points": 5, "preservation_samples": 1000,
                           "preservation_members": 2},
}


def _run(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), HAUSDORFF_OP_THREADS="1")
    return subprocess.run(
        [sys.executable, *map(str, args)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_traced_run_covers_every_layer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    spans = tmp_path / "spans.jsonl"
    done = _run([BENCH / "tracing.py", config, tmp_path / "out", spans, "hooks"], tmp_path)
    assert done.returncode == 0, done.stderr
    with open(spans, encoding="utf-8") as lines:
        layers = {json.loads(line)["name"].split(".")[0] for line in lines}
    assert layers == set(LAYERS)


def test_setup_probe_builds_the_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    done = _run([BENCH / "setup_probe.py", config], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("set up 2 field(s)")


def _reference_mismatches(tmp_path, workload, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload, seed)))
    out = tmp_path / "out"
    _, code, _ = bench_run.run_child(
        ["-m", "hausdorff_op.cli", "run", str(config), "--out", str(out)],
        1, tmp_path / "run.log", time.perf_counter() + 120,
    )
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    return bench_run.check_run(workload, out, code, reference[workload][str(seed)])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_outputs_match_the_reference(tmp_path, workload):
    assert _reference_mismatches(tmp_path, workload, REFERENCE_SEED) == []


# input seeds whose gradient-check rows moved past the reference check when
# the polynomial power tables were multiplied in place of pow
@pytest.mark.parametrize("seed", [12, 16, 29])
def test_polynomial_power_bits_match_the_reference(tmp_path, seed):
    assert _reference_mismatches(tmp_path, "line-shifts-fine", seed) == []
