"""Checks of the benchmark workloads at seeds the benchmark does not default to.

    python3 -m pytest -q bench/test_workloads.py

Each workload must keep its expected PASS/FAIL pattern and exit code at
unseen seeds, so a later claim can be rerun on a fresh seed.
"""

import json
import sys
import time

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

UNSEEN_SEEDS = (1001, 2002)


@pytest.mark.parametrize("seed", UNSEEN_SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_pass_fail_pattern_at_unseen_seed(tmp_path, workload, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.make_config(workload, seed)), encoding="utf-8")
    out = tmp_path / "out"
    _, code, _ = run.run_child(["-m", "hausdorff_op.cli", "run", str(config), "--out", str(out)],
                               1, tmp_path / "run.log", time.perf_counter() + 120)
    assert run.check_pattern(workload, out, code) == []


@pytest.mark.parametrize("workload", ("ball3-rotations", "line-shifts-fine"))
def test_computed_quadrature_nodes_match_the_grid(workload):
    from hausdorff_op import geometry

    config = workloads.make_config(workload, 5)
    counts = workloads.work_counts(config)
    spec = config["domain"]
    domain = (geometry.ball(spec["center"], spec["radius"]) if spec["shape"] == "ball"
              else geometry.truncated_space(spec["halfwidth"], config["dimension"]))
    quad = geometry.build_grid_quadrature(domain, config["resolution"])
    assert counts["quadrature_nodes"] == len(quad.nodes)
