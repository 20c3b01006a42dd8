"""Do everything `hausdorff-op run` does before its first job, then exit.

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG

Uses public calls only: import, ``cli.parse_config``, then the domain,
fields (with their finite-difference self-check), family, measure, kernel,
``HausdorffOperator`` (with its domain-preservation check), grid quadrature,
gradient-check points and preservation region, in the order ``cli.run``
builds them.  The benchmark times this process from start to exit as
``setup_s``, so work moved into construction shows there.
"""

import sys
from pathlib import Path

import numpy as np

import hausdorff_op as hop
from hausdorff_op import cli

# config seed offset of the gradient-check points in cli.run
GRADIENT_SEED_OFFSET = 11


def build_domain(spec: dict, n: int):
    if spec["shape"] == "ball":
        return hop.ball(spec["center"], spec["radius"])
    if spec["shape"] == "box":
        return hop.box(spec["lower"], spec["upper"])
    return hop.truncated_space(spec["halfwidth"], n)


def build_field(spec: dict, n: int):
    if spec["kind"] == "gaussian":
        return hop.gaussian(spec["center"], spec["width"])
    if spec["kind"] == "polynomial":
        return hop.polynomial(spec["coeffs"], dimension=n)
    return hop.gaussian_times_poly(spec["center"], spec["width"], spec["coeffs"])


def build_family_measure(config):
    spec, n = config.family, config.dimension
    if spec["kind"] == "finite_group":
        return hop.finite_group_family(spec["group"], n, spec.get("order"))
    mspec = dict(config.measure)
    if mspec["scheme"] == "monte_carlo":
        mspec.setdefault("seed", config.seed)
    measure = hop.discretize(mspec)
    if spec["kind"] == "rotations_haar":
        family = hop.rotation_family(n, spec["count"], spec.get("seed", config.seed))
    elif spec["kind"] == "shifts":
        if "offsets" in spec:
            family = hop.shift_family(spec["offsets"])
        else:
            nodes = measure.nodes
            if spec.get("fold", False):
                nodes = nodes - np.floor(nodes)
            family = hop.shift_family(nodes)
    else:
        family = hop.motion_family([(m["matrix"], m.get("offset")) for m in spec["members"]])
    return family, measure


def main(config_path: str) -> None:
    config = cli.parse_config(Path(config_path).read_text(encoding="utf-8"))
    n = config.dimension
    domain = build_domain(config.domain, n)
    fields = [build_field(spec, n) for spec in config.fields]
    experiments = set(config.experiments)
    opts = config.options
    if experiments & {"lp_bound", "sobolev_bound", "gradient_check"}:
        family, measure = build_family_measure(config)
        kspec = config.kernel
        form = hop.kernel_form(kspec["name"], **{k: v for k, v in kspec.items() if k != "name"})
        hop.HausdorffOperator(
            measure=measure, kernel=hop.kernel_on_measure(form, measure),
            family=family, domain=domain,
        )
        hop.build_grid_quadrature(domain, config.resolution)
    elif "measure_preservation" in experiments:
        build_family_measure(config)
    if "gradient_check" in experiments:
        from hausdorff_op.experiments import interior_points

        interior_points(domain, opts.get("gradient_points", 50),
                        config.seed + GRADIENT_SEED_OFFSET, opts.get("gradient_margin", 0.05))
    if "measure_preservation" in experiments:
        region = opts.get("preservation_region",
                          {"shape": "box", "lower": [-0.5] * n, "upper": [0.5] * n})
        build_domain(region, n)
    print(f"set up {len(fields)} field(s) for {sorted(experiments)}")


if __name__ == "__main__":
    main(sys.argv[1])
