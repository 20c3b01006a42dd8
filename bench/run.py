"""Closed-loop benchmark of the `hausdorff-op run` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seconds S     # every workload, untraced then traced

One single-threaded driver starts one child process at a time and waits for
it (one client, closed loop): users pay interpreter start, import and set-up
on every run, so every run is a fresh process.  With ``--trace 0`` a cycle is
one run at ``HAUSDORFF_OP_THREADS=1``, one at 2 threads and about two seconds
of set-up probes; with ``--trace 1`` it is one untraced 1-thread run and one
traced run (``tracing.py``).  Cycles repeat while the next one is expected
to end within ``--seconds``; medians are reported.  Every run's outputs are
checked against ``reference.json``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# inputs come from seed mod REFERENCE_SEEDS, the seeds reference.json covers
REFERENCE_SEEDS = 32
REL_TOL = 1e-9
# one invocation must end within 180 s; a child still running then is killed
DEADLINE_S = 165.0
# set-up probes per cycle: until they took this long, at least one
SETUP_SECONDS_PER_CYCLE = 2.0
OUTPUT_FILES = ("results.csv", "divergence.csv", "summary.txt")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["HAUSDORFF_OP_THREADS"] = str(threads)
    return env


def run_child(args: list[str], threads: int, log_path: Path, deadline: float):
    """Run ``python3 ARGS``; return (wall seconds, exit code, peak RSS in MiB).

    The peak RSS is this child's own ``ru_maxrss`` from ``wait4``, the
    figure ``RUSAGE_CHILDREN`` would give if it were the only child.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(threads),
                                stdout=log, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def read_outputs(out_dir: Path) -> dict:
    """Numeric rows of results.csv and divergence.csv, as the reference stores them."""
    rows = {"results": [], "divergence": []}
    results = out_dir / "results.csv"
    for line in results.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        rows["results"].append([cells[0], cells[1], float(cells[2]), float(cells[3])])
    divergence = out_dir / "divergence.csv"
    if divergence.is_file():
        for line in divergence.read_text(encoding="utf-8").splitlines()[1:]:
            rows["divergence"].append([float(c) for c in line.split(",")])
    return rows


def check_pattern(workload: str, out_dir: Path, code: int) -> list[str]:
    """Problems with the exit code or the PASS/FAIL lines of summary.txt."""
    expected_code, gate_fails = workloads.expected_outcome(workload)
    problems = [] if code == expected_code else [f"exit code {code}, expected {expected_code}"]
    summary = out_dir / "summary.txt"
    if not summary.is_file():
        return problems + ["no summary.txt"]
    for line in summary.read_text(encoding="utf-8").splitlines():
        if not line.startswith(("PASS", "FAIL")):
            continue
        status, label = line[:19].strip(), line[20:].split("  ")[0]
        want = "FAIL" if gate_fails and label == "necessity_divergence" else "PASS"
        if status != want:
            problems.append(f"{label}: {status}, expected {want}")
    return problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_run(workload: str, out_dir: Path, code: int, reference: dict) -> list[str]:
    """All problems of one run: exit code, PASS/FAIL pattern, numbers vs reference."""
    problems = check_pattern(workload, out_dir, code)
    if not (out_dir / "results.csv").is_file():
        return problems + ["no results.csv"]
    got = read_outputs(out_dir)
    if [r[:2] for r in got["results"]] != [r[:2] for r in reference["results"]]:
        problems.append("results.csv rows differ from the reference")
    else:
        for g, r in zip(got["results"], reference["results"]):
            if not (_close(g[2], r[2]) and _close(g[3], r[3])):
                problems.append(f"{g[0]} p={g[1]}: lhs/rhs {g[2:]} vs reference {r[2:]}")
    if len(got["divergence"]) != len(reference["divergence"]):
        problems.append("divergence.csv rows differ from the reference")
    else:
        for g, r in zip(got["divergence"], reference["divergence"]):
            if not all(_close(a, b) for a, b in zip(g, r)):
                problems.append(f"divergence row {g} vs reference {r}")
    return problems


def same_bytes(a: Path, b: Path) -> list[str]:
    problems = []
    for name in OUTPUT_FILES:
        fa, fb = a / name, b / name
        if fa.is_file() != fb.is_file() or (fa.is_file() and fa.read_bytes() != fb.read_bytes()):
            problems.append(f"{name} differs between {a.name} and {b.name}")
    return problems


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "child_blas_threads": 1,
    }


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def flatten(counts: dict, prefix: str = "computed.") -> dict:
    out = {}
    for key, value in counts.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


class Session:
    """One workload, one seed: the runs, their checks and their samples."""

    def __init__(self, workload: str, seed: int, trace: bool, reference: dict):
        self.workload = workload
        self.input_seed = seed % REFERENCE_SEEDS
        self.reference = reference[workload][str(self.input_seed)]
        self.config = workloads.make_config(workload, self.input_seed)
        self.computed = workloads.work_counts(self.config)
        self.dir = RESULTS / workload / f"seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        self.deadline = time.perf_counter() + DEADLINE_S
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.runs = 0

    def child(self, tag: str, args: list[str], threads: int):
        self.runs += 1
        log = self.dir / f"{tag}-{self.runs}.log"
        return run_child(args, threads, log, self.deadline)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def cli_run(self, threads: int, like: Path | None = None) -> tuple[float, float, Path]:
        """One CLI run; its outputs must also equal those in ``like`` byte for byte."""
        out = self.dir / f"out-{self.runs + 1}-{threads}t"
        wall, code, rss = self.child(
            f"run{threads}t", ["-m", "hausdorff_op.cli", "run", str(self.config_path),
                               "--out", str(out)], threads)
        problems = check_run(self.workload, out, code, self.reference)
        self.record(f"run {out.name}", problems + (same_bytes(like, out) if like else []))
        return wall, rss, out

    def setup_probe(self) -> float:
        wall, code, _ = self.child("setup", [str(BENCH / "setup_probe.py"),
                                             str(self.config_path)], 1)
        self.record("setup probe", [] if code == 0 else [f"exit code {code}"])
        return wall

    def traced_run(self, like: Path) -> tuple[float, dict, Path]:
        out = self.dir / f"out-{self.runs + 1}-traced"
        spans_path = self.dir / "spans.jsonl"
        run_id = f"{self.workload}/seed{self.input_seed}/run{self.runs + 1}"
        wall, code, _ = self.child("traced", [str(BENCH / "tracing.py"), str(self.config_path),
                                              str(out), str(spans_path), run_id], 1)
        problems = check_run(self.workload, out, code, self.reference)
        self.record(f"traced {out.name}", problems + same_bytes(like, out))
        spans = tracing.read_spans(spans_path) if spans_path.is_file() else []
        table = tracing.layer_table(spans)
        (self.dir / "layers.txt").write_text(tracing.format_table(table) + "\n", encoding="utf-8")
        (self.dir / "layers.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
        return wall, tracing.layer_metrics(spans, self.computed), out

    def cycle(self, trace: bool) -> None:
        wall, rss, out1 = self.cli_run(1)
        self.samples["run_s"].append(wall)
        if trace:
            traced_wall, layers, out2 = self.traced_run(out1)
            self.samples["traced_s"].append(traced_wall)
            for name, value in layers.items():
                self.samples[name].append(value)
        else:
            self.samples["peak_rss_mb"].append(rss)
            wall2, _, out2 = self.cli_run(2, like=out1)
            self.samples["run_s_2t"].append(wall2)
            spent = 0.0
            while spent < SETUP_SECONDS_PER_CYCLE:
                self.samples["setup_s"].append(self.setup_probe())
                spent += self.samples["setup_s"][-1]
        if not self.problems:
            for out in (out1, out2):
                shutil.rmtree(out, ignore_errors=True)


def measure(workload: str, seed: int, seconds: int, trace: bool, reference: dict) -> dict:
    session = Session(workload, seed, trace, reference)
    start = time.perf_counter()
    cycle_s = 0.0
    while session.attempted == 0 or time.perf_counter() - start + cycle_s <= seconds:
        began = time.perf_counter()
        session.cycle(trace)
        cycle_s = max(cycle_s, time.perf_counter() - began)
        if time.perf_counter() > session.deadline:
            break
    samples = dict(session.samples)
    if trace:
        samples["trace_overhead_frac"] = [
            statistics.median(samples["traced_s"]) / statistics.median(samples["run_s"]) - 1.0
        ]
    medians = {name: statistics.median(values) for name, values in samples.items()}
    result = {
        "workload": workload, "seed": seed, "input_seed": session.input_seed,
        "trace": int(trace), "seconds": seconds, "environment": environment(),
        "computed": flatten(session.computed),
        "attempted": session.attempted, "failed": session.failed,
        "failed_frac": session.failed / session.attempted,
        "problems": session.problems,
        "medians": medians,
        "spread": {name: spread(values) for name, values in samples.items()},
        "samples": samples,
    }
    (session.dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict, metric_specs: list[dict]) -> dict:
    """Print one workload's metrics; return them as the result line wants them."""
    print(f"== {result['workload']} seed={result['seed']} (inputs from seed "
          f"{result['input_seed']}) trace={result['trace']}")
    print("environment: " + json.dumps(result["environment"]))
    if result["trace"]:
        for name, value in result["computed"].items():
            print(f"  {name:<44} {value:>14}  count (computed from the config)")
    metrics = {}
    for spec in metric_specs:
        name = spec["name"]
        value = result["medians"][name]
        n = len(result["samples"][name])
        print(f"  {name:<44} {value:>14.6g}  {spec['unit']:<6} median of {n}, "
              f"IQR/median {result['spread'][name]:.4f}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    print(f"  {'failed_frac':<44} {result['failed_frac']:>14.6g}  "
          f"{result['failed']}/{result['attempted']} runs failed their output check")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if result["trace"]:
        layers = RESULTS / result["workload"] / f"seed{result['seed']}-trace1" / "layers.txt"
        print(layers.read_text(encoding="utf-8"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "hausdorff_op" / "__init__.py").is_file():
        print(f"error: no hausdorff_op sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    RESULTS.mkdir(exist_ok=True)
    # compile the package once, untimed, and stop here if it does not import
    _, code, _ = run_child(["-c", "import hausdorff_op"], 1, RESULTS / "import.log",
                           time.perf_counter() + 60)
    if code != 0:
        print(f"error: hausdorff_op does not import, see {RESULTS / 'import.log'}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        targets = [(w, trace) for w in workloads.WORKLOADS for trace in (False, True)]
    else:
        targets = [(args.workload, bool(args.trace))]
    metrics, attempted, failed = {}, 0, 0
    for workload, trace in targets:
        result = measure(workload, args.seed, args.seconds, trace, reference)
        found = report(result, spec["per_layer" if trace else "end_to_end"])
        prefix = f"{workload}/" if len(targets) > 1 else ""
        metrics.update({prefix + name: value for name, value in found.items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
