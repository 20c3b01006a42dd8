"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload once per input seed (0 .. REFERENCE_SEEDS - 1) at one
thread, checks its exit code and PASS/FAIL pattern, and stores the numeric
columns of results.csv and divergence.csv in bench/reference.json.  Rerun
it only when a change to the program is meant to change these numbers.
"""

import json
import shutil
import sys
import time

import run
import workloads


def main(names: list[str]) -> int:
    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    scratch = run.RESULTS / "reference"
    for workload in names or workloads.WORKLOADS:
        entries = {}
        for seed in range(run.REFERENCE_SEEDS):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            config = scratch / "config.json"
            config.write_text(json.dumps(workloads.make_config(workload, seed)), encoding="utf-8")
            out = scratch / "out"
            _, code, _ = run.run_child(
                ["-m", "hausdorff_op.cli", "run", str(config), "--out", str(out)], 1,
                scratch / "run.log", time.perf_counter() + 600)
            problems = run.check_pattern(workload, out, code)
            if problems:
                print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                return 1
            entries[str(seed)] = run.read_outputs(out)
            print(f"{workload} seed {seed}: recorded", flush=True)
        reference[workload] = entries
    shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
