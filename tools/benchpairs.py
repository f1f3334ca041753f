"""Alternating parent/change pairs of the cellpower benchmark, summarized.

Usage, from the root of a source checkout:
    python3 tools/benchpairs.py --parent REV --change REV --seed 1101 \\
        --out BENCH_<n>.json

Each revision, which a branch must contain, is exported with `git archive`
into its own directory, and `perfbench/run.py --trace 0` runs there, so
each side measures its own committed files. The workloads and the run
length are those of BENCHMARK.json. Pair i runs every workload with seed
SEED + i on both sides, the parent first when i is even and the change
first when i is odd. The output records the machine, the numpy and BLAS
versions, both revisions, every run, and for each workload and end-to-end
metric of BENCHMARK.json the median and quartiles of each side and the
number of pairs the change won, over the pairs where both runs passed
their checks. It is rewritten after every pair, so an interrupted run
keeps the pairs it finished.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

RUN_TIMEOUT_S = 300      # perfbench/run.py ends every run within 180 s
PAIRS = 10               # a claimed gain must win 9 of 10 pairs
SIDES = ("parent", "change")


def git(*args, data=False):
    out = subprocess.run(["git", *args], check=True, capture_output=True).stdout
    return out if data else out.decode().strip()


def export(rev, dest):
    """Extract the tree of `rev` into `dest`; returns its commit and the
    tree id of its src/ directory, which names the code that ran.

    Refuses a commit that no branch contains: such a commit, for example
    one made by `git stash create`, can be garbage-collected, and the
    output would then name code that no longer exists."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if not git("branch", "--contains", commit):
        sys.exit(f"error: revision {rev} ({commit}) is on no branch; "
                 "commit it to a branch first")
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit, data=True))) as tar:
        tar.extractall(dest, filter="data")
    return {"rev": rev, "commit": commit, "src_tree": git("rev-parse", f"{commit}:src")}


def machine():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": model or platform.processor(),
        "cpu_count": os.cpu_count(),
        # CPUs in this process's affinity mask, which may be fewer than cpu_count
        "usable_cpus": len(os.sched_getaffinity(0)),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["exit_code"] = proc.returncode
    if proc.returncode:
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def passed(run):
    return run.get("correct") is True and run.get("exit_code") == 0


def summarize(runs, metrics, workloads, pairs):
    """Per workload: each side's runs, passed runs and failed/attempted
    operations summed over its runs, and per end-to-end metric each side's
    median and quartiles over the pairs where both runs passed, with the
    change's wins (ties count for neither)."""
    out = {}
    for workload in workloads:
        pair_runs = [[runs.get(f"{side}/{workload}/{i}", {}) for side in SIDES]
                     for i in range(pairs)]
        kept = [pair for pair in pair_runs if passed(pair[0]) and passed(pair[1])]
        checks = {side: {"runs": sum(bool(pair[j]) for pair in pair_runs),
                         "passed": sum(passed(pair[j]) for pair in pair_runs),
                         "failed": sum(pair[j].get("failed", 0) for pair in pair_runs),
                         "attempted": sum(pair[j].get("attempted", 0) for pair in pair_runs)}
                  for j, side in enumerate(SIDES)}
        rows = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            both = []
            for pair in kept:
                values = [run.get("metrics", {}).get(name, {}).get("value") for run in pair]
                if None not in values:
                    both.append(values)
            if not both:
                continue
            sides = {}
            for j, side in enumerate(SIDES):
                values = [pair[j] for pair in both]
                q1, q3 = quartiles(values)
                sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
            wins = sum((c > p) if higher else (c < p) for p, c in both)
            parent, change = sides["parent"]["median"], sides["change"]["median"]
            worse = (parent - change) / parent if higher else (change - parent) / parent
            rows[name] = {**sides, "unit": metric["unit"], "better": metric["better"],
                          "pairs": len(both), "change_wins": wins,
                          "change_worse_by": worse, "bound": metric["bound"]}
        out[workload] = {"checks": checks, "pairs_both_passed": len(kept), "metrics": rows}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    workdir = tempfile.mkdtemp(prefix="benchpairs-")
    try:
        revisions = {side: export(rev, os.path.join(workdir, side))
                     for side, rev in zip(SIDES, (args.parent, args.change))}
        report = {"command": "perfbench/run.py --trace 0", "seconds": seconds,
                  "seeds": [args.seed + i for i in range(PAIRS)],
                  "order": "pair i: parent first when i is even, change first when odd",
                  "quartiles": "statistics.quantiles(n=4), exclusive method",
                  "machine": machine(), "revisions": revisions, "runs": {}}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    t0 = time.monotonic()
                    result = run_once(os.path.join(workdir, side), workload,
                                      args.seed + i, seconds)
                    report["runs"][f"{side}/{workload}/{i}"] = result
                    print(f"pair {i} {workload} {side}: correct={result.get('correct')} "
                          f"({time.monotonic() - t0:.0f} s)", file=sys.stderr, flush=True)
            report["summary"] = summarize(report["runs"], metrics, workloads, i + 1)
            with open(args.out, "w") as f:
                json.dump(report, f, indent=1, sort_keys=False)
                f.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
