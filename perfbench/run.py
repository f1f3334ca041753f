"""cellpower benchmark: training and evaluation throughput per workload.

Usage, from the root of a source checkout:
    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Each run starts fresh Python processes with PYTHONPATH=src (nothing is
installed): a few that stop at the first env step, to time set-up, and one
that runs the whole workload (perfbench/workload.py). With --trace 1 the
workload runs twice, untraced and traced, and the run reports the per-layer
metrics of the traced one. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0       # every run ends within 180 s
SETUP_PROBES = 4         # set-up-only processes per untraced run, plus the main one

# Budgets are fixed functions of --seconds, so a run's work (and its
# results.csv) depends only on the workload, --seed and --seconds. Per second
# of --seconds a run takes grad_per_s gradient steps (after the config's
# train_start - 1 env-only steps) and samples_per_s test samples, which on a
# 2-core x86-64 machine splits the run about evenly between the two.
WORKLOADS = {
    "desk": {"config": "desk.cfg", "grad_per_s": 400, "samples_per_s": 0.7},
    "scenario1": {"config": "scenario1.cfg", "grad_per_s": 38, "samples_per_s": 0.16},
    "scenario3": {"config": "scenario3.cfg", "grad_per_s": 4, "samples_per_s": 0.12},
}


def budget(args):
    """(gradient steps, test samples) of a run."""
    w = WORKLOADS[args.workload]
    return (max(1, round(w["grad_per_s"] * args.seconds)),
            max(1, round(w["samples_per_s"] * args.seconds)))


def run_child(args, out_dir, name, deadline, trace=False, setup_only=False):
    grad_steps, samples = budget(args)
    result_path = os.path.join(out_dir, f"{name}.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Two BLAS threads on a shared 2-vCPU host doubled the run-to-run spread
    # of scenario1 training; one thread was no slower there.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--config", os.path.join(HERE, "workloads", WORKLOADS[args.workload]["config"]),
           "--seed", str(args.seed), "--grad-steps", str(grad_steps),
           "--samples", str(samples),
           "--out", os.path.join(out_dir, name), "--result", result_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for {name}")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as f:
        return json.load(f)


def summarize(main, setup_samples):
    """End-to-end metrics of an untraced run."""
    return {
        "train_steps_per_s": main["train_steps"] / main["train_s"],
        "test_s_per_sample": statistics.median(main["sample_s"]),
        "setup_s": statistics.median(setup_samples),
        "wall_s": main["wall_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cellpower", "harness.py")):
        print(f"error: no cellpower sources under {ROOT}/src", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the child, and the
    # finally below removes the output directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_ROOT)
    # one operation per test sample and one per WMMSE solve; until the
    # workload process reports, every operation counts as failed
    attempted = failed = 2 * budget(args)[1]
    failures = []
    metrics = {}
    try:
        main_run = run_child(args, out_dir, "main", deadline)
        attempted, failed = main_run["attempted"], main_run["failed"]
        failures += main_run["check_failures"]
        if args.trace:
            traced = run_child(args, out_dir, "traced", deadline, trace=True)
            failures += traced["check_failures"]
            for part in ("train/training_log.csv", "test/results.csv"):
                if _read(out_dir, "main", part) != _read(out_dir, "traced", part):
                    failures.append(f"two runs with one seed wrote different {part}")
            metrics = dict(traced.get("layers", {}))
            metrics["trace.overhead_s"] = traced["wall_s"] - main_run["wall_s"]
        else:
            setup = [main_run["setup_s"]]
            for i in range(SETUP_PROBES):
                setup.append(run_child(args, out_dir, f"setup{i}", deadline,
                                       setup_only=True)["setup_s"])
            timed = main_run["train_s"] is not None and main_run["sample_s"]
            metrics = summarize(main_run, setup) if timed else {}
    except Exception as exc:   # a child that failed or ran out of time
        failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:
            pass

    # names and units come from BENCHMARK.json, so the two cannot drift apart
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed
               if not math.isfinite(metrics.get(m["name"], math.nan))]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if not failures else 1


def _read(out_dir, run, part):
    try:
        with open(os.path.join(out_dir, run, part), "rb") as f:
            return f.read()
    except OSError as exc:
        return repr(exc)


if __name__ == "__main__":
    sys.exit(main())
