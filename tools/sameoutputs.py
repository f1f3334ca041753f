"""Whether two revisions write byte-identical outputs on the benchmark's workloads.

Usage, from the root of a source checkout:
    python3 tools/sameoutputs.py --parent REV --change REV --seed 7

Each revision, which a branch must contain, is exported with
benchpairs.export into its own directory, and its commit is printed with
the line count of its src/cellpower/*.py, the total `wc -l` gives. There
its own perfbench/workload.py runs every workload of BENCHMARK.json once
with --seed SEED, at the gradient-step and test-sample budgets that
perfbench/run.py gives at BENCHMARK.json's run length, with one BLAS
thread as perfbench/run.py sets. The script then compares each of
training_log.csv, qnet.ckpt, results.csv and actions.csv byte for byte,
and report.json as parsed JSON without metadata.wall_time_s, in both the
training and the test phase, and prints one line per workload and
artifact, plus any check the workload reported failed. An artifact that
differs is sized where both copies line up: for a checkpoint with the
same header and length, the number of values that differ, in the element
type its magic names, and the largest absolute difference; for a CSV
with the same number of rows, its columns matched by header name, the
number of fields of the shared columns that differ, their columns and
the largest relative difference among those that are numbers, then the
columns that one side removed or added; for report.json, the fields
that differ, added and removed ones included. A header change is a
difference too. It exits 1 when an artifact differs or is missing on
one side, or a run failed.
"""

import argparse
import glob
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np
from benchpairs import RUN_TIMEOUT_S, SIDES, export

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from run import WORKLOADS, budget  # noqa: E402  (perfbench/run.py)

ARTIFACTS = ("training_log.csv", "qnet.ckpt", "results.csv", "actions.csv",
             "report.json")
PHASES = ("train", "test")
CHECKPOINT_HEADER = 56   # magic, three int64 layer sizes, three float64 constants
# the element type of the arrays after each checkpoint magic (cellpower.qnet's)
CHECKPOINT_DTYPES = {b"CPQNET1\n": "<f8", b"CPQNET2\n": "<f4"}


def run_workload(checkout, workload, seed, seconds, out_dir):
    """Run `checkout`'s perfbench/workload.py; returns its result JSON, or
    None when the process failed."""
    grad_steps, samples = budget(argparse.Namespace(workload=workload, seconds=seconds))
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "result.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "perfbench/workload.py",
           "--config", os.path.join("perfbench", "workloads", WORKLOADS[workload]["config"]),
           "--seed", str(seed), "--grad-steps", str(grad_steps), "--samples", str(samples),
           "--out", out_dir, "--result", result_path, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode:
        print(f"{workload}: {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    with open(result_path) as f:
        return json.load(f)


def src_lines(checkout):
    """Newlines in `checkout`'s src/cellpower/*.py, the total of `wc -l`."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "cellpower", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def read_report(path):
    """report.json as parsed JSON without the wall time, which no two runs
    share, or None when it is missing."""
    data = read(path)
    if data is None:
        return None
    report = json.loads(data)
    del report["metadata"]["wall_time_s"]
    return report


def report_difference(parent, change):
    """The fields, `section.key` within a dict section, in which two
    reports differ."""
    fields = []
    for section in sorted(parent.keys() | change.keys()):
        a, b = parent.get(section), change.get(section)
        if isinstance(a, dict) and isinstance(b, dict):
            fields += [f"{section}.{key}" for key in sorted(a.keys() | b.keys())
                       if a.get(key) != b.get(key)]
        elif a != b:
            fields.append(section)
    return ", ".join(fields)


def checkpoint_difference(parent, change):
    """How two checkpoints' payloads differ, in the element type their magic
    names, or None when their headers or lengths differ or the magic is
    unknown."""
    if (parent[:CHECKPOINT_HEADER] != change[:CHECKPOINT_HEADER]
            or len(parent) != len(change)
            or parent[:8] not in CHECKPOINT_DTYPES):
        return None
    dtype = CHECKPOINT_DTYPES[parent[:8]]
    a, b = (np.frombuffer(data, dtype=dtype, offset=CHECKPOINT_HEADER)
            for data in (parent, change))
    differ = (a != b) & ~(np.isnan(a) & np.isnan(b))
    largest = float(np.max(np.abs(a[differ] - b[differ]), initial=0.0))
    return (f"{np.count_nonzero(differ)} of {a.size} {np.dtype(dtype).name} values, "
            f"max abs {largest:.3g}")


def csv_rows(data):
    """A CSV's header and its rows, each a dict keyed by column name, or
    None when a row's field count is not the header's."""
    header, *rows = (line.split(",") for line in data.decode().splitlines())
    if any(len(row) != len(header) for row in rows):
        return None
    return header, [dict(zip(header, row)) for row in rows]


def csv_difference(parent, change):
    """How two CSVs differ, their columns matched by header name: the
    number of fields of the shared columns that differ, those columns and
    the largest relative difference among the fields that are numbers;
    then the columns that only one side has, and whether the shared ones
    are in another order. None when the row counts differ or a row does
    not fit its header."""
    tables = [csv_rows(data) for data in (parent, change)]
    if None in tables or len(tables[0][1]) != len(tables[1][1]):
        return None
    (header_a, rows_a), (header_b, rows_b) = tables
    shared = [column for column in header_a if column in header_b]
    count, largest, columns = 0, 0.0, set()
    for row_a, row_b in zip(rows_a, rows_b):
        for column in shared:
            field_a, field_b = row_a[column], row_b[column]
            if field_a == field_b:
                continue
            count += 1
            columns.add(column)
            try:
                x, y = float(field_a), float(field_b)
            except ValueError:
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            largest = max(largest, rel if rel == rel else math.inf)   # nan or inf on one side
    names = " ".join(column for column in shared if column in columns)
    parts = [f"{count} fields in {names}, max rel {largest:.3g}" if count
             else "shared columns same"]
    removed = [column for column in header_a if column not in header_b]
    added = [column for column in header_b if column not in header_a]
    parts += [f"{what} {' '.join(listed)}" for what, listed in
              (("removed", removed), ("added", added)) if listed]
    if shared != [column for column in header_b if column in header_a]:
        parts.append("shared columns reordered")
    return ", ".join(parts)


def compare(out_dirs, artifact):
    """'same', 'differs' or 'missing on one side' over the phases where
    either side wrote `artifact`; a difference is sized per phase where
    the two copies line up."""
    verdicts, sizes = [], []
    load, size_of = {".ckpt": (read, checkpoint_difference), ".csv": (read, csv_difference),
                     ".json": (read_report, report_difference)}[os.path.splitext(artifact)[1]]
    for phase in PHASES:
        parent, change = (load(os.path.join(d, phase, artifact)) for d in out_dirs)
        if parent is None and change is None:
            continue
        if parent is None or change is None:
            verdicts.append("missing on one side")
        elif parent == change:
            verdicts.append("same")
        else:
            verdicts.append("differs")
            size = size_of(parent, change)
            sizes.append(f"{phase}: {size or 'not comparable value by value'}")
    if not verdicts:
        return "missing on both sides"
    verdict = next((v for v in verdicts if v != "same"), "same")
    return f"{verdict} ({'; '.join(sizes)})" if sizes else verdict


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workdir = tempfile.mkdtemp(prefix="sameoutputs-")
    all_same = True
    try:
        checkouts = [os.path.join(workdir, side) for side in SIDES]
        for side, rev, checkout in zip(SIDES, (args.parent, args.change), checkouts):
            commit = export(rev, checkout)["commit"]
            print(f"{side}: {commit}, src/cellpower/*.py {src_lines(checkout)} lines")
        for workload in (w["name"] for w in bench["workloads"]):
            out_dirs = [os.path.join(workdir, "out", side, workload) for side in SIDES]
            for side, checkout, out_dir in zip(SIDES, checkouts, out_dirs):
                result = run_workload(checkout, workload, args.seed,
                                      bench["run_seconds"], out_dir)
                failures = (["run failed"] if result is None
                            else result.get("check_failures", []))
                for failure in failures:
                    print(f"{workload} {side}: {failure}")
                all_same &= not failures
            for artifact in ARTIFACTS:
                verdict = compare(out_dirs, artifact)
                print(f"{workload} {artifact}: {verdict}")
                all_same &= verdict == "same"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
