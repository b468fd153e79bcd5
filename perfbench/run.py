#!/usr/bin/env python3
"""Sweep benchmark: builds the driver, runs one workload, checks it, reports.

Run from the repository root:

    python3 perfbench/run.py --workload grid-small --seed 1 --trace 0
    python3 perfbench/run.py --self-check

The driver (drv.cpp) is built from this directory against the repository's
`mst` library into `.bench_build/`.  It runs the workload for `--seconds`
(default: BENCHMARK.json's `run_seconds`), writes its report files and
`result.json`; this wrapper then runs `mstctl`
on the same spec and seed and requires byte-identical reports.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, where the metrics are the `end_to_end` entries of
BENCHMARK.json (`--trace 0`) or its `per_layer` entries (`--trace 1`).
Everything else the run measured is printed above that line and kept in
`.bench_build/runs/`.  README.md in this directory explains the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(WORK, "cmake")
WORKLOADS = ("solve-large", "grid-small", "grid-journaled")
DRIVER_TIMEOUT_S = 170
MSTCTL_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}\n{tail}")


def build():
    """Configures once, then brings the two targets up to date."""
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                   log_path, 600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench_drv", "mstctl",
                "-j", jobs], log_path, 900)
    drv = os.path.join(CMAKE_DIR, "perfbench_drv")
    mstctl = os.path.join(CMAKE_DIR, "mst", "mstctl")
    for path in (drv, mstctl):
        if not os.path.isfile(path):
            raise BenchError(f"build produced no {path}")
    return drv, mstctl


def same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def mstctl_checks(mstctl, result, seed):
    """`mstctl --mode=sweep` (and `--mode=merge`) must reproduce the
    driver's report files byte for byte."""
    checks = []
    for grid in result["grids"]:
        csv = grid["csv"] + ".mstctl"
        cmd = [mstctl, "--mode=sweep", f"--spec={grid['spec']}", f"--seed={seed}",
               f"--threads={grid['threads']}", f"--out-file={csv}"]
        metrics = grid["metrics_json"]
        if metrics:
            cmd.append(f"--metrics-out={metrics}.mstctl")
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=MSTCTL_TIMEOUT_S)
        # Exit 1 means failed cells, which the driver counts itself.
        ok = proc.returncode in (0, 1) and same_bytes(csv, grid["csv"])
        if metrics:
            ok = ok and same_bytes(metrics + ".mstctl", metrics)
        checks.append({"name": "mstctl_sweep_identical", "ok": ok,
                       "detail": os.path.basename(grid["spec"])})
    if result["journal_dir"]:
        merged = os.path.join(os.path.dirname(result["journal_dir"]), "merged.csv.mstctl")
        proc = subprocess.run([mstctl, "--mode=merge", f"--journal={result['journal_dir']}",
                               f"--out-file={merged}"],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=MSTCTL_TIMEOUT_S)
        ok = proc.returncode in (0, 1) and same_bytes(merged, result["grids"][0]["csv"])
        checks.append({"name": "mstctl_merge_identical", "ok": ok, "detail": "2 shards"})
    return checks


def run_workload(drv, mstctl, workload, seed, seconds, trace, quick=False):
    out = os.path.join(WORK, "runs", f"{workload}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [drv, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}", f"--specs={os.path.join(HERE, 'specs')}", f"--out={out}"]
    if quick:
        cmd.append("--quick=1")
    sys.stdout.flush()
    proc = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver failed with exit code {proc.returncode}")
    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)
    result["checks"] += mstctl_checks(mstctl, result, seed)
    result["correct"] = result["correct"] and all(c["ok"] for c in result["checks"]
                                                  if c["name"].startswith("mstctl_"))
    return result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selected(bench, result, trace):
    """The BENCHMARK.json metrics of this mode, with their declared units."""
    metrics = {}
    for entry in bench["per_layer" if trace else "end_to_end"]:
        m = result["metrics"].get(entry["name"])
        if m is None or m["value"] is None:
            raise BenchError(f"metric {entry['name']} was not measured")
        if m["unit"] != entry["unit"]:
            raise BenchError(f"metric {entry['name']}: unit {m['unit']}, "
                             f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return metrics


def print_tags(result):
    host = result["host"]
    log(f"seed {result['seed']}  compiler {host['compiler']}  build {host['build_type']} "
        f"flags [{host['cxx_flags'].strip()}]  nproc {host['nproc']}  "
        f"cpu {host['cpu_model']}  host.calib_ms {host['calib_ms']:.4f}")
    for c in result["checks"]:
        if c["name"].startswith("mstctl_"):
            log(f"check {c['name']:<30} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")


def self_check(drv, mstctl, bench):
    """Every workload at tiny scale, twice per mode: every named metric
    prints with its unit, the counts repeat across processes, and every
    check runs."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = [run_workload(drv, mstctl, workload, 3, 0, trace, quick=True)
                    for _ in range(2)]
            where = f"{workload} trace {trace}"
            for r in runs:
                try:
                    selected(bench, r, trace)
                except BenchError as e:
                    problems.append(f"{where}: {e}")
                if not r["correct"]:
                    problems.append(f"{where}: a structural check failed")
                names = {c["name"] for c in r["checks"]}
                expected = {"cells_ok", "optimal_labels", "lower_bounds", "feasibility_sample",
                            "mstctl_sweep_identical"}
                expected |= ({"traced_equals_untraced", "thread_counts_identical",
                              "timed_registry_same_grid", "core_probe_counts",
                              "stream_rerun_identical", "journal_probe_roundtrip"} if trace
                             else {"iterations_identical"})
                if workload == "grid-journaled" and not trace:
                    expected |= {"merged_equals_single_process", "mstctl_merge_identical"}
                if not expected <= names:
                    problems.append(f"{where}: checks missing: {sorted(expected - names)}")
            if not runs[0]["counts"]:
                problems.append(f"{where}: no counts recorded")
            first = (runs[0]["counts"], runs[0]["failed"])
            if any((r["counts"], r["failed"]) != first for r in runs[1:]):
                problems.append(f"{where}: counts differ between two runs")
    for p in problems:
        log("self-check:", p)
    log("self-check:", "FAILED" if problems else "ok")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    try:
        bench = load_benchmark()
        drv, mstctl = build()
        if args.self_check:
            return self_check(drv, mstctl, bench)
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        result = run_workload(drv, mstctl, args.workload, args.seed, seconds, args.trace)
        metrics = selected(bench, result, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print_tags(result)
    log(f"failed {result['failed']} of {result['attempted']} cells "
        f"(failed_frac {result['failed'] / result['attempted']:.6g}); "
        f"correct {str(result['correct']).lower()}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
