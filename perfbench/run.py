#!/usr/bin/env python3
"""Host-time benchmark of the vfpga library: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (an optimised build of the repository's src/ libraries plus the
perfbench_vfpga program) into .bench_build/; later runs reuse it. The
workload runs in a process of its own, its sidecar files go to a temporary
directory under .bench_build/ that is removed afterwards, and traced runs
keep their span files in .bench_build/traces/.

Human-readable lines go to stdout first (every metric by name and unit,
with its workload-specific alias from spec.json, and failed_frac). The
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

Exit codes: 0 all gates passed; 1 a correctness or determinism gate failed
(the result line is still printed, with "correct": false); 2 the build,
the environment or the arguments were refused (no result line).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench_vfpga"
DEADLINE_S = 175  # every run must end within 180 s once built...
BUILD_RUN_DEADLINE_S = 880  # ...and within 900 s when it builds first


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    """Configures (once) and builds perfbench_vfpga; returns when current."""
    generated = BINARY.parent / "Makefile"  # written only by a good configure
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock, open(log, "w") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not generated.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BINARY.parent),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BINARY.parent), "--target",
                      "perfbench_vfpga", "-j", str(jobs)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    bench_file = ROOT / "BENCHMARK.json"
    spec_file = HERE / "spec.json"
    if not bench_file.exists() or not spec_file.exists():
        fail("BENCHMARK.json or perfbench/spec.json missing")
    bench = json.loads(bench_file.read_text())
    spec = json.loads(spec_file.read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    build(min(len(os.sched_getaffinity(0)), 4))
    built = time.monotonic() - start > 30  # more than an up-to-date check

    runs = BUILD / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        cmd = [str(BINARY), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--out", str(out_dir)]
        deadline = BUILD_RUN_DEADLINE_S if built else DEADLINE_S
        budget = max(10.0, deadline - (time.monotonic() - start))
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} did not finish within {budget:.0f} s")
        results = out_dir / "results.json"
        if proc.returncode not in (0, 1) or not results.exists():
            fail(f"{args.workload} exited with {proc.returncode}")
        report(bench, spec, args.workload, args.trace, seed,
               json.loads(results.read_text()))
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            for f in out_dir.glob("*.json"):
                if f.name != "results.json":
                    shutil.copy(f, traces / f"seed{seed}-{f.name}")
        sys.exit(0 if proc.returncode == 0 else 1)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def report(bench, spec, workload, trace, seed, rows):
    metrics, gauges, info = {}, {}, {}
    for row in rows:
        labels = row["labels"]
        if row["name"] == "perfbench_metric":
            metrics[labels["name"]] = (row["value"], labels["unit"])
        elif row["name"] == "perfbench_build_info":
            info = labels
        else:
            gauges[row["name"]] = row["value"]

    listed = bench["per_layer"] if trace else bench["end_to_end"]
    measured_on = spec["per_layer"]
    aliases = spec["workloads"][workload]["aliases"]
    out = {}
    for m in listed:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            value, got_unit = metrics[name]
            if got_unit != unit:
                fail(f"{name}: unit {got_unit!r}, BENCHMARK.json says {unit!r}")
        elif trace and workload not in measured_on[name]["measured_on"]:
            value = 0  # the layer does no work on this workload
        else:
            fail(f"{workload} did not report {name}")
        out[name] = {"value": value, "unit": unit}
    extra = sorted(set(metrics) - {m["name"] for m in listed})
    if extra:
        fail(f"{workload} reported metrics BENCHMARK.json does not list: {extra}")

    attempted = int(gauges["perfbench_attempted"])
    failed = int(gauges["perfbench_failed"])
    correct = gauges["perfbench_correct"] == 1
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"build {info.get('build_type')}  {info.get('compiler')}  "
          f"nproc {info.get('nproc')}")
    for name, m in out.items():
        alias = aliases.get(name, "")
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:8s} {alias}")
    print(f"  {'failed_frac':32s} {failed / max(attempted, 1):>16.6g} "
          f"{'ratio':8s} {failed} of {attempted} attempted")
    print(f"  correctness and determinism gates: "
          f"{'pass' if correct else 'FAIL'}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
