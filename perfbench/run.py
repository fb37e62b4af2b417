#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from the repository's sources
(untimed), then runs one workload and prints its metrics.

    python3 perfbench/run.py --workload offline|serve|parallelize \
        --seed <n> --seconds <s> --trace 0|1

Run from the repository root. The build lives in .bench_build/ and the
serve checkpoint (trained once per checkout, untimed) beside it. The last
line of stdout is one JSON object: correct, attempted, failed, metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
STATE = ROOT / ".bench_build" / "perfbench-state"
TMP = ROOT / ".bench_build" / "tmp"
DRIVER_TIMEOUT_S = 170
WORKLOADS = ("offline", "serve", "parallelize")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, env):
    with open(log, "w") as f:
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                            env=env).returncode
    if rc != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"{' '.join(map(str, cmd[:3]))} failed (exit {rc}); log: {log}")


def build(env):
    """Configures once and builds the driver; a no-op when up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the repository sources (CMakeLists.txt, src/) are not here; "
             "run from the root of a full checkout", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    TMP.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen],
                   BUILD / "configure.log", env)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                "-j", jobs], BUILD / "build.log", env)
    return BUILD / "perfbench_driver"


def steal_ticks():
    """Host steal time from /proc/stat (USER_HZ ticks), or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 \
            else None
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ, TMPDIR=str(TMP))
    driver = build(env)
    if args.workload == "serve" and not (STATE / "serve.mvck").is_file():
        run_logged([str(driver), "--prepare-serve", "--state-dir", str(STATE)],
                   BUILD / "prepare-serve.log", env)

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", str(STATE)]
    steal0 = steal_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    steal1 = steal_ticks()

    lines = out.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            result = None
    for line in lines:
        print(line)
    steal = steal1 - steal0 if steal0 is not None and steal1 is not None \
        else "unknown"
    print(f"context: host_steal_ticks={steal} cpus_online={os.cpu_count()}")
    if result is None or proc.returncode != 0:
        if result is not None:
            print(json.dumps(result))
        fail(f"driver exited {proc.returncode}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
