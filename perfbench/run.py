#!/usr/bin/env python3
"""Build and run the ActorProf ledger benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --short

Builds perfbench/ (and with it every library source under src/) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that is
set, then runs one workload. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (and writes the run's
spans to .bench_run/<workload>-spans.json). --short runs every workload
once on small inputs, traced and untraced, with every check on.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["triangle-case", "histogram-fine", "pagerank-fleet"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def checkout_env():
    """The environment for child processes, with temporary files (the
    compiler's included) kept inside the checkout."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an up-to-date tree is a no-op, and configuring every time
    # recovers a tree whose first configure failed.
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "-j", jobs]]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, cwd=ROOT, env=checkout_env(),
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: build timed out\n")
            return None
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return out


def run(binary, args, capture):
    cmd = [str(binary)] + args + ["--out", str(ROOT / ".bench_run")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=checkout_env(),
                              timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % " ".join(args))
        return None


def short(out):
    ok = True
    for trace in ("0", "1"):
        binary = out / ("perfbench_ledger_traced" if trace == "1"
                        else "perfbench_ledger")
        for w in WORKLOADS:
            res = run(binary, ["--workload", w, "--seed", "1", "--seconds",
                               "1", "--trace", trace, "--short"], True)
            result = None
            if res is not None and res.returncode == 0 and res.stdout:
                result = json.loads(res.stdout.strip().splitlines()[-1])
            good = result is not None and result["correct"] and \
                result["failed"] == 0
            ok = ok and good
            print("%-15s trace=%s %s" % (
                w, trace,
                "%d checks, 0 failed" % result["attempted"] if good
                else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--short", action="store_true")
    a = p.parse_args()
    if not a.short and a.workload is None:
        p.error("--workload is required unless --short is given")

    out = build()
    if out is None:
        return 2
    if a.short:
        return short(out)
    binary = out / ("perfbench_ledger_traced" if a.trace == "1"
                    else "perfbench_ledger")
    res = run(binary, ["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", a.trace], False)
    return 1 if res is None else res.returncode


if __name__ == "__main__":
    sys.exit(main())
