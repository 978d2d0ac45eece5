#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe in release mode into .bench_build/, then runs
the workload in a fresh process.  With --trace 0 the last stdout line is
the end-to-end result; with --trace 1 a plain run and a traced run are
made, each in its own process, and the last line carries the per-layer
metrics, trace_overhead_frac (traced vs plain timed stretches) and the
check that tracing did not change any exact count.  Span files go to
.bench_build/traces/.  Exits non-zero on any failed check.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("udg-sparse", "gnm-dense", "serve-churn")
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # all runs of one invocation, after the build


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out, err


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of an fdlsp source checkout (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(BUILD_DIR, "xdg-cache")
    env["XDG_CONFIG_HOME"] = os.path.join(BUILD_DIR, "xdg-config")
    code, out, err = run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "dune")),
         "--profile", "release", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S, env)
    if code != 0:
        sys.stderr.write(out + err)
        die("build failed")
    return os.path.join(BUILD_DIR, "dune", "default", "perfbench", "bench.exe")


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if os.path.isdir(".git"):
        code, out, _ = run(["git", "rev-parse", "HEAD"], 30)
        if code == 0:
            return out.strip()
    return "unknown"


def run_bench(exe, args, mode, deadline):
    tmp = os.path.join(BUILD_DIR, "tmp", "%s-%d-%s-%d" % (args.workload, args.seed, mode, os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--tmp", tmp]
    if mode == "traced":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(traces, "%s-seed%d" % (args.workload, args.seed))]
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    try:
        code, out, err = run(cmd, max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(err)
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    if len(lines) < 3 or "metrics" not in lines[-1]:
        sys.stderr.write(out)
        die("%s run of %s exited %d without a result" % (mode, args.workload, code))
    host, detail, result = lines[-3]["host"], lines[-2]["detail"], lines[-1]
    return host, detail, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    exe = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    host, detail, result = run_bench(exe, args, "plain", deadline)
    host.update({"nproc_os": os.cpu_count(), "commit": commit(), "source_sha256": source_digest()})
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": detail}))

    if args.trace == 1:
        _, tdetail, traced = run_bench(exe, args, "traced", deadline)
        print(json.dumps({"detail_traced": tdetail}))
        mismatch = {k: (v, tdetail["exact"].get(k)) for k, v in detail["exact"].items()
                    if tdetail["exact"].get(k) != v}
        if mismatch:
            print("perfbench: tracing changed exact counts: %s" % mismatch, file=sys.stderr)
        common = [k for k in detail["stretch_s"] if k in tdetail["stretch_s"]]
        plain_s = sum(detail["stretch_s"][k] for k in common)
        traced_s = sum(tdetail["stretch_s"][k] for k in common)
        metrics = traced["metrics"]
        metrics["trace_overhead_frac"]["value"] = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
        result = {
            "correct": bool(result["correct"] and traced["correct"] and not mismatch),
            "attempted": result["attempted"] + traced["attempted"] + 1,
            "failed": result["failed"] + traced["failed"] + (1 if mismatch else 0),
            "metrics": metrics,
        }

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
