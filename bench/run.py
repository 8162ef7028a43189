"""Benchmark runner for specpot.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout.  Each workload runs in fresh
interpreters with PYTHONHASHSEED=0: SETUP_SAMPLES - 1 processes that only
set up, then one that sets up and times ops for S seconds.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before
it give the environment and the figures that are not gated (tail latency,
failure share, repeated-input share).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-up is measured this many times per run; the median is reported
SETUP_SAMPLES = 3
#: a run must end well within 180 s, checks and set-up included
DEADLINE_S = 170


class BenchError(Exception):
    pass


def environment(seconds, trace):
    """What the figures depend on besides the code."""
    sources = sorted(f for f in os.listdir(os.path.join(ROOT, "src",
                                                        "specpot"))
                     if f.endswith(".py"))
    digest = hashlib.sha256()
    for name in sources:
        with open(os.path.join(ROOT, "src", "specpot", name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    try:
        gmpy = importlib.metadata.version("gmpy2")
    except importlib.metadata.PackageNotFoundError:
        gmpy = None
    try:
        flint = importlib.metadata.version("python-flint")
    except importlib.metadata.PackageNotFoundError:
        flint = None
    return {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "gmpy2": gmpy, "python_flint": flint,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seconds": seconds, "trace": trace,
    }


def git_commit():
    """The checked-out commit, or None outside a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def spawn(args, deadline):
    """Run one worker process; return its result dict."""
    result_path = os.path.join(args["workdir"], "result.json")
    cmd = [sys.executable, "-B", os.path.join(HERE, "worker.py"),
           "--workload", args["workload"], "--seed", str(args["seed"]),
           "--seconds", str(args["seconds"]), "--trace", str(args["trace"]),
           "--workdir", args["workdir"], "--result", result_path]
    if args.get("setup_only"):
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another process")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(start)], env=env,
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded %.0f s" % timeout) from exc
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; return the worker's figures and set-up times."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work",
                           "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir)
    try:
        args = {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "workdir": workdir}
        # the untraced run alone reports setup_s, so only it pays for samples
        n_probes = 0 if trace else SETUP_SAMPLES - 1
        probes = [spawn(dict(args, setup_only=True), deadline)
                  for _ in range(n_probes)]
        result = spawn(args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(workdir))
    # each process rescales its own set-up time by its own speed
    result["raw_setup_samples_s"] = [p["setup_s"] for p in probes] \
        + [result["setup_s"]]
    result["setup_s"] = statistics.median(
        p["setup_s"] / p["setup_speed"] for p in probes + [result])
    return result


def select(result, spec, trace):
    """The metrics BENCHMARK.json names for this mode, with their units."""
    if trace:
        names, source = spec["per_layer"], result["per_layer"]
    else:
        names, source = spec["end_to_end"], result
    metrics = {}
    for entry in names:
        # a function the traced ops never called has no span at all
        value = source.get(entry["name"], 0) if trace else source[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return metrics


def info(workload, result):
    """The figures printed but not gated."""
    attempted = result["attempted"]
    return {
        "workload": workload,
        "ops": result["ops"],
        "speed": result["speed"],
        "calibrations": result["calibrations"],
        "raw_ops_per_s": result["raw_ops_per_s"],
        "raw_op_p50_s": result["raw_op_p50_s"],
        "op_tail_s": result["op_tail_s"],
        "fail_frac": result["failed"] / attempted,
        "repeat_share": result["repeat_share"],
        "raw_setup_samples_s": result["raw_setup_samples_s"],
        "problems": result["problems"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "specpot",
                                       "__init__.py")):
        print("run.py: no specpot sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error("unknown workload %r, expected one of %s or all"
                     % (args.workload, ", ".join(names)))
    seconds = args.seconds or spec["run_seconds"]
    env = environment(seconds, args.trace)

    workloads = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, seconds, args.trace)
        except BenchError as exc:
            print("run.py: %s: %s" % (workload, exc), file=sys.stderr)
            return 1
        metrics = select(result, spec, args.trace)
        env["sympy_ground_types"] = result["ground_types"]
        print(json.dumps(info(workload, result)))
        if args.workload == "all":
            for name, m in metrics.items():
                print("%-12s %-40s %14.6g %s" % (workload, name, m["value"],
                                                 m["unit"]))
            metrics = {"%s.%s" % (workload, k): v for k, v in metrics.items()}
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(metrics)
    summary["correct"] = summary["failed"] == 0
    print(json.dumps({"environment": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
