"""Self-test of the benchmark, and the recorder of its stored reference.

    python3 bench/selftest.py            # check the benchmark itself
    python3 bench/selftest.py --record   # rewrite reference_seed0.json

The check runs every workload for one second in both modes and validates
the output schema against BENCHMARK.json, shows that a corrupted stored
reference expression makes the failure share positive, compares the
continuous quartic example with the paper, and shows that the runner
refuses a directory without the specpot sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts the sources on sys.path)
import workloads  # noqa: E402
import reference as ref  # noqa: E402

RECORDED = ("gen-cli", "spectrum")


def _scratch():
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def record():
    """Store the default seed's outputs of one pass over each template."""
    from sympy.core.cache import clear_cache
    stored = {}
    workdir = _scratch()
    try:
        for name in RECORDED:
            inputs = workloads.build(name, worker.DEFAULT_SEED, workdir)
            for op in inputs.ops[:inputs.cycle]:
                clear_cache()
                try:
                    value, error = op.call(), None
                except Exception as exc:
                    value, error = None, exc
                problems = op.check(value, error)
                if problems:
                    raise SystemExit("%s: %s" % (op.key, problems))
                if error is None:
                    stored[op.key] = {
                        k: [str(x) for x in v] if isinstance(v, list)
                        else str(v)
                        for k, v in op.summarize(value).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(worker.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("stored %d reference outputs" % len(stored))


def run_bench(args, cwd=ROOT):
    """Run the benchmark command as the root of a checkout would."""
    proc = subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout


def check_schema(spec):
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) == set(workloads.WORKLOADS), names
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run_bench(["--workload", name, "--seed", "0",
                                 "--seconds", "1", "--trace", str(trace)])
            assert rc == 0, (name, trace, rc)
            result = json.loads(out.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, \
                (name, trace, out)
            assert isinstance(result["attempted"], int) \
                and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            assert set(got) == set(want), set(got) ^ set(want)
            for metric, entry in got.items():
                assert set(entry) == {"value", "unit"}
                assert entry["unit"] == want[metric]
                assert isinstance(entry["value"], (int, float))
            if trace == 0:
                assert all(entry["value"] > 0 for entry in got.values()), got
            print("schema ok: %s --trace %d" % (name, trace))


def check_corrupted_reference():
    """A wrong stored expression must count as a failed op."""
    with open(worker.REFERENCE_FILE, encoding="utf-8") as fh:
        stored = json.load(fh)
    workdir = _scratch()
    try:
        inputs = workloads.build("gen-cli", worker.DEFAULT_SEED, workdir)
        first = inputs.ops[0]
        inputs.ops = [first]
        clean = worker.measure(inputs, worker.DEFAULT_SEED, 0.01, 0, stored)
        assert clean["failed"] == 0, clean["problems"]
        corrupted = dict(stored)
        V = ref.parse(stored[first.key]["V"])
        corrupted[first.key] = dict(stored[first.key], V=str(V + 1 / ref.z))
        bad = worker.measure(inputs, worker.DEFAULT_SEED, 0.01, 0, corrupted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert bad["failed"] / bad["attempted"] > 0, bad
    print("corrupted reference detected: fail_frac = %d/%d"
          % (bad["failed"], bad["attempted"]))


def check_quartic_example():
    """The continuous quartic example, too slow for a timed op."""
    from specpot import families
    ex = ref.CONTINUOUS_POLY
    res = families.gen_family3_poly(ex["F"])
    problems = ref.check_potential("3poly", ex["nu"], res.M, res.H, res.V,
                                   res.w_roots)
    problems += ref.check_paper("continuous-poly", res.M, res.H, res.V,
                                res.w_roots)
    assert not problems, problems
    print("continuous quartic example matches the paper")


def check_refuses_bare_directory():
    """Without the specpot sources the runner exits non-zero, silently."""
    bare = _scratch()
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = run_bench(["--workload", "docs", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0 and '"metrics"' not in out, (rc, out)
    print("bare directory refused with exit code %d" % rc)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the stored reference of the default "
                             "seed from the current code")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_corrupted_reference()
    check_quartic_example()
    check_refuses_bare_directory()
    check_schema(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
