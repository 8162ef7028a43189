"""One benchmark process: set up one workload, time its ops, check every
output, and write the figures as JSON.

Run by ``run.py`` in a fresh interpreter per sample, with a fixed
PYTHONHASHSEED, so each run pays the cold start that every CLI user pays.
"""

from __future__ import annotations

import argparse
import collections
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: the seed whose outputs are stored in REFERENCE_FILE
DEFAULT_SEED = 0
REFERENCE_FILE = os.path.join(HERE, "reference_seed0.json")
#: the loop also stops after this much wall time, checks included
WALL_FACTOR = 3.0
#: median time of calibration() on the machine the benchmark was written
#: on: a 2-core 2 GHz virtual machine, Python 3.11, sympy 1.14
CALIBRATION_REFERENCE_S = 0.075
#: wall time between calibration samples during the timed loop
CALIBRATION_INTERVAL_S = 1.0
#: calibration samples around an op whose median rescales it; one sample
#: varies by ±15%, and the machine's speed drifts over tens of seconds
CALIBRATION_WINDOW = 5
#: calibration samples taken right after set-up, for setup_s
SETUP_CALIBRATIONS = 3


def calibration():
    """Time a fixed sympy computation that no change to specpot can alter.

    The machine's speed drifts by up to ±30% over minutes as other work
    comes and goes on it.  Timed right before and after an op, this computation
    drifts with it: over blocks of 20 spectrum calls, raw time varied by
    ±13% while time over calibration time varied by ±2.5%.  Dividing by
    the calibration time and multiplying by CALIBRATION_REFERENCE_S gives
    the op's time at the reference machine's nominal speed.
    """
    import sympy as sp
    from sympy.core.cache import clear_cache
    z, E = sp.symbols("z E")
    gc.collect()
    clear_cache()
    start = time.perf_counter()
    sp.cancel(sp.together(sum((E + k) / (z ** 2 + k * z + 1)
                              for k in range(5))))
    return time.perf_counter() - start


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, or None when the run has fewer than eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(latencies)[rank - 1],
            "percentile": round(100.0 * rank / n, 2), "samples": n}


def mix_figures(latencies, positions):
    """ops_per_s and op_p50_s of the workload's mix.

    Each template position of the cycle weighs the same however often the
    run reached it, so a run that stops partway through a pass does not
    tilt the mix toward the templates that come first: ops_per_s is the
    number of positions over the sum of their mean latencies, and op_p50_s
    the median with each op weighted by 1 / (ops at its position).  When
    the weight below a gap is exactly half, the median is the gap's
    midpoint.
    """
    count = collections.Counter(positions)
    by_position = collections.defaultdict(list)
    for lat, position in zip(latencies, positions):
        by_position[position].append(lat)
    ops_per_s = len(count) / sum(statistics.mean(v)
                                 for v in by_position.values())
    ranked = sorted((lat, 1.0 / count[p])
                    for lat, p in zip(latencies, positions))
    half, acc = len(count) / 2.0, 0.0
    for i, (lat, weight) in enumerate(ranked):
        acc += weight
        if abs(acc - half) < 1e-9:
            return ops_per_s, (lat + ranked[i + 1][0]) / 2
        if acc > half:
            return ops_per_s, lat
    raise ValueError("no latencies")


def compare_stored(op, value, stored):
    """Problems of an op's outputs against the stored reference."""
    import reference as ref
    summary = op.summarize(value)
    problems = []
    for name, want in stored.items():
        got = summary[name]
        if isinstance(want, list):
            ok = len(got) == len(want) and all(
                ref.same(g, ref.parse(w)) for g, w in zip(got, want))
        else:
            ok = got is not None and ref.same(got, ref.parse(want))
        if not ok:
            problems.append("%s differs from the stored reference" % name)
    return problems


class Pass:
    """Timed ops with their checks."""

    def __init__(self, stored):
        self.stored = stored
        self.latencies = []
        self.positions = []
        self.keys = []
        self.kept_pairs = 0                # eigenpairs returned by spectrum ops
        self.calibrations = []             # (index of the next op, time)
        self.failed = 0
        self.problems = []

    def run_one(self, op, position, tracer=None):
        """Time one op on a cold cache, then check its outcome."""
        from sympy.core.cache import clear_cache
        clear_cache()
        start = time.perf_counter()
        try:
            value = tracer.run_op(op.kind, op.call) if tracer else op.call()
            error = None
        except Exception as exc:  # a failed op is counted, not fatal
            value, error = None, exc
        elapsed = time.perf_counter() - start
        problems = op.check(value, error)
        if not problems and op.key in self.stored:
            problems = compare_stored(op, value, self.stored[op.key])
        self.latencies.append(elapsed)
        self.positions.append(position)
        self.keys.append(op.key)
        if isinstance(value, list):
            self.kept_pairs += len(value)
        if problems:
            self.failed += 1
            self.problems += ["%s: %s" % (op.key, p) for p in problems]

    @property
    def repeat_share(self):
        return 1 - len(set(self.keys)) / len(self.keys)

    def calibrate(self):
        self.calibrations.append((len(self.latencies), calibration()))

    def speeds(self):
        """Per op: the median of the CALIBRATION_WINDOW calibration times
        taken nearest to it, over the reference time."""
        points = self.calibrations
        half = CALIBRATION_WINDOW // 2
        out = []
        j = 0                               # first sample taken after op i
        for i in range(len(self.latencies)):
            while points[j][0] <= i:
                j += 1
            lo = max(0, min(j - half, len(points) - CALIBRATION_WINDOW))
            window = [c for _, c in points[lo:lo + CALIBRATION_WINDOW]]
            out.append(statistics.median(window) / CALIBRATION_REFERENCE_S)
        return out


def run_passes(inputs, budget, stored, tracer=None):
    """Run ops until their untraced latencies add up to ``budget``.

    With a tracer, each op runs once more right after, traced, so that the
    two timings of an op share the machine's state and the cache warm-up.
    """
    untraced, traced = Pass(stored), Pass(stored)
    wall_end = time.monotonic() + WALL_FACTOR * budget + 5
    calibrated = -float("inf")
    for i, op in enumerate(itertools.cycle(inputs.ops)):
        if time.monotonic() - calibrated >= CALIBRATION_INTERVAL_S:
            untraced.calibrate()
            calibrated = time.monotonic()
        untraced.run_one(op, i % inputs.cycle)
        if tracer is not None:
            tracer.enabled = True
            traced.run_one(op, i % inputs.cycle, tracer)
            tracer.enabled = False
        if sum(untraced.latencies) >= budget \
                or time.monotonic() >= wall_end:
            break
    untraced.calibrate()
    return untraced, traced


def layer_metrics(tracer, traced, untraced):
    """Per-layer figures of the traced pass."""
    import tracing
    stats = tracing.aggregate(tracer.spans)
    out = {}
    for name, st in stats.items():
        if name.startswith("op."):
            continue
        out[name + ".calls"] = st["calls"]
        out[name + ".self_s"] = st["self_s"]
        out[name + ".total_s"] = st["total_s"]
    op_time = sum(st["total_s"] for name, st in stats.items()
                  if name.startswith("op."))
    for mod in tracing.MODULES:
        own = sum(st["self_s"] for name, st in stats.items()
                  if name.startswith(mod + "."))
        out["layer.%s.self_frac" % mod] = own / op_time if op_time else 0.0

    sizes = [s.size for s in tracer.spans
             if s.name.startswith("interp.") and s.size is not None]
    out["interp.M_terms"] = statistics.mean(s[0] for s in sizes) if sizes \
        else 0
    out["interp.M_deg_E"] = statistics.mean(s[1] for s in sizes) if sizes \
        else 0

    solves = [s for s in tracer.spans
              if s.name == "spectrum.liouvillian_eigenfunction"]
    found = sum(1 for s in solves if s.error is None)
    kept = traced.kept_pairs
    out["spectrum.candidates.found"] = found
    out["spectrum.candidates.no_solution"] = sum(
        1 for s in solves if s.error == "NoSolution")
    out["spectrum.candidates.off_interval"] = found - kept
    out["spectrum.no_solution_s"] = sum(
        s.end - s.start for s in solves if s.error == "NoSolution")
    out["spectrum.useful_ratio"] = kept / len(solves) if solves else 0.0
    out["document.bytes_written"] = tracer.size_total(
        "document.PotentialDocument.dumps")
    out["trace.ops"] = len(traced.latencies)
    out["trace.overhead_frac"] = \
        sum(traced.latencies) / sum(untraced.latencies) - 1
    out["inputs.repeat_share"] = untraced.repeat_share
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import specpot  # noqa: F401  (the import is part of set-up)
    import workloads
    inputs = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0
    from sympy.external.gmpy import GROUND_TYPES
    calibrations = [calibration() for _ in range(SETUP_CALIBRATIONS)]
    result = {"setup_s": setup_s, "ground_types": GROUND_TYPES,
              "setup_speed": statistics.median(calibrations)
              / CALIBRATION_REFERENCE_S}
    if not args.setup_only:
        result.update(measure(inputs, args.seed, args.seconds, args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(inputs, seed, seconds, trace, stored=None):
    """Time the workload's ops, check them, and summarize the run.

    Times are given twice: as measured (``raw_*``) and rescaled, op by op,
    to the reference speed by the calibrations around each op.
    """
    if stored is None:
        stored = {}
        if seed == DEFAULT_SEED and os.path.exists(REFERENCE_FILE):
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                stored = json.load(fh)
    result = {}
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        # each op runs twice, so half the budget keeps the run length
        untraced, traced = run_passes(inputs, seconds / 2, stored, tracer)
        result["per_layer"] = layer_metrics(tracer, traced, untraced)
    else:
        untraced, traced = run_passes(inputs, seconds, stored)
    passes = [untraced, traced]
    setup_problems = [check() for check in inputs.setup_checks]
    lat = untraced.latencies
    speeds = untraced.speeds()
    scaled = [t / s for t, s in zip(lat, speeds)]
    ops_per_s, op_p50_s = mix_figures(scaled, untraced.positions)
    raw_ops_per_s, raw_op_p50_s = mix_figures(lat, untraced.positions)
    result.update({
        "attempted": sum(len(p.latencies) for p in passes)
        + len(setup_problems),
        "failed": sum(p.failed for p in passes)
        + sum(1 for found in setup_problems if found),
        "problems": ([m for found in setup_problems for m in found]
                     + [m for p in passes for m in p.problems])[:20],
        "ops": len(lat),
        "speed": statistics.median(speeds),
        "calibrations": len(untraced.calibrations),
        "ops_per_s": ops_per_s,
        "op_p50_s": op_p50_s,
        "raw_ops_per_s": raw_ops_per_s,
        "raw_op_p50_s": raw_op_p50_s,
        "op_tail_s": tail_latency(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "repeat_share": untraced.repeat_share,
    })
    return result


if __name__ == "__main__":
    sys.exit(main())
