"""Runs one workload in its own process and prints its raw result as JSON.

Started by run.py with the checkout's src/ on PYTHONPATH and, where the
workload asks for it, BLAS pinned in the environment. With --setup-only it
imports the library, generates the inputs and exits: run.py times that as
the set-up cost. Otherwise it repeats passes of the workload's CLI calls
until --seconds have gone (two at least), checks every pass, and reports:

  --trace 0  the untraced pass times, raw and rescaled to the reference
             host speed (see kernel_s), peak RSS after the first pass and
             the DOA outcome;
  --trace 1  per-layer metrics from the traced pass and replay, one value
             per pass reduced to the median; spans go to --spans at the end.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np


# The speed of a shared host drifts by tens of percent within seconds to
# minutes. On workloads that run on one core, a fixed pure-Python kernel is
# timed after every step of an untraced pass; the step's time times
# REF_KERNEL_S over the mean kernel time on either side of it is the time
# the step would take on a host that runs the kernel in REF_KERNEL_S (a
# 2-core x86-64 Xeon VM near its median speed).
REF_KERNEL_S = 0.045


def kernel_s():
    """Seconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter()
    acc, mask = 0, 0x5A5A5A
    for i in range(300_000):
        acc += ((mask >> (i & 15)) & (i | 3)).bit_count()
    return time.perf_counter() - t0


def _ref_seconds(timings):
    """Sum of step times, each rescaled by the kernel times around it when
    the kernel ran."""
    return sum(t if before is None else t * 2 * REF_KERNEL_S / (before + after)
               for t, before, after in timings)


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


TIMED_SPANS = (
    "doa.coarray_music", "doa.synthesize", "doa.coarray_statistics", "search.solve_p1",
    "analysis.fractal_weight", "analysis.economy", "analysis.beampattern",
    "analysis.product_beampattern", "core.difference_coarray", "fractal.expand",
    "coupling.leakage_from_profile", "coupling.verify_leakage_preservation",
    "cli.search", "cli.expand", "cli.analyze", "cli.compare", "cli.simulate",
)


def _doa_outcome(summary, wall):
    trials, successes, rmse = summary
    return {"trials_per_s": trials / wall, "rmse": rmse,
            "trial_fail_frac": (trials - successes) / trials}


def _layer_metrics(tracer, pid, outcome, span_cost):
    st = tracer.self_times(pid)
    m = {f"{name}.s": (st[name], "s") for name in TIMED_SPANS}
    trial_ms = [1000 * d for d in tracer.durations(pid, "doa.run_trial")]
    m["doa.run_trial.p50_ms"] = (_percentile(trial_ms, 50), "ms")
    m["doa.run_trial.p90_ms"] = (_percentile(trial_ms, 90), "ms")
    trials = tracer.pass_count(pid, "doa.trials")
    fails = {c: tracer.pass_count(pid, "doa.fail." + c)
             for c in ("all_dead", "identifiability", "peaks")}
    m["doa.trials"] = (trials, "count")
    for cause, n in fails.items():
        m["doa.fail." + cause] = (n, "count")
    m["doa.useful_frac"] = ((trials - sum(fails.values())) / trials if trials else 0.0, "ratio")
    used = tracer.pass_count(pid, "doa.virtual_halfwidth.trials")
    m["doa.virtual_halfwidth.mean"] = (
        tracer.pass_count(pid, "doa.virtual_halfwidth.sum") / used if used else 0.0, "lags")
    doa = _doa_outcome(outcome, st["cli.simulate"]) if outcome else {}
    m["doa.trials_per_s"] = (doa.get("trials_per_s", 0.0), "1/s")
    m["doa.rmse"] = (doa.get("rmse", 0.0), "norm")
    m["doa.trial_fail_frac"] = (doa.get("trial_fail_frac", 0.0), "ratio")
    for name in ("explored", "pruned", "solutions"):
        m["search." + name] = (tracer.pass_count(pid, "search." + name), "count")
    explored, solve_s = m["search.explored"][0], st["search.solve_p1"]
    m["search.explored_per_s"] = (explored / solve_s if solve_s else 0.0, "1/s")
    m["trace.overhead_s"] = (tracer.span_total(pid) * span_cost, "s")
    return m


def _median_metrics(per_pass):
    return {name: {"value": float(statistics.median(p[name][0] for p in per_pass)),
                   "unit": per_pass[0][name][1]}
            for name in per_pass[0]}


def _machine():
    import fracarray
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": threads or "library default (one per core)",
            "fracarray": fracarray.__version__}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import fracarray
    src = os.path.abspath("src")
    if not os.path.abspath(fracarray.__file__).startswith(src + os.sep):
        sys.exit(f"fracarray was imported from {fracarray.__file__}, not from {src}")
    import workloads
    from tracer import Tracer, span_cost

    wl = workloads.make(args.workload, args.tiny)
    wl.prepare(args.work)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    run = workloads.Runner(tracer, calibrate=kernel_s if wl.calibrated and not tracer else None)
    walls, refs, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.pass_id = len(walls)
        run.start_pass()
        result = wl.cli_pass(run, args.work, args.seed)
        walls.append(sum(t for t, _, _ in run.timings))
        refs.append(_ref_seconds(run.timings))
        if len(walls) == 1:
            # one pass sets the high-water mark; later ones only add allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.check(run, args.work, args.seed, result)
        if tracer:
            wl.replay(run, tracer, args.work, args.seed, result)
        outcomes.append(wl.outcome(result))
        elapsed = time.perf_counter() - start
        # at least two passes for a median; then stop when the next pass would
        # overshoot the deadline by more than is left
        if len(walls) >= 2 and elapsed + 0.5 * elapsed / len(walls) >= args.seconds:
            break
    if not tracer:
        wl.final_check(run, args.work, args.seed)

    out = {"attempted": run.attempted, "failed": run.failed, "checks": run.checks,
           "passes": len(walls), "machine": _machine(), "seeded": wl.seeded}
    if tracer:
        cost = span_cost()
        out["metrics"] = _median_metrics(
            [_layer_metrics(tracer, pid, outcomes[pid], cost) for pid in range(len(walls))])
        if args.spans:
            tracer.dump(args.spans)
    else:
        wall = statistics.median(walls)
        out["metrics"] = {"ref_wall_s": {"value": statistics.median(refs), "unit": "s"},
                          "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        out["wall_s"] = wall
        out["wall_s_max"] = max(walls)
        if outcomes[0]:
            out["doa"] = _doa_outcome(outcomes[0], wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
