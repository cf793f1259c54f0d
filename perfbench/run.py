"""fracarray benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Each workload runs in a child process (worker.py), so that peak RSS is the
workload's own and BLAS threads can be pinned before numpy loads.

--trace 0 prints the end-to-end metrics: setup_s (median of several timed
set-ups: interpreter start, imports, input generation), ref_wall_s (median
time of one pass of the workload's CLI calls, rescaled to a reference host
speed by a calibration kernel timed between the calls) and peak_rss_mb; the
raw median pass time is printed as info wall_s. --trace 1
prints the per-layer metrics of a traced run and writes its spans under
.bench_out/. Every run checks the outputs; the last line of stdout is the
JSON result. README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("design_search", "expansion_analysis", "doa_snr", "doa_faults")
# BLAS threads per workload. doa_snr measures the library default.
# doa_faults runs simulate --threads 2 on a 2-core budget, where BLAS threads
# on top of the sweep's two workers would oversubscribe the cores.
# design_search and expansion_analysis make no BLAS calls: a default BLAS
# pool would only start idle threads, about half of numpy's import time,
# and put its jitter into setup_s.
PINNED_BLAS = {"design_search": "1", "expansion_analysis": "1", "doa_faults": "1"}
SETUP_SAMPLES = 6
DEADLINE_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def _git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _child_env(workload, root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if workload in PINNED_BLAS:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = PINNED_BLAS[workload]
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracarray", "__init__.py")):
        print("error: run from the root of a fracarray checkout (src/fracarray missing)",
              file=sys.stderr)
        return 2
    env = _child_env(args.workload, root)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=os.path.join(root, ".bench_work"))
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    spans = None
    setup = []

    def time_setup(count):
        # set-up samples are split around the measured run, so that a slow
        # spell of the machine during one of them does not set the median
        for _ in range(count if args.trace == 0 else 0):
            d = os.path.join(work, f"setup{len(setup)}")
            os.mkdir(d)
            t0 = time.perf_counter()
            subprocess.run(worker + ["--work", d, "--setup-only"], env=env, check=True,
                           timeout=DEADLINE_S - (time.monotonic() - started))
            setup.append(time.perf_counter() - t0)

    try:
        time_setup(SETUP_SAMPLES // 2)
        d = os.path.join(work, "run")
        os.mkdir(d)
        cmd = worker + ["--work", d]
        if args.trace:
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            spans = os.path.join(root, ".bench_out",
                                 f"spans-{args.workload}-seed{args.seed}.jsonl")
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: workload {args.workload} did not produce a result: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = res["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    machine = {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
               "python": platform.python_version(), **res["machine"],
               "git_commit": _git_commit(root), "platform": platform.platform()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {res['passes']}{' tiny' if args.tiny else ''}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("seed " + ("drives the DOA trial seeds (simulate --seed)" if res["seeded"]
                     else "unused: this workload draws nothing at random"))
    print(f"checks {res['checks']} failed_steps {res['failed']} attempted {res['attempted']}")
    if spans:
        print(f"spans {os.path.relpath(spans, root)}")
    extra = {"error_frac": (res["failed"] / res["attempted"], "ratio")}
    if "wall_s" in res:
        extra["wall_s"] = (res["wall_s"], "s")
        extra["wall_s.max"] = (res["wall_s_max"], "s")
    if setup:
        extra["setup_s.max"] = (max(setup), "s")
    units = {"trials_per_s": "1/s", "rmse": "norm", "trial_fail_frac": "ratio"}
    for name, value in res.get("doa", {}).items():
        extra[name] = (value, units[name])
    for name, m in sorted(metrics.items()):
        print(f"metric {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"info {name} {value!r} {unit}")
    print(json.dumps({"correct": res["failed"] == 0 and res["checks"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
