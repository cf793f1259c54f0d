"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py      (from the root of a checkout)

Runs every workload run.py knows at tiny size, untraced and traced,
and checks that each run ends with the JSON result line, that every metric
BENCHMARK.json names is printed with its unit, and that the output checks
ran and passed. Last, it checks that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (every runnable workload, listed or not)


def _run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_run(proc, wanted):
    problems = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"outcome correct={res.get('correct')} failed={res.get('failed')} "
                        f"attempted={res.get('attempted')}")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}"
                        f" or units {[(n, u) for n, u in got.items() if wanted.get(n) != u]}")
    for name, unit in wanted.items():
        if not any(re.fullmatch(rf"metric {re.escape(name)} \S+ {re.escape(unit)}", ln)
                   for ln in lines):
            problems.append(f"no printed line for {name} in {unit}")
    checks = [int(m.group(1)) for m in map(re.compile(r"checks (\d+) ").match, lines) if m]
    if not checks or checks[0] < 1:
        problems.append("the output checks did not run")
    return problems


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            problems = _check_run(_run(root, name, trace), wanted[trace])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            failures += bool(problems)
            print(f"{name} trace {trace}: {status}")

    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, ".bench_work"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, bench["workloads"][0]["name"], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        refused = proc.returncode != 0 and not last[0].startswith("{")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not refused
    print(f"bare directory: {'refused' if refused else 'FAIL: ran without the library'}")
    print("selftest " + ("passed" if not failures else f"failed ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
