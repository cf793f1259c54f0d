"""The benchmark under perfbench/ imports names from the library and reads
their fields and attributes; building each of its workloads here makes a
dropped name fail fast, and one tiny pass of each, checked as the benchmark
checks it, catches a dropped field or attribute."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_benchmark_workload_builds(name):
    assert workloads.make(name, True).name == name


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_tiny_pass_of_every_benchmark_workload_passes_its_checks(name, tmp_path):
    wl = workloads.make(name, True)
    work, seed = str(tmp_path), 1
    wl.prepare(work)
    runner = workloads.Runner()
    runner.start_pass()
    result = wl.cli_pass(runner, work, seed)
    wl.check(runner, work, seed, result)
    wl.replay(runner, NullTracer(), work, seed, result)
    wl.final_check(runner, work, seed)
    assert runner.failed == 0 and runner.checks > 0
