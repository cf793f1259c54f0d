"""The benchmark under perfbench/ imports names from the library; building
each of its workloads here makes a dropped name fail fast."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_benchmark_workload_builds(name):
    assert workloads.make(name, True).name == name
