"""The benchmark's own output checks hold in-process: every case of each
workload named in BENCHMARK.json runs once through ``cli.main``, without
building its topology's zero set, exits 0, and its check in
``perfbench/workloads.py`` reports no problems."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from fadenet import cli, simulate
from fadenet.topology import Topology

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve the module's string annotations through sys.modules
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_outputs_pass_their_checks(name, monkeypatch):
    def unbuilt(topo):
        raise AssertionError("the zero set was built")

    workload = load_workloads().build(name, seed=0)  # the harness's default seed
    # the commands read only the hearer masks; the O(n^2) zero set is for
    # JSON and the tests
    monkeypatch.setattr(Topology, "zeros", property(unbuilt))
    for case in workload.cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case.argv)
        assert code == 0, (case.label, err.getvalue())
        problems, _ = case.check(out.getvalue(), err.getvalue())
        assert problems == [], case.label


def test_traced_foreign_function_resolves():
    # the harness's --trace 1 wraps simulate.logsumexp by name
    assert callable(simulate.logsumexp)
