"""Self-tests of the benchmark: tiny smoke runs and tracer passivity.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import points  # noqa: E402
from tracer import LayerTracer, RunProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_workloads_match_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(points.WORKLOADS)


@pytest.mark.parametrize("workload", list(points.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= len(points.WORKLOADS[workload](True))
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    for name in ("wall_s", "setup_s", "peak_rss_mb", "points",
                 "points_failed"):
        assert f"\n{name} = " in "\n" + proc.stdout
    assert "sim_digest " in proc.stdout
    if trace:
        # Passivity: tracing must not change a single simulated output.
        assert "traced digest" not in proc.stderr
        digests = proc.stdout.split("sim_digest ")[1].split()
        assert digests[0] == digests[2]


def _class_attributes():
    """Every class attribute the tracer and probe may replace."""
    import repro
    seen = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for obj in list(vars(module).values()):
            if isinstance(obj, type) and obj.__module__.startswith("repro"):
                seen[obj] = dict(vars(obj))
    assert repro
    return seen


def test_tracer_is_passive_and_leaves_no_wrapper():
    point = points.sched_fifo(True)[0]
    before = _class_attributes()
    probe = RunProbe()
    with probe:
        plain = point.check(point.run(5), None)[0]
        tracer = LayerTracer()
        probe.reset()
        with tracer:
            tracer.begin_point(point.label)
            traced = point.check(point.run(5), None)[0]
            tracer.end_point(probe.envs)
    assert traced == plain
    metrics = tracer.metrics(1.0, 1)
    assert metrics["sim.process_resumes"] > 0
    assert metrics["sim.events_dispatched"] > 0
    assert tracer.self_s["sim"] > 0
    after = _class_attributes()
    for cls, attrs in before.items():
        now = after[cls]
        assert now.keys() == attrs.keys(), cls
        for key, value in attrs.items():
            assert now[key] is value, f"{cls.__name__}.{key} not restored"
