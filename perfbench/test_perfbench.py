"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
from spans import Span, Tracer, covered
from workloads import ROOT, TINY, TINY_SWEEP

mfrde = run.import_program()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(key: str) -> set:
    return {m["name"] for m in BENCH[key]}


class TestSelfTime:
    def test_union_of_overlapping_children(self):
        assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == pytest.approx(4)

    def test_children_clipped_to_parent(self):
        assert covered([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3)

    def test_no_children(self):
        assert covered([], 0, 10) == 0

    def test_self_time_counts_direct_children_only(self):
        tracer = Tracer()
        tracer.spans = [Span(0, "op", None, 1, 0.0, 10.0),
                        Span(1, "a", 0, 1, 1.0, 4.0),
                        Span(2, "b", 0, 1, 3.0, 5.0),
                        Span(3, "a.child", 1, 1, 1.5, 2.0)]
        kids = tracer.children()
        assert tracer.self_time(tracer.spans[0], kids) == pytest.approx(6.0)
        assert tracer.self_time(tracer.spans[1], kids) == pytest.approx(2.5)
        assert [s.id for s in tracer.descendants(tracer.spans[0], kids)] == [1, 2, 3]

    def test_nested_spans_link_to_parents(self):
        tracer = Tracer()
        with tracer.op("op"):
            with tracer.span("inner"):
                pass
        assert [(s.name, s.parent) for s in tracer.spans] == [("op", None), ("inner", 0)]


class TestMissingLayer:
    def test_missing_name_is_recorded_not_raised(self):
        tracer = Tracer()
        assert not tracer.wrap(sys.modules[__name__], "no_such_function", "x")
        assert tracer.missing == [f"{__name__}.no_such_function"]

    def test_metrics_of_a_missing_layer_are_dropped(self):
        cycle = {name: 1.0 for name in names("per_layer")}
        out = layers.combine([cycle], {}, ["mfrde.estimator.leaf_indices"])
        assert "geometry.leaf_walks" not in out
        assert "estimator.fit_self_s" not in out
        assert out["estimator.fit_s"] == 1.0


def check_result(result: dict, key: str) -> None:
    assert result.pop("samples")["cycles"] >= run.MIN_CYCLES
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == names(key)
    units = {m["name"]: m["unit"] for m in BENCH[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    result = run.measure(mfrde, TINY[workload], seed=3, seconds=0, trace=bool(trace),
                         work=tmp_path, tiny=True)
    check_result(result, "per_layer" if trace else "end_to_end")
    if trace:
        metrics = result["metrics"]
        assert metrics["geometry.leaf_walks"]["value"] > 0
        assert metrics["evaluation.fit_calls"]["value"] == 2 * len(TINY_SWEEP["schemes"])


def test_corrupted_reference_is_a_failed_operation(tmp_path):
    doc = json.loads(run.REFERENCE.read_text())
    doc["big-blocks"]["score"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(doc))
    tally = run.Tally()
    run.check_reference(mfrde, "big-blocks", tmp_path / "work", tally, corrupted)
    assert tally.failed == 1 and tally.attempted > 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-blocks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
