"""The benchmark's own tests (not part of the program's test suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent


def _args(workload: str, seed: int = 3, seconds: int = 1) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=seed, seconds=seconds)


def test_self_time_subtracts_the_union_of_children(tmp_path):
    recorder = spans.SpanRecorder()
    parent, child = recorder.name_id("parent"), recorder.name_id("child")
    buffer = recorder.buffer()
    rows = [  # name, span, parent, start, end
        (parent, 1, 0, 1000, 1100),
        (child, 2, 1, 1010, 1040),
        (child, 3, 1, 1030, 1060),  # overlaps its sibling
        (child, 4, 1, 1090, 1120),  # ends after its parent
        (parent, 5, 0, 2000, 2050),  # set-up side of the split below
    ]
    for name, span, parent_id, start, end in rows:
        for column, value in zip(
            ("name", "span", "parent", "request", "start", "end"),
            (name, span, parent_id, 0, start, end),
        ):
            getattr(buffer, column).append(value)
    path = tmp_path / "t.spans"
    recorder.write(path)
    before, after = spans.summarize(path, split_ns=1500)
    assert before["parent"] == {"calls": 1, "total_ns": 100, "self_ns": 40}
    assert before["child"] == {"calls": 3, "total_ns": 90, "self_ns": 90}
    assert after["parent"] == {"calls": 1, "total_ns": 50, "self_ns": 50}


def test_wrappers_nest_and_restore(tmp_path):
    recorder = spans.SpanRecorder()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            time.sleep(0.002)
            return 1

    originals = dict(Layer.__dict__)
    undo: list = []
    for attr in ("outer", "inner"):
        spans.patch_method(undo, Layer, attr, lambda fn, a=attr: recorder.wrap(a, fn))
    assert Layer().outer() == 2
    spans.restore(undo)
    assert all(Layer.__dict__[a] is originals[a] for a in ("outer", "inner"))
    path = tmp_path / "w.spans"
    assert recorder.write(path) == 2
    _, table = spans.summarize(path, split_ns=0)
    assert table["inner"]["self_ns"] >= 2_000_000
    assert table["outer"]["self_ns"] < table["inner"]["self_ns"]


@pytest.mark.parametrize("workload", ["sim-paper", "sim-churn"])
def test_sim_counts_repeat_exactly_at_one_seed(workload, tmp_path):
    values = []
    for attempt in range(2):
        path = tmp_path / f"{attempt}.spans"
        traced = run.run_child(
            _args(workload), time.monotonic() + 170, "--spans", str(path)
        )
        assert traced["outcome"]["problems"] == []
        values.append(run.layer_values(traced, path))
    counts = [
        metric["name"] for metric in run.SPEC["per_layer"]
        if metric["unit"] in ("count", "B") and metric["name"] in values[0]
    ]
    assert {name: values[0][name] for name in counts} == {
        name: values[1][name] for name in counts
    }
    declared = {metric["name"] for metric in run.SPEC["per_layer"]}
    assert set(values[0]) | {"trace.overhead_queries_per_s"} == declared
    assert values[0]["engine.interactions_per_op"] > 0
    if workload == "sim-churn":
        assert values[0]["kernel.events_per_op"] > 0
        assert values[0]["net.faults.drops_per_op"] > 0
    else:
        assert values[0]["kernel.events_per_op"] == 0
        assert values[0]["storage.repair.self_ms_per_event"] == 0


@pytest.mark.parametrize("workload", ["wire-open", "wire-signed"])
def test_wire_workloads_account_for_every_operation(workload):
    result = run.run_child(_args(workload), time.monotonic() + 170)
    outcome = result["outcome"]
    assert outcome["problems"] == []
    assert outcome["failed"] == 0
    assert outcome["attempted"] > 0
    if workload == "wire-open":
        assert outcome["outputs"]["completed"] == outcome["outputs"]["scheduled"]
        assert outcome["outputs"]["duplicates"] == 0


def test_golden_mismatch_is_a_failed_check():
    goldens = json.loads((HERE / "golden.json").read_text())
    seconds, cells = next(iter(goldens["sim-paper"].items()))
    seed, expected = next(iter(cells.items()))
    assert run.golden_problems("sim-paper", int(seed), int(seconds), expected) == []
    wrong = dict(expected, found=expected["found"] - 1)
    assert run.golden_problems("sim-paper", int(seed), int(seconds), wrong)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sim-paper",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
