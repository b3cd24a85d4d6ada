"""The repository benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 20 --trace 0

Workloads: ``sim-paper``, ``sim-churn``, ``wire-open``, ``wire-signed``
(see perfbench/README.md).  With ``--trace 0`` the workload runs once
untraced in a fresh process, plus set-up-only processes, and the
end-to-end metrics are reported (``setup_s`` is the median of all
set-ups).  With ``--trace 1`` it runs once untraced and once with the
layer wrappers installed, and the per-layer metrics are reported, with
the tracing overhead.  Either way the workload's outputs are checked.

Earlier lines of standard output describe the run for a reader; the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  The exit code is
non-zero, with no result line, when the workload cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Span files of traced runs (listed in .gitignore).
OUT = ROOT / ".perfbench_out"
#: Set-ups per untraced run: the measured one plus set-up-only runs.
SETUP_RUNS = 3
#: Wall-clock budget for one invocation, all child processes included.
BUDGET_S = 170.0

#: The workloads and metrics, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}


def samples_for(percentile: int) -> int:
    """Samples needed for ten to lie beyond a percentile."""
    return 10 * 100 // (100 - percentile)


class ChildFailed(RuntimeError):
    """A workload process crashed or overran its budget."""


def run_child(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """Run child.py once; returns its JSON result."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("time budget exhausted")
    # The seed fixes string hashing too, so one seed always lays out the
    # program's dicts and sets alike (set-up time depends on it).
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    try:
        completed = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout, env=env,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(extra) or 'run'} overran the budget")
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise ChildFailed(
            f"workload process exited with {completed.returncode}"
        )
    return json.loads(lines[-1])


def golden_problems(workload: str, seed: int, seconds: int, outputs: dict) -> list[str]:
    """Compare outputs with the values recorded for this cell, if any."""
    goldens = json.loads((HERE / "golden.json").read_text())
    expected = goldens.get(workload, {}).get(str(seconds), {}).get(str(seed))
    if expected is None:
        return []
    return [
        f"{key} = {outputs.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if outputs.get(key) != value
    ]


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list]:
    """One measured run plus set-up-only runs: the end-to-end metrics."""
    full = run_child(args, deadline, "--mode", "full")
    setups = [full] + [
        run_child(args, deadline, "--mode", "setup")
        for _ in range(SETUP_RUNS - 1)
    ]
    outcome = full["outcome"]
    values = dict(outcome["metrics"])
    # What set-up measures is the median over every set-up of the run.
    values["setup_s"] = statistics.median(setup["setup_s"] for setup in setups)
    for name in full["setup_metrics"]:
        values[name] = statistics.median(
            setup["setup_metrics"][name] for setup in setups
        )
    values["peak_rss_mb"] = full["peak_rss_mb"]
    problems = list(outcome["problems"])
    problems += golden_problems(
        args.workload, args.seed, args.seconds, outcome["outputs"]
    )
    print(f"setup_s over {len(setups)} set-ups: "
          + ", ".join(f"{setup['setup_s']:.3f}" for setup in setups))
    return values, outcome, problems


def layer_values(traced: dict, path: Path) -> dict[str, float]:
    """The per-layer metrics of one traced child run."""
    setup_table, run_table = spans.summarize(path, traced["split_ns"])
    return layers.layer_metrics(run_table, setup_table, traced)


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list]:
    """An untraced and a traced run: the per-layer metrics."""
    plain = run_child(args, deadline, "--mode", "full")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-{args.seed}.spans"
    traced = run_child(args, deadline, "--mode", "full", "--spans", str(path))
    values = layer_values(traced, path)
    outcome = traced["outcome"]
    values["trace.overhead_queries_per_s"] = (
        plain["outcome"]["metrics"]["queries_per_s"]
        - outcome["metrics"]["queries_per_s"]
    )
    problems = plain["outcome"]["problems"] + outcome["problems"]
    problems += golden_problems(
        args.workload, args.seed, args.seconds, plain["outcome"]["outputs"]
    )
    if args.workload.startswith("sim-") and (
        plain["outcome"]["outputs"] != outcome["outputs"]
    ):
        # The simulator is deterministic: tracing must change nothing.
        problems.append("traced run produced different outputs")
    print(f"{traced['spans']} spans in {path.relative_to(ROOT)}")
    return values, outcome, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print(f"{args.workload} (seed {args.seed}, {args.seconds} s): "
          f"{WORKLOADS[args.workload]}")
    try:
        if args.trace:
            values, outcome, problems = per_layer(args, deadline)
            metrics = SPEC["per_layer"]
        else:
            values, outcome, problems = end_to_end(args, deadline)
            metrics = SPEC["end_to_end"]
    except ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    units = {metric["name"]: metric["unit"] for metric in metrics}
    samples = outcome["samples"]
    for name, unit in units.items():
        kind = name.split("_")[0]
        note = f"  ({samples[kind]} samples)" if kind in samples else ""
        print(f"  {name:44s} {values[name]:>14.6g} {unit}{note}")
    if not args.trace:
        # Printed for a reader but not bounded: the tails move too much
        # with the host to gate on, and the error rate can read 0.
        for kind, count in samples.items():
            for percentile in (95, 99):
                name = f"{kind}_p{percentile}_ms"
                if count >= samples_for(percentile):
                    value = f"{values[name]:>14.6g} ms"
                else:
                    value = f"{'n/a':>14s}   "
                print(f"  {name:44s} {value}  ({count} samples)")
        print(f"  {'error_rate':44s} {1 - values['success_rate']:>14.6g} ratio")
    print(f"outputs: {json.dumps(outcome['outputs'])}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
