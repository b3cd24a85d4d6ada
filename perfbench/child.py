"""Run one workload in a fresh process and print its result as JSON.

``run.py`` starts this once per set-up or measured run, so peak RSS,
the process-wide ``repro.perf`` counters and the program's parse and
covering memos start cold every time::

    python3 perfbench/child.py --workload sim-paper --seed 0 --seconds 20 \\
        --mode full [--spans FILE]

``--mode setup`` only builds the system and reports ``setup_s``;
``--spans FILE`` installs the layer wrappers and writes the recorded
spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"repro imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    from repro import perf

    import workloads

    recorder = None
    if args.spans is not None:
        import layers
        from spans import SpanRecorder

        recorder = SpanRecorder()
        layers.install(recorder)

    workload = workloads.make(args.workload, args.seed, args.seconds)
    try:
        started = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - started
        if args.mode == "setup":
            print(json.dumps(
                {"setup_s": setup_s, "setup_metrics": workload.setup_metrics}
            ))
            return 0
        perf_setup = perf.snapshot()
        counts_setup = recorder.counts() if recorder else {}
        split_ns = time.perf_counter_ns()
        outcome = workload.run()
        perf_run = perf.delta(perf_setup, perf.snapshot())
        counts = recorder.counts() if recorder else {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()
    result = {
        "setup_s": setup_s,
        "setup_metrics": workload.setup_metrics,
        "peak_rss_mb": peak_rss_mb,
        "outcome": asdict(outcome),
        "perf": perf_run,
        "counts": {
            name: value - counts_setup.get(name, 0)
            for name, value in counts.items()
        },
        "split_ns": split_ns,
    }
    if recorder is not None:
        result["gauges"] = dict(recorder.gauges)
        result["spans"] = recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
