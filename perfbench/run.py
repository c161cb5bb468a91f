"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``. The
line before it, prefixed ``REPORT``, holds the per-phase
attempted/succeeded/failed counts, the workload's own named figures
(e.g. ``zeroshot_p50_ms``, ``refresh_p50_s``, ``campaign_s``) and the input
shares the run depended on. Every response is checked against an oracle;
a failed check counts as a failed operation and sets ``correct`` to false.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import config  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-mix", "online-drift", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config.require_source()
    # A SIGTERM unwinds the run like an error, so the servers and workers it
    # started are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    from perfbench.layers import PER_LAYER
    from perfbench.workloads import END_TO_END, run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(p["attempted"] for p in run.phases.values())
    failed = sum(p["failed"] for p in run.phases.values())
    report = {"workload": args.workload, "seed": args.seed, "phases": run.phases,
              **run.report, "problems": run.problems[:20]}
    if args.trace:
        values = run.layers.values
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        report["layer_counts"] = run.layers.counts
        report["light_split_ms"] = run.layers.split
    else:
        metrics = {name: {"value": run.e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    print("REPORT " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
