"""Start the prediction server the way ``repro-bellamy serve`` does.

Usage (from the repository root)::

    python3 perfbench/serve_entry.py [--online --store DIR] [--trace-dir DIR]

It generates the C3O dataset, pre-trains one base model per algorithm,
starts the HTTP server on a free port with the serve defaults and prints
``READY <port>``. On SIGTERM it drains the server, writes its spans (when
``--trace-dir`` is given) and prints ``EXIT {"peak_rss_mb": ...}``.

This script exists so that, in a traced run, the span wrappers are
installed in the server process before any of the program runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import config  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--online", action="store_true")
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    config.require_source()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())

    tracer = None
    if args.trace_dir is not None:
        from perfbench.spans import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)

    from repro.api import Session
    from repro.data import generate_c3o_dataset
    from repro.serve import PredictionServer

    dataset = generate_c3o_dataset(seed=config.DATASET_SEED)
    session = Session(dataset, config=config.bellamy_config(), store=args.store,
                      seed=config.MODEL_SEED)
    for algorithm in config.ALGORITHMS:
        session.base_model(algorithm)
    online = None
    if args.online:
        from repro.online import ObservationBuffer, OnlineSession

        policy = config.refresh_policy()
        online = OnlineSession(
            session, policy,
            buffer=ObservationBuffer(capacity_per_group=policy.buffer_capacity),
        )
    server = PredictionServer(
        session, port=0, batch_max=config.BATCH_MAX,
        batch_wait_ms=config.BATCH_WAIT_MS, exact=True,
        cache_size=config.CACHE_SIZE, online=online,
    )
    server.start()
    print(f"READY {server.address[1]}", flush=True)
    parent = os.getppid()
    while not stop.wait(1.0) and os.getppid() == parent:
        pass  # also stop if the benchmark that started us is gone
    server.close()
    if tracer is not None:
        tracer.dump()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("EXIT " + json.dumps({"peak_rss_mb": peak_mb}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
