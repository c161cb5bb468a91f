"""The benchmark's three workloads.

``serve-mix``
    Open-loop Poisson ``/predict`` traffic over keep-alive connections (a
    quarter few-shot, Zipf-skewed contexts), then a closed loop on the same
    connections to measure capacity.
``online-drift``
    ``/observe`` completions and zero-shot ``/predict`` probes, one fresh
    connection per request, against a server running the online lifecycle
    over a file-backed store; half the groups drift.
``campaign``
    The paper's cross-context study, in-process, at a fixed budget.

Each returns a :class:`Run`: phases with attempted/failed counts, the
end-to-end metrics (every workload reports every one, each measured on
that workload's own operations; see DESIGN.md), the workload's named
figures for the report, and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import config, traffic
from perfbench.httpgen import Connection, Outcome, Request, check_outcomes, run_schedule
from perfbench.layers import LayerMetrics, campaign_layers, online_layers, serve_layers
from perfbench.oracle import Oracle
from perfbench.procs import ServerProcess
from perfbench.spans import SpanIndex, Tracer, install, load_spans
from perfbench.stats import median, percentile, supported

HOST = "127.0.0.1"
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(config.ROOT, ".perfbench_work")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Share of the run spent in the open-loop phase; the rest is closed loop.
OPEN_SHARE = 0.7
#: ``serve-mix`` offered rate, about a third of the closed-loop capacity
#: the seed commit reaches on this mix (about 31/s on 2 keep-alive
#: connections and 2 cores). The zero-shot median is steady only while well
#: under half the zero-shot requests queue behind a fine-tune or a stalled
#: response; at 14/s a slow spell of the host (CPU-bound fine-tunes 30%
#: slower) already moved it from 4.9 to 9.1 ms.
SERVE_MIX_RATE = 10.0
#: ``online-drift`` stream shape. A drifting group refreshes about twice
#: however long its stream, so refresh samples come from groups. With ten
#: drifting groups the refreshed models and the five base models still fit
#: the serve-default cache (16 entries), so misses come from refresh
#: invalidations, not from which groups a seed happened to refresh.
ONLINE_GROUPS = 20
ONLINE_OBSERVES = 12
ONLINE_PROBES = 6
#: A drifting group must raise its median error to this multiple of its
#: fit-time envelope, so the serve-default tolerance (2.0) flags it.
DRIFT_VISIBLE = 2.5


#: (name, unit, better) of every end-to-end metric; each workload measures
#: each one on its own operations (see DESIGN.md).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("light_p50_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
)


@dataclass
class Run:
    """The outcome of one workload run."""

    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    layers: Optional[LayerMetrics] = None

    def phase(self, name: str, attempted: int, problems: Sequence[str]) -> None:
        entry = self.phases.setdefault(name, {"attempted": 0, "succeeded": 0, "failed": 0})
        entry["attempted"] += attempted
        entry["failed"] += len(problems)
        entry["succeeded"] = entry["attempted"] - entry["failed"]
        self.problems.extend(problems)


def _cores() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _pct(values: Sequence[float], pct: float, scale: float = 1.0) -> Optional[float]:
    return percentile(values, pct) * scale if supported(len(values), pct) else None


def _warm_requests(dataset) -> List[Request]:
    """One zero-shot predict per algorithm: loads every base model."""
    requests = []
    for algorithm in config.ALGORITHMS:
        context = dataset.for_algorithm(algorithm).contexts()[0]
        payload = {"context": traffic.context_payload(context), "machines": [4, 8]}
        requests.append(Request(0.0, "POST", "/predict", payload, "warmup"))
    return requests


def _start(work: str, dataset, online: bool, trace_dir: Optional[str]
           ) -> Tuple[ServerProcess, float, List[Outcome]]:
    """Start a server and warm it up; returns it with its set-up seconds."""
    server = ServerProcess(tempfile.mkdtemp(dir=work), online=online, trace_dir=trace_dir)
    try:
        warm, _, _ = run_schedule(HOST, server.port, _warm_requests(dataset), 1,
                                  keep_alive=True)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - server.started, warm


def _stats(port: int) -> Dict:
    status, raw = Connection(HOST, port, keep_alive=False).request("GET", "/stats")
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(raw)


@dataclass
class _Pass:
    """What one server lifetime of a serve workload measured."""

    setups: List[float]
    peak_rss_mb: float
    warm: List[Outcome]
    open: List[Outcome]
    closed: List[Outcome]
    open_window: Tuple[float, float]
    open_connects: int
    closed_s: float
    stats: Dict
    store: Optional[str]
    trace_dir: Optional[str]


def _serve_pass(work: str, dataset, open_requests: List[Request],
                closed_requests: List[Request], closed_s: float, keep_alive: bool,
                online: bool, setups: int, traced: bool) -> _Pass:
    trace_dir = tempfile.mkdtemp(dir=work) if traced else None
    times, warm = [], []
    for attempt in range(setups):
        server, setup_s, warmed = _start(work, dataset, online, trace_dir)
        times.append(setup_s)
        warm.extend(warmed)
        if attempt < setups - 1:
            server.stop()
    try:
        start = time.perf_counter()
        opened, connects, _ = run_schedule(HOST, server.port, open_requests, _cores(),
                                           keep_alive=keep_alive)
        window = (start, time.perf_counter())
        closed, _, elapsed = run_schedule(HOST, server.port, closed_requests, _cores(),
                                          keep_alive=keep_alive, closed_loop_s=closed_s)
        stats = _stats(server.port)
        peak = server.stop()
    except BaseException:
        server.kill()
        raise
    return _Pass(times, peak, warm, opened, closed, window, connects, elapsed, stats,
                 server.store, trace_dir)


def _latencies(outcomes: Sequence[Outcome], kind: str) -> List[float]:
    return [o.latency_s for o in outcomes if o.request.kind == kind and o.error is None]


def _throughput(outcomes: Sequence[Outcome], elapsed: float) -> float:
    return sum(o.error is None for o in outcomes) / elapsed


# ---------------------------------------------------------------------- #
# serve-mix
# ---------------------------------------------------------------------- #


def serve_mix(seed: int, seconds: float, traced: bool, work: str) -> Run:
    from repro.data import generate_c3o_dataset

    dataset = generate_c3o_dataset(seed=config.DATASET_SEED)
    open_s, closed_s = seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE)
    open_requests = traffic.serve_mix_requests(
        dataset, seed, int(round(SERVE_MIX_RATE * open_s)), open_s)
    closed_requests = traffic.serve_mix_requests(
        dataset, seed, int(closed_s * 400), 0.0, rid_base=1_000_000)
    run = Run(report={"inputs": traffic.describe(open_requests)})

    def measure(traced_pass: bool, setups: int) -> _Pass:
        return _serve_pass(work, dataset, open_requests, closed_requests, closed_s,
                           keep_alive=True, online=False, setups=setups,
                           traced=traced_pass)

    passes = [measure(False, 1 if traced else SETUPS)]
    if traced:
        passes.append(measure(True, 1))
    oracle = Oracle(dataset)
    oracle.warm()
    for done in passes:
        for name, outcomes in (("warmup", done.warm), ("open", done.open),
                               ("closed", done.closed)):
            run.phase(name, len(outcomes), check_outcomes(outcomes, oracle.check_predict))

    base = passes[0]
    zero = _latencies(base.open, "zeroshot")
    few = _latencies(base.open, "fewshot")
    run.e2e = {
        "setup_s": median(base.setups),
        "peak_rss_mb": base.peak_rss_mb,
        "light_p50_ms": median(zero) * 1e3,
        "throughput_per_s": _throughput(base.closed, base.closed_s),
    }
    run.report.update({
        "zeroshot_p50_ms": run.e2e["light_p50_ms"], "zeroshot_p90_ms": _pct(zero, 90, 1e3),
        "zeroshot_p99_ms": _pct(zero, 99, 1e3), "zeroshot_n": len(zero),
        "fewshot_p50_ms": median(few) * 1e3, "fewshot_p75_ms": _pct(few, 75, 1e3),
        "fewshot_p90_ms": _pct(few, 90, 1e3), "fewshot_n": len(few),
        "capacity_rps": run.e2e["throughput_per_s"],
        "closed_loop_requests": len(base.closed),
        "offered_rps": SERVE_MIX_RATE,
    })
    if traced:
        run.layers = _serve_trace(passes[1], "zeroshot",
                                  sum(r.kind == "fewshot" for r in open_requests),
                                  untraced_light=zero)
    return run


def _serve_trace(done: _Pass, light_kind: str, fewshot: int,
                 untraced_light: Sequence[float]) -> LayerMetrics:
    out = LayerMetrics()
    index = SpanIndex(load_spans(done.trace_dir))
    light = [o for o in done.open if o.request.kind == light_kind and o.error is None]
    serve_layers(out, index, light, done.open, done.open_connects, fewshot,
                 done.open_window, done.stats)
    if done.stats.get("online"):
        online_layers(out, index, done.open_window, done.stats)
    traced_p50 = median([o.latency_s for o in light])
    out.value("trace.overhead_ratio", traced_p50 / median(untraced_light) - 1.0, len(light))
    return out


# ---------------------------------------------------------------------- #
# online-drift
# ---------------------------------------------------------------------- #


def _choose_groups(oracle: Oracle, dataset, seed: int) -> List[Tuple[Any, bool]]:
    """Half drifting groups whose drift the detector can see, half stable.

    A drifting group's base model must err on its +90% runtimes by at
    least ``DRIFT_VISIBLE`` times its fit-time envelope (the median
    relative error on its own history, as the online session computes it).
    """
    import numpy as np
    from repro.eval.metrics import relative_errors

    contexts = dataset.contexts()
    order = np.random.default_rng([seed, 11]).permutation(len(contexts))
    drifting, stable = [], []
    for position in order:
        context = contexts[int(position)]
        history = dataset.for_context(context.context_id)
        predicted = oracle.session.predict(context, history.machines_array())
        runtimes = history.runtimes_array()
        envelope = float(np.median(relative_errors(predicted, runtimes)))
        drifted = float(np.median(relative_errors(predicted, runtimes * (1 + traffic.DRIFT))))
        if len(drifting) < ONLINE_GROUPS // 2 and drifted >= DRIFT_VISIBLE * envelope:
            drifting.append((context, True))
        elif len(stable) < ONLINE_GROUPS - ONLINE_GROUPS // 2:
            stable.append((context, False))
        if len(drifting) + len(stable) == ONLINE_GROUPS:
            break
    return drifting + stable


def online_drift(seed: int, seconds: float, traced: bool, work: str) -> Run:
    from repro.core.persistence import ModelStore
    from repro.data import generate_c3o_dataset

    dataset = generate_c3o_dataset(seed=config.DATASET_SEED)
    oracle = Oracle(dataset)
    oracle.warm()
    groups = _choose_groups(oracle, dataset, seed)
    open_s, closed_s = seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE)
    open_requests = traffic.online_drift_requests(
        dataset, seed, groups, ONLINE_OBSERVES, ONLINE_PROBES, open_s)
    closed_requests = traffic.online_drift_requests(
        dataset, seed, groups, 0, int(closed_s * 1000) // len(groups) + 1, 0.0,
        rid_base=1_000_000)

    def measure(traced_pass: bool, setups: int) -> _Pass:
        return _serve_pass(work, dataset, open_requests, closed_requests, closed_s,
                           keep_alive=False, online=True, setups=setups,
                           traced=traced_pass)

    passes = [measure(False, 1 if traced else SETUPS)]
    if traced:
        passes.append(measure(True, 1))
    run = Run()
    for done in passes:
        store = ModelStore(done.store)
        refreshed: Dict[str, List[str]] = {}
        models: Dict[str, Any] = {}

        def committed(name: str) -> Any:
            if name not in models:
                models[name] = store.load(name)
            return models[name]

        def check_observe(outcome: Outcome) -> Optional[str]:
            body, group = outcome.body, outcome.request.meta["group"]
            if not (isinstance(body, dict) and body.get("recorded") is True
                    and body.get("group") == group):
                return f"observe answer {body} does not record group {group}"
            if body.get("refreshed"):
                refreshed.setdefault(group, []).append(body["refreshed"]["model_name"])
            return None

        def check_probe(outcome: Outcome) -> Optional[str]:
            payload = outcome.request.payload
            allowed = [oracle.predict(payload)] + [
                oracle.predict(payload, model=committed(name), model_key=name)
                for name in refreshed.get(outcome.request.meta["group"], [])
            ]
            return oracle.check_predict(outcome, allowed)

        def check(outcome: Outcome) -> Optional[str]:
            if outcome.request.kind == "observe":
                return check_observe(outcome)
            return check_probe(outcome)

        run.phase("warmup", len(done.warm), check_outcomes(done.warm, oracle.check_predict))
        # Observes first: the probes' allowed answers include every model
        # the stream committed.
        observes = [o for o in done.open if o.request.kind == "observe"]
        probes = [o for o in done.open if o.request.kind != "observe"]
        run.phase("open", len(done.open),
                  check_outcomes(observes, check) + check_outcomes(probes, check))
        run.phase("closed", len(done.closed), check_outcomes(done.closed, check))

    base = passes[0]
    if not any(o.body and o.body.get("refreshed") for o in base.open if o.error is None):
        raise RuntimeError("no observe fired a refresh: the drift is not visible to the "
                           "detector, so online-drift measures nothing it is meant to")
    probes = _latencies(base.open, "probe")
    fired = [o.latency_s for o in base.open
             if o.request.kind == "observe" and o.error is None and o.body.get("refreshed")]
    quiet = [o.latency_s for o in base.open
             if o.request.kind == "observe" and o.error is None and not o.body.get("refreshed")]
    run.e2e = {
        "setup_s": median(base.setups),
        "peak_rss_mb": base.peak_rss_mb,
        "light_p50_ms": median(probes) * 1e3,
        "throughput_per_s": _throughput(base.closed, base.closed_s),
    }
    run.report = {
        "inputs": {
            **traffic.describe(open_requests),
            "groups": len(groups),
            "groups_drifted": sum(drifted for _, drifted in groups),
            "refreshes_fired": len(fired),
        },
        "zeroshot_p50_ms": run.e2e["light_p50_ms"], "zeroshot_p90_ms": _pct(probes, 90, 1e3),
        "zeroshot_p99_ms": _pct(probes, 99, 1e3), "zeroshot_n": len(probes),
        "observe_p50_ms": median(quiet) * 1e3, "observe_n": len(quiet),
        "refresh_p50_s": median(fired), "refresh_n": len(fired),
        "probe_capacity_rps": run.e2e["throughput_per_s"],
    }
    if traced:
        run.layers = _serve_trace(passes[1], "probe", 0, untraced_light=probes)
    return run


# ---------------------------------------------------------------------- #
# campaign
# ---------------------------------------------------------------------- #

#: SHA-256 of the campaign's records (timings excluded), recorded at the
#: commit that introduced this benchmark. Any change in what the study
#: computes shows up as a mismatch.
CAMPAIGN_DIGEST = "52ff2f8a3af5b6eb262577607e1cd553bc678aeb1052bee9bf761fd724c3c5f9"
#: Campaign set-ups per run; ``setup_s`` is their median. One set-up is
#: what a fresh campaign process does before its first target: start the
#: interpreter, import the study and generate the dataset. (Timing the
#: 60 ms generation alone varied by +-20% within one process.)
CAMPAIGN_SETUPS = 5
_CAMPAIGN_SETUP = (
    f"import sys; sys.path.insert(0, {config.SRC!r}); "
    "from repro.data import generate_c3o_dataset; "
    "import repro.eval.experiments.cross_context; "
    f"generate_c3o_dataset(seed={config.DATASET_SEED})"
)
#: The campaign keeps the paper's early stopping (train MAE <= 5 s) under
#: this epoch cap; its fits are the same on every run, so their cost is
#: steady without a fixed epoch count.
CAMPAIGN_FINETUNE_EPOCHS = 300


def campaign_scale():
    from repro.eval.experiments.common import ExperimentScale

    return ExperimentScale(
        name="perfbench", pretrain_epochs=config.PRETRAIN_EPOCHS,
        finetune_max_epochs=CAMPAIGN_FINETUNE_EPOCHS,
        finetune_patience=CAMPAIGN_FINETUNE_EPOCHS, max_splits=2,
        max_splits_crossenv=2, contexts_per_algorithm=1,
        algorithms=config.ALGORITHMS, n_train_values=(0, 1, 2, 3, 4, 5, 6),
    )


def records_digest(records: Sequence[Any]) -> str:
    """Order-independent digest of evaluation records, timings excluded."""
    rows = sorted(
        json.dumps([r.method, r.algorithm, r.context_id, r.n_train, r.task,
                    r.split_index, repr(r.actual_s), repr(r.predicted_s),
                    r.epochs_trained])
        for r in records
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def campaign(seed: int, seconds: float, traced: bool, work: str) -> Run:
    from repro.data import generate_c3o_dataset
    from repro.eval.experiments.cross_context import run_cross_context_experiment
    from repro.eval.protocol import unique_fits

    setups = []
    for _ in range(CAMPAIGN_SETUPS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", _CAMPAIGN_SETUP], cwd=config.ROOT,
                       check=True, timeout=120)
        setups.append(time.perf_counter() - started)
    dataset = generate_c3o_dataset(seed=config.DATASET_SEED)
    # The campaign's records must match one recorded digest, so its inputs
    # are fixed: the seed changes nothing here. (Reordering the targets by
    # seed moved the wall time by up to 17% through worker packing alone.)
    scale = campaign_scale()
    workers = _cores()
    run = Run(report={"inputs": {"algorithms": list(config.ALGORITHMS),
                                 "workers": workers}})

    def repeat(phase: str, budget_s: float) -> Tuple[List[Tuple[float, float]], List[Any]]:
        walls, results = [], []
        deadline = time.perf_counter() + budget_s
        while not walls or time.perf_counter() < deadline:
            started = time.perf_counter()
            result = run_cross_context_experiment(
                dataset, scale=scale, seed=config.MODEL_SEED, n_workers=workers)
            walls.append((started, time.perf_counter()))
            results.append(result)
            found = records_digest(result.records)
            run.phase(phase, len(result.records),
                      [] if found == CAMPAIGN_DIGEST else
                      [f"records digest {found} != {CAMPAIGN_DIGEST}"] * len(result.records))
        return walls, results

    repeat("warmup", 0.0)  # untimed: lazy imports and first-call costs
    walls, results = repeat("campaign", seconds / 2 if traced else seconds)
    fits = [f for result in results for f in unique_fits(result.records)]
    light = [f.fit_seconds for f in fits if f.method in ("NNLS", "Bell")]
    heavy = [f.fit_seconds for f in fits
             if f.method in ("Bellamy (filtered)", "Bellamy (full)") and f.n_train > 0]
    campaign_s = median([end - start for start, end in walls])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": (own + (worker_peak * workers if workers > 1 else 0)) / 1024.0,
        "light_p50_ms": median(light) * 1e3,
        "throughput_per_s": len(config.ALGORITHMS) / campaign_s,
    }
    run.report.update({"campaign_s": campaign_s, "campaigns": len(walls),
                       "baseline_fit_p90_ms": _pct(light, 90, 1e3),
                       "bellamy_fit_p50_ms": median(heavy) * 1e3,
                       "baseline_fits": len(light), "bellamy_fits": len(heavy)})
    if traced:
        trace_dir = tempfile.mkdtemp(dir=work)
        tracer = Tracer(trace_dir)
        install(tracer)
        traced_walls, _ = repeat("traced", seconds / 2)
        index = SpanIndex(tracer.spans + load_spans(trace_dir))
        run.layers = LayerMetrics()
        campaign_layers(run.layers, index, traced_walls)
        traced_s = median([end - start for start, end in traced_walls])
        run.layers.value("trace.overhead_ratio", traced_s / campaign_s - 1.0, len(traced_walls))
    return run


WORKLOADS: Dict[str, Callable[[int, float, bool, str], Run]] = {
    "serve-mix": serve_mix,
    "online-drift": online_drift,
    "campaign": campaign,
}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Run:
    """Run one workload in a scratch directory that is removed afterwards."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        return WORKLOADS[name](seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
