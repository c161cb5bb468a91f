"""Per-layer metrics computed from one traced run's spans.

Every per-layer metric the benchmark reports is defined here, once, with
its unit. A metric whose layer a workload never enters reads 0.0 (for
example ``online.*`` on ``serve-mix``); DESIGN.md lists which workload
exercises which layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.httpgen import Outcome
from perfbench.spans import Span, SpanIndex, covered, duration, self_time
from perfbench.stats import median, median_or_zero, percentile

#: (name, unit, better) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serve.server.http_ms", "ms", "lower"),
    ("serve.server.handle_self_ms", "ms", "lower"),
    ("serve.server.connects_per_request", "ratio", "lower"),
    ("serve.batcher.queue_wait_ms", "ms", "lower"),
    ("serve.batcher.flush_ms", "ms", "lower"),
    ("serve.batcher.batch_size", "count", "higher"),
    ("serve.batcher.hol_ratio", "ratio", "lower"),
    ("api.session.resolve_us", "us", "lower"),
    ("api.session.fits_per_fewshot", "ratio", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.load_ms", "ms", "lower"),
    ("core.model.forward_us", "us", "lower"),
    ("core.finetuning.fit_ms", "ms", "lower"),
    ("core.finetuning.epochs", "count", "lower"),
    ("core.finetuning.epoch_us", "us", "lower"),
    ("core.pretraining.pretrain_s", "s", "lower"),
    ("core.pretraining.epoch_ms", "ms", "lower"),
    ("online.observe_self_ms", "ms", "lower"),
    ("online.detect_us", "us", "lower"),
    ("online.refresh_finetune_s", "s", "lower"),
    ("online.refresh_install_ms", "ms", "lower"),
    ("online.refreshes", "count", "higher"),
    ("online.drift_flags", "count", "higher"),
    ("runtime.store.save_ms", "ms", "lower"),
    ("runtime.store.load_ms", "ms", "lower"),
    ("runtime.executor.busy_ratio", "ratio", "higher"),
    ("runtime.executor.straggler_ratio", "ratio", "lower"),
    ("eval.protocol.target_s", "s", "lower"),
    ("eval.protocol.baseline_fit_ms", "ms", "lower"),
    ("unattributed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("loadgen.lag_p90_ms", "ms", "lower"),
)


class LayerMetrics:
    """Per-layer values of one run, each a median with its sample count."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
        self.counts: Dict[str, int] = {name: 0 for name, _, _ in PER_LAYER}
        #: How the light (zero-shot) latency splits into layers, in ms:
        #: per component, its median and 90th percentile.
        self.split: Dict[str, Dict[str, float]] = {}

    def median(self, name: str, samples: Sequence[float], scale: float = 1.0) -> None:
        self.values[name] = median_or_zero(samples) * scale
        self.counts[name] = len(samples)

    def value(self, name: str, value: float, count: int = 1) -> None:
        self.values[name] = float(value)
        self.counts[name] = count


def _in_window(spans: Sequence[Span], window: Tuple[float, float]) -> List[Span]:
    return [s for s in spans if window[0] <= s["start"] and s["end"] <= window[1]]


def model_layers(out: LayerMetrics, index: SpanIndex,
                 window: Optional[Tuple[float, float]] = None) -> None:
    """``core.*`` and ``runtime.store`` metrics, shared by every workload.

    Pre-training and store spans are taken over the whole run (they happen
    during set-up or rarely); forward and fine-tune spans within ``window``.
    """
    def spans(name: str) -> List[Span]:
        found = index.named(name)
        return found if window is None else _in_window(found, window)

    out.median("core.model.forward_us", [duration(s) for s in spans("core.model.predict")], 1e6)
    fits = spans("core.finetuning.finetune")
    out.median("core.finetuning.fit_ms", [duration(s) for s in fits], 1e3)
    out.median("core.finetuning.epochs", [s["attrs"]["epochs"] for s in fits])
    out.median("core.finetuning.epoch_us",
               [duration(s) / s["attrs"]["epochs"] for s in fits if s["attrs"]["epochs"]], 1e6)
    pretrains = index.named("core.pretraining.pretrain")
    out.median("core.pretraining.pretrain_s", [duration(s) for s in pretrains])
    out.median("core.pretraining.epoch_ms",
               [duration(s) / s["attrs"]["epochs"] for s in pretrains if s["attrs"]["epochs"]],
               1e3)
    out.median("runtime.store.save_ms",
               [duration(s) for s in index.named("runtime.store.save")], 1e3)
    out.median("runtime.store.load_ms",
               [duration(s) for s in index.named("runtime.store.load")], 1e3)


def serve_layers(out: LayerMetrics, index: SpanIndex, light: Sequence[Outcome],
                 phase: Sequence[Outcome], connects: int, fewshot: int,
                 window: Tuple[float, float], stats: Dict) -> None:
    """Server-side metrics of a serve workload's open-loop phase.

    ``light`` are the successful zero-shot predicts whose median is split
    into layers: waiting for a free connection, HTTP (round trip minus
    ``ServeApp.handle``), handle's own time, batcher queue wait, and the
    part of the request spent inside its flush's ``predict_batch``.
    """
    handles = {s["attrs"]["rid"]: s for s in index.named("serve.server.handle")
               if "rid" in s["attrs"]}
    flush_of: Dict[int, Span] = {}
    for flush in index.named("serve.batcher.flush"):
        for submit_id in flush["attrs"]["submits"]:
            flush_of[submit_id] = flush
    parts: Dict[str, List[float]] = {k: [] for k in
                                     ("e2e", "wait", "http", "self", "queue", "batch")}
    flushes: Dict[int, Span] = {}
    hol = 0
    for outcome in light:
        handle = handles[outcome.request.meta["rid"]]
        submit = index.kids(handle, "serve.batcher.submit")[0]
        flush = flush_of[submit["id"]]
        batch = index.kids(flush, "api.session.predict_batch")[0]
        in_batch = covered(submit["start"], submit["end"], [(batch["start"], batch["end"])])
        parts["e2e"].append(outcome.latency_s)
        parts["wait"].append(outcome.sent - outcome.due)
        parts["http"].append(outcome.round_trip_s - duration(handle))
        parts["self"].append(self_time(handle, [submit]))
        parts["queue"].append(duration(submit) - in_batch)
        parts["batch"].append(in_batch)
        flushes[flush["id"]] = flush
        hol += bool(index.descendants(flush, "core.finetuning.finetune"))
    out.median("serve.server.http_ms", parts["http"], 1e3)
    out.median("serve.server.handle_self_ms", parts["self"], 1e3)
    out.median("serve.batcher.queue_wait_ms", parts["queue"], 1e3)
    out.median("serve.batcher.flush_ms", [duration(f) for f in flushes.values()], 1e3)
    out.value("serve.batcher.hol_ratio", hol / len(light), len(light))
    out.split = {key: {"p50": median(v) * 1e3, "p90": percentile(v, 90) * 1e3}
                 for key, v in parts.items() if len(v) >= 100}
    e2e = median(parts["e2e"])
    summed = sum(median(parts[k]) for k in ("wait", "http", "self", "queue", "batch"))
    out.value("unattributed_ratio", (e2e - summed) / e2e, len(light))
    out.value("serve.server.connects_per_request", connects / len(phase), len(phase))
    out.value("loadgen.lag_p90_ms", percentile([o.lag_s for o in phase], 90) * 1e3, len(phase))
    out.value("serve.batcher.batch_size", stats["batcher"]["mean_batch_size"],
              stats["batcher"]["batches"])

    resolves = _in_window(index.named("api.session.resolve_base"), window)
    out.median("api.session.resolve_us", [duration(s) for s in resolves], 1e6)
    fits = [s for s in _in_window(index.named("core.finetuning.finetune"), window)
            if not index.has_ancestor(s, "online.refresh")]
    out.value("api.session.fits_per_fewshot", len(fits) / fewshot if fewshot else 0.0, fewshot)
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    out.value("serve.cache.hit_ratio", cache["hits"] / lookups if lookups else 0.0, lookups)
    out.median("serve.cache.load_ms", [duration(s) for s in index.named("serve.cache.load")], 1e3)
    model_layers(out, index, window)


def online_layers(out: LayerMetrics, index: SpanIndex, window: Tuple[float, float],
                  stats: Dict) -> None:
    """The online lifecycle's metrics (``online-drift`` only)."""
    observes = _in_window(index.named("online.observe"), window)
    out.median("online.observe_self_ms",
               [self_time(s, index.kids(s, "online.refresh")) for s in observes], 1e3)
    out.median("online.detect_us",
               [duration(s) for s in _in_window(index.named("online.detect"), window)], 1e6)
    refresh_fits = [s for s in index.named("core.finetuning.finetune")
                    if index.has_ancestor(s, "online.refresh")]
    out.median("online.refresh_finetune_s", [duration(s) for s in refresh_fits])
    out.median("online.refresh_install_ms",
               [duration(s) for s in index.named("online.install")], 1e3)
    online = stats["online"]
    out.value("online.refreshes", online["refreshes"])
    out.value("online.drift_flags", online["drift"]["drift_flags"])


def campaign_layers(out: LayerMetrics, index: SpanIndex, walls: Sequence[Tuple[float, float]]
                    ) -> None:
    """Executor and protocol metrics of traced campaign repetitions.

    ``walls`` are the ``(start, end)`` instants of each repetition.
    """
    busy, straggler, unattributed = [], [], []
    for start, end in walls:
        maps = _in_window(index.named("runtime.executor.map"), (start, end))
        for fan_out in maps:
            tasks = [duration(t) for t in index.kids(fan_out, "runtime.executor.task")]
            busy.append(sum(tasks) / (duration(fan_out) * fan_out["attrs"]["workers"]))
            straggler.append(max(tasks) / median(tasks))
        unattributed.append(
            (end - start - covered(start, end, [(m["start"], m["end"]) for m in maps]))
            / (end - start))
    out.median("runtime.executor.busy_ratio", busy)
    out.median("runtime.executor.straggler_ratio", straggler)
    out.median("unattributed_ratio", unattributed)
    out.median("eval.protocol.target_s",
               [duration(s) for s in index.named("eval.protocol.evaluate_context")])
    out.median("eval.protocol.baseline_fit_ms",
               [duration(s) for s in index.named("eval.protocol.baseline_fit")], 1e3)
    model_layers(out, index)
