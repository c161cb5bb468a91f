"""Spans around the calls into each layer, recorded from outside the program.

:func:`install` replaces each traced function with a wrapper *where its
caller looks it up* (a module global such as ``repro.core.prediction.finetune``
or a class attribute such as ``MicroBatcher.submit``), so the program's own
code stays untouched. Each wrapper records ``(id, parent, name, start, end,
pid, thread, attrs)``: ``parent`` is the innermost open span of the same
thread. A forked worker inherits the open span that forked it, so its
spans hang under that span; work handed to another thread is linked
through attributes (a flush lists the ``submit`` spans it serves).

Spans stay in memory. A process writes its spans to ``<dir>/spans-<pid>.json``
when it exits (:meth:`Tracer.dump`); forked workers of a process pool do so
through :mod:`multiprocessing`'s exit finalizers.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from multiprocessing import util as mp_util
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

#: One recorded span, as written to disk.
Span = Dict[str, Any]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process tree."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked worker starts with no spans of its own; the open-span
        # stack it inherited still names the parent's span that forked it.
        self.spans = []
        self._lock = threading.Lock()
        self._pid = -1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The id of the innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _new_id(self) -> int:
        pid = os.getpid()
        with self._lock:
            if self._pid != pid:  # first span in a forked worker
                self._pid = pid
                mp_util.Finalize(None, self.dump, exitpriority=100)
            self._next += 1
            return pid * 10_000_000 + self._next

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None,
             result_attrs: Optional[Callable[[Any], Dict[str, Any]]] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span_id = self._new_id()
        stack = self._stack()
        parent = stack[-1] if stack else None
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if result_attrs is not None:
            extra.update(result_attrs(result))
        self.spans.append({
            "id": span_id, "parent": parent, "name": name, "start": start,
            "end": end, "pid": os.getpid(), "tid": threading.get_ident(),
            "attrs": extra,
        })
        return result

    def dump(self) -> str:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)
        return path


def load_spans(out_dir: str) -> List[Span]:
    """Every span the processes of one traced run wrote."""
    spans: List[Span] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.load(handle))
    return spans


def _wrap(tracer: Tracer, owner: Any, attr: str, name: str, **hooks: Any) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, original, args, kwargs, **hooks)

    setattr(owner, attr, wrapper)


def _request_id(self: Any, method: str, path: str, payload: Any) -> Dict[str, Any]:
    query = parse_qs(urlsplit(path).query)
    return {"rid": int(query["rid"][0])} if "rid" in query else {}


def install(tracer: Tracer) -> None:
    """Wrap the public calls into every measured layer (see DESIGN.md)."""
    from repro.api import estimators, session
    from repro.core import model, persistence, prediction
    from repro.eval.experiments import cross_context
    from repro.online import drift
    from repro.online import session as online_session
    from repro.runtime.executor import resolve_jobs
    from repro.serve import batcher, cache, server

    def epochs(result: Any) -> Dict[str, Any]:
        return {"epochs": int(result.epochs_trained)}

    _wrap(tracer, server.ServeApp, "handle", "serve.server.handle", attrs=_request_id)
    _wrap(tracer, batcher.MicroBatcher, "submit", "serve.batcher.submit")

    class _TracedPending(batcher._Pending):
        """Remembers which ``submit`` span queued it, for the flusher thread."""

        def __init__(self, request: Any) -> None:
            super().__init__(request)
            self.submit_span = tracer.current()

    batcher._Pending = _TracedPending
    _wrap(tracer, batcher.MicroBatcher, "_flush", "serve.batcher.flush",
          attrs=lambda self, batch: {"submits": [p.submit_span for p in batch]})
    _wrap(tracer, session.Session, "predict_batch", "api.session.predict_batch")
    for alias in ("resolve_base", "_resolve_base"):
        _wrap(tracer, session.Session, alias, "api.session.resolve_base")

    def get_or_load(self: Any, key: Any, loader: Callable[[], Any]) -> Any:
        traced = lambda: tracer.call("serve.cache.load", loader, (), {})  # noqa: E731
        return original_get_or_load(self, key, traced)

    original_get_or_load = cache.LruTtlCache.get_or_load
    cache.LruTtlCache.get_or_load = functools.wraps(original_get_or_load)(get_or_load)

    _wrap(tracer, model.BellamyModel, "predict", "core.model.predict")
    _wrap(tracer, prediction, "finetune", "core.finetuning.finetune", result_attrs=epochs)
    _wrap(tracer, online_session, "finetune", "core.finetuning.finetune",
          result_attrs=epochs)
    _wrap(tracer, session, "pretrain", "core.pretraining.pretrain",
          result_attrs=lambda result: {"epochs": int(result.train_result.epochs_trained)})
    _wrap(tracer, online_session.OnlineSession, "observe", "online.observe")
    _wrap(tracer, online_session.OnlineSession, "_refresh_locked", "online.refresh")
    _wrap(tracer, online_session.OnlineSession, "_install_refreshed", "online.install")
    _wrap(tracer, drift.DriftDetector, "observe", "online.detect")
    _wrap(tracer, persistence.ModelStore, "save", "runtime.store.save")
    _wrap(tracer, persistence.ModelStore, "load", "runtime.store.load")
    _wrap(tracer, cross_context, "executor_map", "runtime.executor.map",
          attrs=lambda fn, items, jobs=None, **_: {
              "workers": resolve_jobs(jobs, len(items))})
    # Pickled by reference into the pool: functools.wraps keeps the
    # original's module and name, which now resolve to this wrapper.
    _wrap(tracer, cross_context, "_evaluate_target", "runtime.executor.task")
    _wrap(tracer, cross_context, "evaluate_context", "eval.protocol.evaluate_context")
    _wrap(tracer, estimators.ScaleOutEstimator, "fit", "eval.protocol.baseline_fit")


# ---------------------------------------------------------------------- #
# Analysis
# ---------------------------------------------------------------------- #


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total, reach = 0.0, start
    for s, e in clipped:
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def duration(span: Span) -> float:
    return span["end"] - span["start"]


def self_time(span: Span, children: Sequence[Span]) -> float:
    """The span's duration minus the part of it its children cover.

    Children may run on other threads or in other processes and may
    overlap each other; time covered by several counts once.
    """
    return duration(span) - covered(
        span["start"], span["end"], ((c["start"], c["end"]) for c in children)
    )


class SpanIndex:
    """Spans of one run, indexed by id, name and parent."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s["name"] == name]

    def kids(self, span: Span, name: str) -> List[Span]:
        return [c for c in self.children.get(span["id"], []) if c["name"] == name]

    def descendants(self, span: Span, name: str) -> List[Span]:
        out, todo = [], list(self.children.get(span["id"], []))
        while todo:
            child = todo.pop()
            if child["name"] == name:
                out.append(child)
            todo.extend(self.children.get(child["id"], []))
        return out

    def has_ancestor(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = self.by_id.get(parent["parent"])
        return False
