"""A small HTTP/1.1 load generator for the prediction server.

It runs in one process with at most ``nproc`` threads, one connection per
thread, and leaves every socket option at the kernel's default: setting
``TCP_NODELAY`` or ``TCP_QUICKACK`` on the client side would hide a stall
that the server's own writes cause. Each request goes out in a single
``sendall``; responses are framed by ``Content-Length`` and may arrive in
any number of pieces.

Latency is timed from the instant a request was *due* under its schedule,
so a stall also counts against the requests queued behind it; the
generator's own lateness (a thread that woke up late) is reported apart.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Seconds a request may take before it counts as failed (timed out).
REQUEST_TIMEOUT_S = 30.0


class ResponseReader:
    """Incremental parser of HTTP/1.1 responses framed by Content-Length.

    Bytes arrive through :meth:`feed` in whatever pieces ``recv`` returns;
    :meth:`pop` yields each complete ``(status, body)`` once all of its
    bytes are in. Bytes past the end of one response stay buffered for the
    next, so pipelined or coalesced responses parse correctly.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self._ready: List[Tuple[int, bytes]] = []

    def feed(self, data: bytes) -> None:
        self._buffer += data
        while True:
            head_end = self._buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = self._buffer[:head_end].decode("latin-1").split("\r\n")
            parts = head[0].split(" ", 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/"):
                raise ValueError(f"malformed status line {head[0]!r}")
            length = None
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length is None:
                raise ValueError("response without Content-Length")
            end = head_end + 4 + length
            if len(self._buffer) < end:
                return
            self._ready.append((int(parts[1]), self._buffer[head_end + 4:end]))
            self._buffer = self._buffer[end:]

    def pop(self) -> Optional[Tuple[int, bytes]]:
        """The oldest complete response, or ``None`` if none is complete."""
        return self._ready.pop(0) if self._ready else None


def encode_request(method: str, path: str, host: str, body: Optional[bytes],
                   close: bool) -> bytes:
    """One HTTP/1.1 request as a single buffer (head and body together)."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    if body is not None:
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    if close:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + (body or b"")


class Connection:
    """One client connection to the server, with stock socket options.

    ``keep_alive=False`` opens a fresh connection per request and asks the
    server to close it, as :class:`repro.serve.HttpServeClient` does.
    """

    def __init__(self, host: str, port: int, keep_alive: bool) -> None:
        self.host, self.port, self.keep_alive = host, port, keep_alive
        self._sock: Optional[socket.socket] = None
        self._reader = ResponseReader()
        #: TCP connections this object opened.
        self.connects = 0

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=REQUEST_TIMEOUT_S)
        self.connects += 1
        self._reader = ResponseReader()
        return sock

    def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
        """Send one request and block for its response ``(status, body)``."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        if self._sock is None:
            self._sock = self._connect()
        data = encode_request(method, path, f"{self.host}:{self.port}", body,
                              close=not self.keep_alive)
        try:
            self._sock.sendall(data)
            while True:
                response = self._reader.pop()
                if response is not None:
                    break
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection mid-response")
                self._reader.feed(chunk)
        except BaseException:
            self.close()
            raise
        if not self.keep_alive:
            self.close()
        return response

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class Request:
    """One scheduled request of a workload."""

    #: Seconds after the phase start at which the request is due.
    due_s: float
    method: str
    path: str
    payload: Any
    #: Workload label, e.g. ``"zeroshot"``, ``"fewshot"``, ``"observe"``.
    kind: str
    #: Free-form data the workload's checker needs (e.g. the group).
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """What happened to one request."""

    request: Request
    due: float
    sent: float
    received: float
    #: Generator lateness: send instant minus when the request could first
    #: have gone out (its due time, or when its thread became free).
    lag_s: float
    status: int = 0
    body: Any = None
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """Due time to response: includes any wait for a free connection."""
        return self.received - self.due

    @property
    def round_trip_s(self) -> float:
        """Send to response on the wire."""
        return self.received - self.sent


def _issue(conn: Connection, request: Request, due: float, ready: float) -> Outcome:
    sent = time.perf_counter()
    outcome = Outcome(request, due, sent, sent, lag_s=max(0.0, sent - max(due, ready)))
    try:
        status, raw = conn.request(request.method, request.path, request.payload)
        outcome.received = time.perf_counter()
        outcome.status = status
        outcome.body = json.loads(raw.decode("utf-8")) if raw else None
    except (OSError, ValueError) as error:  # timeout, reset, bad framing/JSON
        outcome.received = time.perf_counter()
        outcome.error = f"{type(error).__name__}: {error}"
    return outcome


def run_schedule(host: str, port: int, requests: Sequence[Request], connections: int,
                 keep_alive: bool, closed_loop_s: Optional[float] = None
                 ) -> Tuple[List[Outcome], int, float]:
    """Drive ``requests`` over a pool of ``connections`` client connections.

    The pool hands each request to the connection that has been idle the
    longest, or, when every connection is busy, to the first to come free.
    Open loop (``closed_loop_s=None``): request *i* is due ``due_s`` after
    the phase start. Closed loop: every request is due the moment its
    connection comes free, until ``closed_loop_s`` seconds have passed.
    One thread drives each connection; the calling thread drives the first.

    Returns ``(outcomes in schedule order, TCP connects, phase seconds)``.
    """
    line = threading.Condition()
    idle: "deque[int]" = deque()
    cursor = [0]
    outcomes: Dict[int, Outcome] = {}
    conns = [Connection(host, port, keep_alive) for _ in range(connections)]
    start = time.perf_counter()
    stop_at = None if closed_loop_s is None else start + closed_loop_s

    def take(slot: int) -> Optional[int]:
        """Queue as idle; once longest idle, take the next request index."""
        with line:
            idle.append(slot)
            while idle[0] != slot:
                line.wait()
            idle.popleft()
            line.notify_all()
            index = cursor[0]
            if index >= len(requests) or (stop_at is not None
                                          and time.perf_counter() >= stop_at):
                return None
            cursor[0] += 1
            return index

    def drive(slot: int) -> None:
        conn = conns[slot]
        try:
            while True:
                index = take(slot)
                if index is None:
                    return
                ready = time.perf_counter()
                request = requests[index]
                due = ready if stop_at is not None else start + request.due_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcomes[index] = _issue(conn, request, due, ready)
        finally:
            conn.close()

    threads = [threading.Thread(target=drive, args=(slot,), daemon=True)
               for slot in range(1, connections)]
    for thread in threads:
        thread.start()
    drive(0)
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S + 60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator threads did not finish")
    elapsed = time.perf_counter() - start
    ordered = [outcomes[i] for i in sorted(outcomes)]
    return ordered, sum(c.connects for c in conns), elapsed


def check_outcomes(outcomes: Sequence[Outcome], check: Callable[[Outcome], Optional[str]]
                   ) -> List[str]:
    """Failures of a phase: transport errors, non-200s and oracle mismatches.

    ``check`` returns ``None`` for a correct 200 body or a reason string.
    Every outcome is checked; nothing is retried or filtered.
    """
    problems = []
    for outcome in outcomes:
        if outcome.error is not None:
            problem = outcome.error
        elif outcome.status != 200:
            problem = f"HTTP {outcome.status}: {outcome.body}"
        else:
            problem = check(outcome)
        if problem is not None:
            outcome.error = outcome.error or problem
            problems.append(f"{outcome.request.kind} {outcome.request.path}: {problem}")
    return problems
