"""The server process a serve workload drives, started from its entry script."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Optional

from perfbench import config

#: Seconds the server may take to pre-train and bind, and to drain on stop.
START_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """``perfbench/serve_entry.py`` in a child process.

    ``setup_s`` is the time from launch until the server printed its port;
    the caller adds its warm-up requests to it. :meth:`stop` drains the
    server and returns the peak RSS it reported.
    """

    def __init__(self, work_dir: str, online: bool = False,
                 trace_dir: Optional[str] = None) -> None:
        os.makedirs(work_dir, exist_ok=True)
        args = [sys.executable, os.path.join(config.ROOT, "perfbench", "serve_entry.py")]
        #: The server's file-backed model store (online servers only).
        self.store: Optional[str] = None
        if online:
            self.store = os.path.join(work_dir, "store")
            args += ["--online", "--store", self.store]
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            args += ["--trace-dir", trace_dir]
        self._log = open(os.path.join(work_dir, "server.log"), "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=self._log,
                                     text=True, cwd=config.ROOT)
        try:
            self.port = self._await_ready()
        except BaseException:
            self.kill()
            raise

    def _await_ready(self) -> int:
        deadline = self.started + START_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not become ready in time")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not readable:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited during start-up: {self.log_tail()}")
            if line.startswith("READY "):
                return int(line.split()[1])

    def log_tail(self) -> str:
        self._log.flush()
        with open(self._log.name, encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def stop(self) -> float:
        """Drain and stop the server; returns its peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not drain in time") from None
        finally:
            self._log.close()
        for line in out.splitlines():
            if line.startswith("EXIT "):
                return float(json.loads(line[5:])["peak_rss_mb"])
        raise RuntimeError(f"server exited with {self.proc.returncode} and no report")

    def kill(self) -> None:
        """Stop the server without draining (error paths)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self._log.closed:
            self._log.close()
