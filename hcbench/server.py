"""A ``repro-hypercube serve --port 0`` child process, as the load sees it.

Each service run starts its own server with no ``--cache-dir``, so
nothing carries over between runs.  Set-up time is measured from
launch to the ``serving on`` banner; peak RSS is the child's
``VmHWM``; counters come from the server's own ``/metrics`` page.
"""

from __future__ import annotations

import http.client
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class ServerProcess:
    """Start, scrape and stop one planning-service child process."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch the server; returns seconds until it accepts requests."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        elapsed = time.perf_counter() - t0
        if not line.startswith("serving on"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return elapsed

    def _get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read()
        finally:
            conn.close()

    def metrics(self) -> dict[str, float]:
        """The ``/metrics`` exposition as ``{series: value}``."""
        out: dict[str, float] = {}
        for line in self._get("/metrics").decode().splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                out[series] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kills after a timeout."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return proc.returncode

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
