"""The serving side: a ``repro serve`` subprocess and a closed-loop client.

Every response is compared byte for byte with the facade answer computed in
set-up; a non-200 status, a timeout or different bytes is a failed request.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

REQUEST_TIMEOUT_S = 10.0


class ServerProcess:
    """``python -m repro serve STORE --port 0`` run from the source tree."""

    def __init__(self, root: Path, store: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store), "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "serving catalog at http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), read while it runs."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User + system CPU time the server has used so far (all threads)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def get_json(self, path: str):
        status, body = send(self.host, self.port, "GET", path, None)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


def send(host: str, port: int, method: str, path: str,
         body: Optional[bytes]) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def issue(host: str, port: int, request) -> Tuple[float, bool, bool, float]:
    """One request: (latency s, ok, wrong bytes, completion time)."""
    started = time.perf_counter()
    try:
        status, body = send(host, port, request.method, request.path, request.body)
    except (OSError, http.client.HTTPException):
        return REQUEST_TIMEOUT_S, False, False, time.perf_counter()
    done = time.perf_counter()
    wrong = status == 200 and body != request.expected
    return done - started, status == 200 and not wrong, wrong, done


def replay(host: str, port: int, requests) -> List[tuple]:
    """Each request once, in order, from one client: (kind, *issue(...))."""
    return [(r.kind, *issue(host, port, r)) for r in requests]


def closed_loop(host: str, port: int, requests,
                seconds: float) -> Tuple[List[tuple], float]:
    """One client cycling through ``requests`` until ``seconds`` pass.

    Each request is sent only after the previous reply, so a slower server
    receives less load.  Returns the samples and the start time on the
    ``perf_counter`` clock.
    """
    samples = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        request = requests[len(samples) % len(requests)]
        samples.append((request.kind, *issue(host, port, request)))
    return samples, start


def median_rate(samples: List[tuple], start: float, seconds: float,
                slice_s: float = 0.5) -> float:
    """Median over ``slice_s`` slices of correct replies per second.

    Host speed moves in bursts of a few seconds; the median slice is the
    rate the server sustains outside them.
    """
    slices = [0] * max(1, int(seconds / slice_s))
    for sample in samples:
        index = int((sample[4] - start) / slice_s)
        if sample[2] and index < len(slices):
            slices[index] += 1
    return statistics.median(slices) / slice_s


def histogram_p50_ms(histogram: dict) -> float:
    """Median of a fixed-bucket histogram, interpolated inside its bucket."""
    bounds, counts, total = histogram["buckets"], histogram["counts"], histogram["count"]
    if not total:
        return 0.0
    target, seen, lower = total / 2.0, 0, 0.0
    for upper, count in zip(bounds, counts):
        if count and seen + count >= target:
            return 1000.0 * (lower + (upper - lower) * (target - seen) / count)
        seen += count
        lower = upper
    return 1000.0 * bounds[-1]
