"""Server processes and closed-loop clients over TCP.

:class:`ServerProcess` spawns ``python -m repro.server`` (or the traced
launcher), waits until it listens, and stops it with SIGTERM so it
drains. :func:`drive` runs the closed loop: each client owns one
connection and sends its next request only after the previous answer
arrived.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import summary

#: How long a server may take to load its dataset and start listening.
START_TIMEOUT_S = 120.0
#: How long a drain may take before the process is killed.
STOP_TIMEOUT_S = 60.0
#: Per-request socket timeout; a slower answer is a transport error.
REQUEST_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a measurement."""


class Connection:
    """One client connection speaking newline-delimited JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def _open(self) -> None:
        sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def roundtrip(self, line: bytes) -> bytes:
        """Send one request line and return the raw answer line."""
        if self._sock is None:
            self._open()
        try:
            self._sock.sendall(line)
            answer = self._reader.readline()
        except OSError:
            self.close()
            raise
        if not answer:
            self.close()
            raise ConnectionError("server closed the connection")
        return answer

    def request(self, wire: dict) -> dict:
        return json.loads(self.roundtrip((json.dumps(wire) + "\n").encode()))

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        if self._sock is not None:
            self._sock.close()
        self._sock = self._reader = None


class ServerProcess:
    """A served dataset in a child process."""

    def __init__(self, argv: List[str], env: Dict[str, str], log_path: str):
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise

    def _pump(self) -> None:
        # Drain stdout for the whole life of the process so the pipe
        # never fills and blocks the server; the log keeps its drain
        # report.
        for raw in self.proc.stdout:
            self._log.write(raw)
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def _wait_listening(self) -> int:
        deadline = self.started + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
            except queue.Empty:
                raise BenchError(f"server did not listen within {START_TIMEOUT_S}s")
            if line is None:
                raise BenchError(
                    f"server exited with {self.proc.poll()} before listening"
                )
            if line.startswith("serving "):
                # "serving tpch on 127.0.0.1:PORT (...)"
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (VmHWM), in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the process so far (all threads)."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # Fields 14 and 15 of proc(5), counted after the ")" of comm.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM, then wait for the drain and the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        self._log.close()


def host_cpu_ticks() -> Dict[str, int]:
    """Machine-wide CPU tick counters (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:9]]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return dict(zip(names, values))


def scrape_stats(port: int) -> dict:
    """The server's telemetry snapshot (the ``stats`` wire op)."""
    conn = Connection(port)
    try:
        answer = conn.request({"op": "stats", "id": "perfbench-stats"})
    except (OSError, ValueError) as exc:
        raise BenchError(f"stats request failed: {exc!r}") from exc
    finally:
        conn.close()
    if answer.get("status") != "ok":
        raise BenchError(f"stats request failed: {answer}")
    return answer["value"]


@dataclass
class Record:
    """One attempted request as the client saw it."""

    rid: str
    template: str
    key: object
    sent: float
    received: float
    outcome: str = summary.OK
    #: The answer, kept only when it is checked after the run.
    value: object = None
    #: Plan-cache outcome the server reported ("hit"/"miss"), if any.
    plan_cache: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1e3


@dataclass
class DriveResult:
    records: List[Record] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


def drive(
    port: int,
    next_request: Callable[[], tuple],
    expected: Callable[[str, object], Optional[dict]],
    clients: int,
    seconds: float,
    min_ok: int,
    max_seconds: float,
) -> DriveResult:
    """Closed-loop load: ``clients`` connections for ``seconds``.

    A run goes on past ``seconds`` until ``min_ok`` requests succeeded
    (so the tail percentile has enough samples), but never past
    ``max_seconds``. ``next_request()`` returns ``(rid, template, key,
    line)``; ``expected(template, key)`` the reference answer, or
    ``None`` to keep the value for a check after the run.
    """
    result = DriveResult()
    lock = threading.Lock()
    ok_count = [0]
    errors: List[BaseException] = []

    def client(start: float) -> None:
        conn = Connection(port)
        mine: List[Record] = []
        try:
            while True:
                now = time.perf_counter()
                if now >= start + max_seconds:
                    break
                if now >= start + seconds and ok_count[0] >= min_ok:
                    break
                with lock:
                    rid, template, key, line = next_request()
                sent = time.perf_counter()
                try:
                    raw = conn.roundtrip(line)
                    received = time.perf_counter()
                    response = json.loads(raw)
                except (OSError, ValueError):
                    received = time.perf_counter()
                    response = None
                want = expected(template, key)
                record = Record(rid, template, key, sent, received)
                if response is not None:
                    record.plan_cache = (response.get("metrics") or {}).get(
                        "plan_cache"
                    )
                    if want is None and response.get("status") == "ok":
                        record.value = response.get("value")
                record.outcome = summary.classify(response, want)
                mine.append(record)
                if record.outcome == summary.OK:
                    with lock:
                        ok_count[0] += 1
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            conn.close()
            with lock:
                result.records.extend(mine)

    result.started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(result.started,), daemon=True)
        for _ in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max_seconds + REQUEST_TIMEOUT_S + 5.0)
        if thread.is_alive():
            raise BenchError("a client thread did not finish")
    if errors:
        raise BenchError(f"client failed: {errors[0]!r}") from errors[0]
    result.finished = max(
        (r.received for r in result.records), default=time.perf_counter()
    )
    result.records.sort(key=lambda r: r.sent)
    return result


def child_env(root: str, cache_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONHASHSEED"] = "0"
    return env
