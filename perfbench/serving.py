"""Program processes and the HTTP load generator of the serving workloads.

Workers and the router are the shipped entry points
(``python -m repro.serve.http`` and ``python -m repro.serve.fleet``) with
every flag at its default except ports, ``--cache-dir`` and the pool size.
A traced run swaps the workers for ``traced_worker.py``, which runs the
same command with timing subclasses; the router always stays the CLI.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from common import ROOT, clock, program_env, wait_recording_peak

HERE = Path(__file__).resolve().parent
#: Fixed ports keep the ring placement, and so the op-to-worker mapping,
#: identical from run to run.
BASE_PORTS = {"serve-hot": 39310, "serve-churn": 39320}
START_TIMEOUT = 60.0
STOP_TIMEOUT = 90.0
REQUEST_TIMEOUT = 120.0


def _port_free(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def pick_ports(workload: str) -> List[int]:
    """Router port, then one per worker: the first free block of three."""
    base = BASE_PORTS[workload]
    for offset in range(0, 200, 3):
        ports = [base + offset + i for i in range(3)]
        if all(_port_free(port) for port in ports):
            return ports
    raise RuntimeError("no free port block for the benchmark's servers")


def worker_urls(ports: List[int]) -> List[str]:
    return [f"http://127.0.0.1:{port}" for port in ports[1:]]


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self, method: str, path: str, body: bytes = b"", headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT
                )
            try:
                self._conn.request(method, path, body=body or None, headers=headers or {})
                response = self._conn.getresponse()
                data = response.read()
                if response.getheader("Connection", "").lower() == "close":
                    self.close()
                return response.status, dict(response.getheaders()), data
            except (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError):
                # A keep-alive connection the server closed while idle: one
                # reconnect, after which any error is the op's failure.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def metrics(url: str) -> Dict[str, float]:
    """Unlabelled samples of a ``/metrics`` page, summed over label sets."""
    client = Client(url)
    try:
        status, _headers, body = client.request("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"{url}/metrics answered {status}")
    out: Dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        name = name.split("{", 1)[0]
        try:
            out[name] = out.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return out


@dataclass
class Fleet:
    """A router and two workers sharing one store directory."""

    ports: List[int]
    cache_dir: Path
    log_dir: Path
    pool_sessions: Optional[int] = None
    traced: bool = False
    procs: List[subprocess.Popen] = field(default_factory=list)
    roles: List[str] = field(default_factory=list)
    spans_files: List[Path] = field(default_factory=list)

    @property
    def router_url(self) -> str:
        return f"http://127.0.0.1:{self.ports[0]}"

    @property
    def workers(self) -> List[str]:
        return worker_urls(self.ports)

    def _spawn(self, role: str, argv: List[str]) -> None:
        self.log_dir.mkdir(parents=True, exist_ok=True)
        log = open(self.log_dir / f"{role}.log", "wb")
        try:
            proc = subprocess.Popen(
                argv, cwd=str(ROOT), env=program_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.procs.append(proc)
        self.roles.append(role)

    def start(self) -> None:
        for index, port in enumerate(self.ports[1:]):
            flags = ["--port", str(port), "--cache-dir", str(self.cache_dir)]
            if self.pool_sessions is not None:
                flags += ["--pool-sessions", str(self.pool_sessions)]
            if self.traced:
                spans = self.log_dir / f"worker{index}.spans.json"
                self.spans_files.append(spans)
                argv = [sys.executable, str(HERE / "traced_worker.py"), "--spans-out", str(spans)]
            else:
                argv = [sys.executable, "-m", "repro.serve.http"]
            self._spawn(f"worker{index}", argv + flags)
        for url in self.workers:
            self._wait_health(url)
        router = [sys.executable, "-m", "repro.serve.fleet", "--port", str(self.ports[0])]
        for url in self.workers:
            router += ["--worker", url]
        self._spawn("router", router)
        self._wait_health(self.router_url, members=len(self.workers))

    def _wait_health(self, url: str, members: int = 0) -> None:
        deadline = clock() + START_TIMEOUT
        client = Client(url)
        try:
            while clock() < deadline:
                for proc, role in zip(self.procs, self.roles):
                    if proc.poll() is not None:
                        raise RuntimeError(
                            f"{role} exited with {proc.returncode} during start; "
                            f"see {self.log_dir / (role + '.log')}"
                        )
                try:
                    status, _h, body = client.request("GET", "/healthz")
                except OSError:
                    client.close()
                    time.sleep(0.02)
                    continue
                if status == 200:
                    document = json.loads(body)
                    up = [w for w in document.get("workers", []) if w.get("member")]
                    if len(up) >= members:
                        return
                time.sleep(0.02)
        finally:
            client.close()
        raise RuntimeError(f"{url} not healthy within {START_TIMEOUT}s")

    def stop(self) -> Tuple[Dict[str, Optional[int]], Dict[str, int]]:
        """Stop the router, then drain the workers.

        Returns each process's peak RSS (KiB) and its exit code, which is 0
        after a graceful drain.
        """
        peaks: Dict[str, Optional[int]] = {}
        codes: Dict[str, int] = {}
        order = sorted(range(len(self.procs)), key=lambda i: self.roles[i] != "router")
        for index in order:
            proc, role = self.procs[index], self.roles[index]
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            peaks[role] = wait_recording_peak(proc, STOP_TIMEOUT)
            codes[role] = proc.returncode
        self.procs.clear()
        self.roles.clear()
        return peaks, codes

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait()
        self.procs.clear()
        self.roles.clear()


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except FileNotFoundError:
                continue
    return total
