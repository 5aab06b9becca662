"""Shared helpers of the benchmark: paths, cover digests, statistics, host
speed, RSS.

Everything here is used by both the load generator (``run.py``) and the
processes it starts (``cold.py``, ``traced_worker.py``), so it imports
nothing from the program at module level.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark runs them in place, no install.
SRC = ROOT / "src"
#: Scratch space for generated inputs, stores, logs and span files.
WORK = ROOT / ".perfbench-work"
#: The clock of every span.  CLOCK_MONOTONIC is shared by all processes of
#: one machine, so spans from the load generator and the traced workers
#: can be laid on one time axis.
clock = time.monotonic


def program_env() -> Dict[str, str]:
    """The environment of every program process: the sources on the path."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_LOCKCHECK", None)
    return env


def require_program() -> None:
    """Exit non-zero when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program sources under {SRC}; run from a full checkout\n"
        )
        sys.exit(2)


# ---------------------------------------------------------------------- #
# canonical covers
# ---------------------------------------------------------------------- #
_RULE_FIELDS = ("lhs", "lhs_pattern", "rhs", "rhs_pattern")


def cover_digest(rules: Iterable[Dict[str, object]]) -> str:
    """Order-free digest of a cover given as JSON rule documents.

    A rule is identified by its embedded FD and its pattern; the rendered
    ``text`` and the ``kind`` tag of JSONL lines are ignored, so a library
    result, a JSON body and a JSONL stream of one cover digest alike.
    """
    lines = sorted(
        json.dumps([rule[name] for name in _RULE_FIELDS], separators=(",", ":"))
        for rule in rules
    )
    digest = hashlib.blake2b(digest_size=16)
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return f"{len(lines)}:{digest.hexdigest()}"


def result_digest(result) -> str:
    """The cover digest of a :class:`repro.api.DiscoveryResult`."""
    from repro.api.result import json_native, rule_json_dict

    return cover_digest(json_native(rule_json_dict(cfd)) for cfd in result.cfds)


def body_digest(body: bytes, stream: bool) -> str:
    """The cover digest of a discover response body (JSON or JSONL)."""
    text = body.decode("utf-8")
    if not stream:
        return cover_digest(json.loads(text)["rules"])
    rules = []
    for line in text.splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("kind") == "rule":
                rules.append(record)
    return cover_digest(rules)


def rules_key(body: bytes, stream: bool) -> Optional[bytes]:
    """A hash of the rules part of a discover body (its header excluded).

    The header carries timings that differ on every answer; the rules part
    does not.  Equal keys mean equal rules, so a load generator can parse
    each distinct answer once instead of on every op.
    """
    start = body.find(b"\n") if stream else body.find(b'"rules":')
    if start < 0:
        return None
    return hashlib.blake2b(body[start:], digest_size=16).digest()


def digest_rules(digest: str) -> int:
    """The rule count a digest was built over."""
    return int(digest.split(":", 1)[0])


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation between ranks."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# ---------------------------------------------------------------------- #
# host speed
# ---------------------------------------------------------------------- #
#: Seconds one reference unit takes on the host every reported time is
#: expressed for (about what it takes on a 2-vCPU x86_64 VM at 2.0 GHz).
REFERENCE_UNIT_S = 0.010
_REFERENCE_ROWS = 5000
#: CPUs one reference turn measures.
REFERENCE_CPUS = 8
#: Round trips in one round-trip unit (about REFERENCE_UNIT_S on that host).
ROUND_TRIPS = 16
#: Half the width of the window of reference samples that gives the host's
#: speed at one moment of a run.
SCALE_WINDOW_S = 3.0
#: Seconds a fresh interpreter takes to import numpy on that host.
REFERENCE_START_S = 0.15
START_TIMEOUT_S = 60.0


def reference_unit(cpu: Optional[int] = None) -> float:
    """Seconds one unit of the benchmark's fixed reference work takes now.

    The unit is the kinds of work the program does -- tuples, dicts and
    sorting in Python, ``np.unique`` and ``argsort`` over a column, JSON
    encoding -- on fixed inputs, and it runs nothing of the program: a
    change to the program cannot move it, only the host's speed can.  A
    shared 2-vCPU VM changes speed by 10-20% from one half minute to the
    next, so every time a run reports is scaled by the :class:`HostSpeed`
    of the units it ran between its ops.  With ``cpu`` the calling thread
    runs the unit on that CPU alone.
    """
    import numpy as np

    allowed = os.sched_getaffinity(0) if cpu is not None else None
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        started = clock()
        groups: Dict[tuple, list] = {}
        for i in range(_REFERENCE_ROWS):
            groups.setdefault((i % 17, i * 7 % 31), []).append(i * 13 % 11)
        classes = sorted(tuple(sorted(set(v))) for v in groups.values())
        column = np.arange(8 * _REFERENCE_ROWS, dtype=np.int64) * 7919 % 1009
        _values, inverse = np.unique(column, return_inverse=True)
        np.argsort(inverse, kind="stable")
        text = json.dumps([{"lhs": list(key), "rhs": value} for key, value in zip(groups, classes)])
        json.loads(text)
        return clock() - started
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)


class _Responder:
    """A thread of this process answering each byte it reads with a document.

    The document is 16 KB of JSON rules, encoded anew for every answer.
    """

    def __init__(self):
        self.caller, self._side = socket.socketpair()
        rules = [
            {"lhs": [i % 7, i % 5], "lhs_pattern": ["_", str(i)], "rhs": i % 3, "rhs_pattern": "_"}
            for i in range(200)
        ]
        self._document = {"rules": rules}
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while self._side.recv(1):
            body = json.dumps(self._document).encode()
            self._side.sendall(len(body).to_bytes(4, "big") + body)

    def round_trip(self) -> None:
        self.caller.sendall(b"?")
        size = int.from_bytes(self._read(4), "big")
        self._read(size)

    def _read(self, size: int) -> bytes:
        chunks, left = [], size
        while left:
            chunk = self.caller.recv(min(left, 1 << 16))
            if not chunk:
                raise ConnectionError("reference responder closed")
            chunks.append(chunk)
            left -= len(chunk)
        return b"".join(chunks)


_RESPONDER: Optional[_Responder] = None


def round_trip_unit() -> float:
    """Seconds ``ROUND_TRIPS`` round trips to a responder thread take now.

    Each round trip wakes another thread, crosses a socket both ways and
    encodes a JSON document: the system work of a request, which slows with
    the host in its own way, beside the compute of :func:`reference_unit`.
    """
    global _RESPONDER
    if _RESPONDER is None:
        _RESPONDER = _Responder()
    started = clock()
    for _ in range(ROUND_TRIPS):
        _RESPONDER.round_trip()
    return clock() - started


def reference_turn() -> List[float]:
    """A reference unit on each CPU this process may use, then round trips.

    The serving workloads spread the program over several processes that
    talk over sockets, and the CPUs of this host slow down independently: a
    turn measures every CPU (at most ``REFERENCE_CPUS``) and the round
    trips, and :func:`turn_unit` folds them.
    """
    cpus = sorted(os.sched_getaffinity(0))[:REFERENCE_CPUS]
    return [reference_unit(cpu) for cpu in cpus] + [round_trip_unit()]


def turn_unit(units: Sequence[float]) -> float:
    """The unit time of a turn: the mean of its compute and round-trip parts.

    The compute part is the harmonic mean of the CPUs' units (work spread
    over the CPUs goes at the sum of their rates, so a slow CPU weighs less
    than in a plain mean).
    """
    return (statistics.harmonic_mean(units[:-1]) + units[-1]) / 2


def reference_start() -> float:
    """Seconds a fresh interpreter takes to start and import numpy now.

    The reference of a profile-cold set-up, which is an interpreter
    starting and importing the library: process start and imports follow
    the host in their own way, not as the compute of
    :func:`reference_unit` does.
    """
    started = clock()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], check=True, timeout=START_TIMEOUT_S,
        stdin=subprocess.DEVNULL,
    )
    return clock() - started


class HostSpeed:
    """The host's speed through one phase of a run, from its reference samples.

    A sample is ``[start, end, unit]``: when a reference unit (or turn) ran
    and the seconds one unit took.  The speed at a moment is the median unit
    of the samples within ``SCALE_WINDOW_S`` of it, so a time measured while
    the host ran slow is scaled down by as much as the units around it took
    longer than :data:`REFERENCE_UNIT_S`, and a fast host's time up.
    """

    def __init__(self, samples: Sequence[Sequence[float]]):
        self.samples = sorted(samples)
        self._middles = [(start + end) / 2 for start, end, _unit in self.samples]
        self._units = [unit for _start, _end, unit in self.samples]

    def scale(self, at: Optional[float] = None) -> float:
        """Factor from seconds as timed to reference seconds at ``at``.

        Without ``at``, the factor of the whole phase.
        """
        units = self._units
        if at is not None and units:
            low = bisect.bisect_left(self._middles, at - SCALE_WINDOW_S)
            high = bisect.bisect_right(self._middles, at + SCALE_WINDOW_S)
            units = units[low:high] or [units[min(low, len(units) - 1)]]
        return REFERENCE_UNIT_S / median(units) if units else 1.0

    def seconds(self, begin: float, end: float, scaled: bool = True) -> float:
        """Seconds from ``begin`` to ``end`` outside the reference samples.

        ``scaled``: each piece between two samples in reference seconds.
        """
        total, cursor = 0.0, begin
        for start, stop, _unit in self.samples + [[end, end, 0.0]]:
            piece = min(start, end)
            if piece > cursor:
                total += (piece - cursor) * (self.scale((cursor + piece) / 2) if scaled else 1.0)
            cursor = max(cursor, stop)
        return total


# ---------------------------------------------------------------------- #
# memory, read from outside the measured process
# ---------------------------------------------------------------------- #
def vm_hwm_kib(pid: int) -> Optional[int]:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def wait_recording_peak(proc, timeout: float, poll: float = 0.01) -> Optional[int]:
    """Wait for ``proc`` to exit; return its last ``VmHWM`` read (KiB).

    ``VmHWM`` only grows, so the last value read before the process is
    gone is its peak, including whatever its shutdown path allocated.
    """
    peak = vm_hwm_kib(proc.pid)
    deadline = clock() + timeout
    while proc.poll() is None:
        if clock() > deadline:
            proc.kill()
            proc.wait()
            raise TimeoutError(f"process {proc.pid} did not exit in {timeout}s")
        value = vm_hwm_kib(proc.pid)
        if value is not None:
            peak = value
        time.sleep(poll)
    return peak


def dump_json(path: Path, document: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def load_json(path: Path) -> object:
    return json.loads(path.read_text())
