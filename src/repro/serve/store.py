"""The persistent cache store: ``Profiler`` structures on disk, per relation.

A :class:`CacheStore` is a directory of versioned binary entries keyed by
``(relation fingerprint, structure kind, params)``.  It is what lets warmed
sessions survive process restarts and be shared between workers: a
:class:`~repro.api.Profiler` dumps its caches with
:meth:`~repro.api.Profiler.dump_caches` and a fresh session (same relation,
different process) reloads them with :meth:`~repro.api.Profiler.warm_from`;
the :class:`~repro.serve.pool.SessionPool` does both automatically when
constructed with ``store=`` (evicted sessions spill, admitted sessions
warm-start).

Entry format
------------
One file per entry::

    magic (8 bytes) | header length (8 bytes LE) | JSON header | raw buffers

The header carries the store format version, the fingerprint, kind and params
of the entry, a JSON-native ``meta`` payload, the dtype/shape manifest of
the numpy buffers that follow (``np.save``-style raw C-order bytes, no
pickling anywhere), and a BLAKE2b digest of header and buffers.  Loads are
defensive — every one of these failures makes :meth:`CacheStore.get` return
``None`` (callers fall back to a cold build) instead of raising:

* unknown magic or store format version (``FORMAT_VERSION`` bumps whenever
  the payload layout of any kind changes);
* a dtype outside the fixed allowlist, or buffers shorter than the manifest
  promises (truncated/corrupted files);
* a payload digest that does not match the header's (bit rot, torn or
  patched buffers, a patched meta or manifest);
* a header fingerprint that does not match the requested one (the
  re-verification that catches moved or mixed-up files);
* params recorded in the header differing from the requested params.

Structurally corrupt files additionally get **quarantined**: moved to
``<root>/quarantine/`` next to a ``.reason`` file naming what was wrong, so
a damaged store degrades to a cold start *visibly* instead of silently.
:meth:`CacheStore.fsck` sweeps the whole store on demand (shallow header
checks or deep digest verification — the ``repro-discover --cache-fsck``
command and the serving CLIs' startup sweep run it).

Writes are atomic: the entry is written to a temp file in the target
directory and ``os.replace``d into place, so concurrent readers in other
worker processes only ever observe complete entries.

The module is also the only payload codec, each encoding written once, for
every persisted structure kind: free/closed mining results, difference-set
provider query caches, engine results and CTANE checkpoints (session
partition caches are rebuilt, not persisted).  :class:`~repro.api.Profiler`
hands in-memory keys and values to :func:`dump_structure` and takes them
back from :func:`load_structures`; it owns no format knowledge.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
import time
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro import obs
from repro.core.pattern import WILDCARD, is_wildcard
from repro.devtools.lockcheck import check_io_unlocked
from repro.exceptions import CacheStoreError
from repro.obs.names import SPAN_STORE_GET, SPAN_STORE_PUT
from repro.serve.faults import (
    FAULT_POINT_STORE_GET,
    FAULT_POINT_STORE_PUT,
    FaultInjected,
    FaultPlan,
)

#: Structure kinds the store understands (order = warm-load priority: the
#: closed difference-set provider is rebuilt from the free/closed result, so
#: mining entries must land first).
KIND_FREE_CLOSED = "free_closed"
KIND_DIFFERENCE_SETS = "difference_sets"
KIND_ENGINE_RESULTS = "engine_results"
#: Mid-run lattice frontier of a CTANE run (resume-after-crash); not part of
#: KIND_ORDER because it is not a warm-load structure — the engine fetches it
#: by key when (and only when) it runs.
KIND_CTANE_CHECKPOINT = "ctane_checkpoint"
KIND_ORDER = (
    KIND_FREE_CLOSED,
    KIND_DIFFERENCE_SETS,
    KIND_ENGINE_RESULTS,
)

#: Numpy dtypes an entry may carry; anything else is rejected on load.
ALLOWED_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
     "float32", "float64", "bool"}
)

#: Scalar types that survive a JSON round trip unchanged; engine results and
#: options containing anything else are simply not persisted.
_JSON_SCALARS = (str, int, float, bool, type(None))


def is_json_scalar(value: object) -> bool:
    return isinstance(value, _JSON_SCALARS)


def _canonical_json(value: object) -> str:
    """Deterministic JSON rendering of entry params and headers."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: A header's closing field.  The digest covers the header bytes before it
#: (identity, params, meta and manifest, in canonical JSON), then the buffers.
_DIGEST_FIELD = b',"payload_digest":"%s"}'


@dataclass
class StoreEntry:
    """One decoded store entry: identity, JSON meta and named numpy buffers."""

    fingerprint: str
    kind: str
    params: Dict[str, object]
    meta: Dict[str, object]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    def array(self, name: str, dtype: str) -> np.ndarray:
        """The named buffer, guarded to the expected dtype."""
        try:
            array = self.arrays[name]
        except KeyError:
            raise CacheStoreError(f"entry misses array {name!r}") from None
        if array.dtype != np.dtype(dtype):
            raise CacheStoreError(
                f"array {name!r} has dtype {array.dtype}, expected {dtype}"
            )
        return array


class CacheStore:
    """A versioned on-disk store of per-relation discovery structures.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Entries live in
        one sub-directory per relation fingerprint.
    max_bytes:
        Optional size budget.  The store never *blocks* a write on it;
        instead :meth:`enforce_budget` (called by spill paths —
        :meth:`~repro.api.Profiler.dump_caches` and the session pool's
        persist) runs :meth:`gc` down to the budget whenever the footprint
        exceeds it, so a long-lived serving store converges to the cap
        instead of growing without bound.

    The store itself is format-only: it reads and writes
    :class:`StoreEntry` records and never interprets the payloads — the
    codec functions of this module (:func:`dump_structure`,
    :func:`load_structure`, :func:`load_structures`) do.
    """

    #: Bump whenever the binary layout or any kind's payload schema changes;
    #: readers skip entries written under any other version.  Version 2 added
    #: the mandatory ``payload_digest`` header field (BLAKE2b over the raw
    #: array buffers, verified on every full load); version 3 moved CTANE
    #: checkpoints onto the shared lattice-element encoding; 4 digests headers.
    FORMAT_VERSION = 4
    MAGIC = b"RPROCS01"
    _SUFFIX = ".rpc"
    #: Corrupt entries are moved here (flattened ``<fingerprint>-<entry>``
    #: names, each with a ``.reason`` sidecar) instead of being deleted.
    QUARANTINE_DIRNAME = "quarantine"

    #: Lock-file acquisition: retry cadence, give-up horizon, and the mtime
    #: age past which a lock is presumed abandoned (a crashed worker) and
    #: broken.
    LOCK_RETRY_SECONDS = 0.005
    LOCK_TIMEOUT_SECONDS = 5.0
    LOCK_STALE_SECONDS = 30.0

    def __init__(
        self,
        root: os.PathLike,
        *,
        max_bytes: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
        sweep: bool = False,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise CacheStoreError("max_bytes must be at least 0")
        self._root = Path(root)
        self.max_bytes = max_bytes
        self._faults = faults
        try:
            self._root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CacheStoreError(
                f"cannot create cache store at {self._root}: {exc}"
            ) from exc
        self.writes = 0
        self.loads = 0
        self.load_failures = 0
        self.gc_runs = 0
        self.gc_removed = 0
        self.lock_timeouts = 0
        self.quarantined = 0
        if sweep:
            # Startup recovery: shallow-check every entry (magic, header,
            # version, manifest-vs-size) and quarantine the torn/corrupt
            # leftovers of a crashed writer before serving starts.
            self.fsck(deep=False)

    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def _entry_path(self, fingerprint: str, kind: str, params: Dict) -> Path:
        digest = hashlib.blake2b(
            _canonical_json(params).encode("utf-8"), digest_size=6
        ).hexdigest()
        return self._root / fingerprint / f"{kind}-{digest}{self._SUFFIX}"

    def _visit_fault(self, point: str) -> Optional[float]:
        """Apply the fault plan at ``point``; injected failures surface as
        the store's native :class:`CacheStoreError` (torn-write faults
        return the surviving payload fraction for :meth:`put` to apply)."""
        if self._faults is None:
            return None
        try:
            return self._faults.visit(point)
        except (FaultInjected, ConnectionResetError) as exc:
            raise CacheStoreError(f"injected fault at {point}: {exc}") from exc

    @staticmethod
    def _payload_digest(chunks: Iterable[bytes]) -> str:
        digest = hashlib.blake2b(digest_size=16)
        for chunk in chunks:
            digest.update(chunk)
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def put(
        self,
        fingerprint: str,
        kind: str,
        params: Dict[str, object],
        *,
        meta: Optional[Dict[str, object]] = None,
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> Path:
        """Write one entry atomically (temp file + rename); returns its path."""
        check_io_unlocked(FAULT_POINT_STORE_PUT)
        with obs.get_tracer().start_span(SPAN_STORE_PUT, kind=kind) as span:
            return self._put_traced(span, fingerprint, kind, params, meta, arrays)

    def _put_traced(
        self,
        span,
        fingerprint: str,
        kind: str,
        params: Dict[str, object],
        meta: Optional[Dict[str, object]],
        arrays: Optional[Dict[str, np.ndarray]],
    ) -> Path:
        arrays = arrays or {}
        manifest = []
        buffers: List[bytes] = []
        for name, array in arrays.items():
            dtype = str(array.dtype)
            if dtype not in ALLOWED_DTYPES:
                raise CacheStoreError(f"dtype {dtype} is not storable")
            manifest.append({"name": name, "dtype": dtype, "shape": list(array.shape)})
            buffers.append(np.ascontiguousarray(array).tobytes())
        header = {
            "format_version": self.FORMAT_VERSION,
            "fingerprint": fingerprint,
            "kind": kind,
            "params": params,
            "meta": meta or {},
            "arrays": manifest,
        }
        try:
            body = _canonical_json(header).encode("utf-8")[:-1]
        except (TypeError, ValueError) as exc:
            raise CacheStoreError(f"entry header is not JSON-native: {exc}") from exc
        blob = body + _DIGEST_FIELD % self._payload_digest([body, *buffers]).encode()
        chunks = [self.MAGIC, struct.pack("<Q", len(blob)), blob, *buffers]
        path = self._entry_path(fingerprint, kind, params)
        torn_fraction = self._visit_fault(FAULT_POINT_STORE_PUT)
        if torn_fraction is not None:
            # Emulate a crash mid-write that bypassed the atomic rename: a
            # truncated entry lands on the *final* path, then the writer
            # "dies" (the caller sees the store's native failure).  Recovery
            # sweeps and digest checks must catch exactly this file.
            full = b"".join(chunks)
            keep = max(len(self.MAGIC) + 4, int(len(full) * torn_fraction))
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(full[:keep])
            except OSError:
                pass
            raise CacheStoreError(f"injected torn write at store entry {path}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=self._SUFFIX
            )
        except OSError as exc:
            raise CacheStoreError(f"cannot write store entry {path}: {exc}") from exc
        try:
            with os.fdopen(handle, "wb") as stream:
                stream.writelines(chunks)
            os.replace(temp_name, path)
        except OSError as exc:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise CacheStoreError(f"cannot write store entry {path}: {exc}") from exc
        self.writes += 1
        span.set_attr("bytes", len(blob) + sum(len(chunk) for chunk in buffers))
        return path

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def _read_header(
        self, path: Path, *, payload: bool = False
    ) -> Tuple[Dict, List[Tuple[str, np.dtype, Tuple[int, ...]]], Optional[bytes]]:
        """``(header, [(name, dtype, shape), ...], payload or None)`` of one
        entry: the one header reader, for full loads, shallow fsck and gc.

        Checks magic, header, version, digest field, dtypes and that the file
        holds every byte the manifest promises, plus the digest itself when
        the payload is read (CacheStoreError otherwise).
        """
        try:
            with path.open("rb") as stream:
                size = os.fstat(stream.fileno()).st_size
                if stream.read(len(self.MAGIC)) != self.MAGIC:
                    raise CacheStoreError(f"{path} is not a cache-store entry")
                prefix = stream.read(8)
                if len(prefix) != 8:
                    raise CacheStoreError(f"{path} is truncated (header length)")
                (header_len,) = struct.unpack("<Q", prefix)
                if header_len > 64 * 2 ** 20:
                    raise CacheStoreError(f"{path} declares an absurd header")
                blob = stream.read(header_len)
                buffers = stream.read() if payload else None
        except OSError as exc:
            raise CacheStoreError(f"cannot read store entry {path}: {exc}") from exc
        if len(blob) != header_len:
            raise CacheStoreError(f"{path} is truncated (header)")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CacheStoreError(f"{path} has a corrupt header: {exc}") from exc
        if not isinstance(header, dict):
            raise CacheStoreError(f"{path} has a corrupt header: not an object")
        if header.get("format_version") != self.FORMAT_VERSION:
            raise CacheStoreError(
                f"{path} was written under store format "
                f"{header.get('format_version')!r}, this reader expects "
                f"{self.FORMAT_VERSION}"
            )
        if not isinstance(header.get("payload_digest"), str):
            raise CacheStoreError(f"{path} carries no payload digest")
        manifest = []
        try:
            for spec in header.get("arrays", []):
                dtype = spec.get("dtype")
                if dtype not in ALLOWED_DTYPES:
                    raise CacheStoreError(
                        f"{path} declares forbidden dtype {dtype!r}"
                    )
                shape = tuple(int(n) for n in spec.get("shape", []))
                manifest.append((spec["name"], np.dtype(dtype), shape))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CacheStoreError(f"{path} has a corrupt manifest: {exc}") from exc
        available = (
            len(buffers) if buffers is not None
            else size - len(self.MAGIC) - 8 - header_len
        )
        promised = sum(
            int(np.prod(shape)) * dtype.itemsize for _, dtype, shape in manifest
        )
        if available < promised:
            raise CacheStoreError(
                f"{path} is truncated ({available} payload bytes, manifest "
                f"promises {promised})"
            )
        if buffers is not None:
            expected = header["payload_digest"]
            field = _DIGEST_FIELD % expected.encode("utf-8")
            covered = blob[: -len(field)] if blob.endswith(field) else blob
            actual = self._payload_digest([covered, memoryview(buffers)[:promised]])
            if actual != expected:
                raise CacheStoreError(
                    f"{path} fails its payload digest "
                    f"(header {expected}, computed {actual})"
                )
        return header, manifest, buffers

    def _load_path(self, path: Path) -> StoreEntry:
        """Decode one entry file; every malformation raises CacheStoreError."""
        header, manifest, buffers = self._read_header(path, payload=True)
        arrays: Dict[str, np.ndarray] = {}
        offset = 0
        for name, dtype, shape in manifest:
            count = int(np.prod(shape))
            arrays[name] = np.frombuffer(
                buffers, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
            offset += count * dtype.itemsize
        return StoreEntry(
            fingerprint=header.get("fingerprint", ""),
            kind=header.get("kind", ""),
            params=header.get("params", {}),
            meta=header.get("meta", {}),
            arrays=arrays,
        )

    def get(
        self, fingerprint: str, kind: str, params: Dict[str, object]
    ) -> Optional[StoreEntry]:
        """The entry for this key, or ``None`` (missing, corrupt, mismatched)."""
        check_io_unlocked(FAULT_POINT_STORE_GET)
        with obs.get_tracer().start_span(SPAN_STORE_GET, kind=kind) as span:
            path = self._entry_path(fingerprint, kind, params)
            try:
                self._visit_fault(FAULT_POINT_STORE_GET)
            except CacheStoreError:
                self.load_failures += 1
                span.set_attr("hit", False)
                return None
            if not path.exists():
                span.set_attr("hit", False)
                return None
            entry = self._read_entry(path, fingerprint, kind, params, span)
            span.set_attr("hit", entry is not None)
            return entry

    def _read_entry(
        self,
        path: Path,
        fingerprint: str,
        kind: Optional[str] = None,
        params: Optional[Dict] = None,
        span=None,
    ) -> Optional[StoreEntry]:
        """Load one entry and re-verify its identity, keeping the counters.

        A corrupt file is quarantined with its reason on record; an entry of
        another relation (a moved file), kind or params is a plain miss.
        """
        try:
            entry = self._load_path(path)
        except CacheStoreError as exc:
            self.load_failures += 1
            self._quarantine(path, str(exc))
            if span is not None:
                span.set_status("error", error="corrupt")
            return None
        if (
            entry.fingerprint != fingerprint
            or (kind is not None and entry.kind != kind)
            or (
                params is not None
                and _canonical_json(entry.params) != _canonical_json(params)
            )
        ):
            self.load_failures += 1
            return None
        self.loads += 1
        return entry

    def load_all(self, fingerprint: str) -> List[StoreEntry]:
        """Every readable entry of one relation, in warm-load kind order.

        Corrupt/mismatched entries are counted in :attr:`load_failures` and
        silently skipped — a damaged store degrades to a cold start, never to
        a crash.
        """
        directory = self._root / fingerprint
        if not directory.is_dir():
            return []
        entries: List[StoreEntry] = []
        for path in sorted(directory.glob(f"*{self._SUFFIX}")):
            if path.name.startswith("."):
                continue  # in-progress temp files
            entry = self._read_entry(path, fingerprint)
            if entry is not None:
                entries.append(entry)
        rank = {kind: index for index, kind in enumerate(KIND_ORDER)}
        entries.sort(key=lambda e: rank.get(e.kind, len(rank)))
        return entries

    # ------------------------------------------------------------------ #
    # cross-process locking
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def lock(self, fingerprint: str, kind: str) -> Iterator[bool]:
        """A cross-process lock over one ``(fingerprint, kind)`` merge scope.

        Two workers sharing a store directory both run read→union→write on
        a provider's query cache during spill; without mutual exclusion the
        slower writer silently drops the faster one's additions.  The lock
        is an ``O_CREAT | O_EXCL`` file (``.lock-<kind>`` inside the
        relation's directory — dot-prefixed, so entry walks skip it) retried
        every :attr:`LOCK_RETRY_SECONDS`.  Locks older than
        :attr:`LOCK_STALE_SECONDS` are presumed abandoned by a crashed
        holder and broken.  Acquisition is **best-effort**: after
        :attr:`LOCK_TIMEOUT_SECONDS` the context proceeds *without* the lock
        (yielding ``False``) — a spill must degrade to the old racy merge,
        never fail or hang the serving path.
        """
        directory = self._root / fingerprint
        path = directory / f".lock-{kind}"
        deadline = time.monotonic() + self.LOCK_TIMEOUT_SECONDS
        acquired = False
        while True:
            try:
                directory.mkdir(parents=True, exist_ok=True)
                handle = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(handle)
                acquired = True
                break
            except FileExistsError:
                if time.monotonic() >= deadline:
                    self.lock_timeouts += 1
                    break
                try:
                    age = time.time() - path.stat().st_mtime
                except OSError:
                    continue  # holder just released: retry immediately
                if age > self.LOCK_STALE_SECONDS:
                    try:
                        path.unlink()  # break the abandoned lock
                    except OSError:
                        pass
                    continue
                time.sleep(self.LOCK_RETRY_SECONDS)
            except OSError:
                # An unwritable directory must not fail the spill either.
                self.lock_timeouts += 1
                break
        try:
            yield acquired
        finally:
            if acquired:
                try:
                    path.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------ #
    # recovery: quarantine and fsck
    # ------------------------------------------------------------------ #
    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (``<root>/quarantine/``)."""
        return self._root / self.QUARANTINE_DIRNAME

    def _quarantine(self, path: Path, reason: str) -> bool:
        """Move one corrupt entry to the quarantine directory, best-effort.

        The entry keeps its bytes (``<fingerprint>-<name>``) and gains a
        ``.reason`` sidecar recording why it was pulled; a store that cannot
        quarantine (read-only, races) still degrades to a cold start.
        """
        target_dir = self.quarantine_dir
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / f"{path.parent.name}-{path.name}"
            suffix = 0
            while target.exists():
                suffix += 1
                target = target_dir / f"{path.parent.name}-{path.name}.{suffix}"
            os.replace(str(path), str(target))
            target.with_name(target.name + ".reason").write_text(
                f"source: {path}\nreason: {reason}\n", encoding="utf-8"
            )
        except OSError:
            return False
        self.quarantined += 1
        return True

    def fsck(self, *, deep: bool = True) -> Dict[str, object]:
        """Sweep every entry, quarantining the corrupt ones; returns a report.

        ``deep=True`` fully decodes each entry (including the payload-digest
        verification); ``deep=False`` runs the shallow header/size check only
        — that is the startup sweep (``CacheStore(..., sweep=True)``), cheap
        enough to run before serving.  The report lists each quarantined
        entry with its reason.
        """
        checked = 0
        healthy = 0
        problems: List[Dict[str, str]] = []
        for path in self._entry_files():
            checked += 1
            try:
                if deep:
                    self._load_path(path)
                else:
                    self._read_header(path)  # no payload read, no digest
            except CacheStoreError as exc:
                reason = str(exc)
                self._quarantine(path, reason)
                problems.append({"path": str(path), "reason": reason})
                continue
            healthy += 1
        return {
            "checked": checked,
            "healthy": healthy,
            "quarantined": len(problems),
            "problems": problems,
            "quarantine_dir": str(self.quarantine_dir),
        }

    # ------------------------------------------------------------------ #
    # maintenance / introspection
    # ------------------------------------------------------------------ #
    def delete(
        self, fingerprint: str, kind: str, params: Dict[str, object]
    ) -> bool:
        """Remove one entry by key; ``True`` if a file was deleted."""
        path = self._entry_path(fingerprint, kind, params)
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _entry_files(self) -> List[Path]:
        return [
            path
            for path in self._root.glob(f"*/*{self._SUFFIX}")
            if not path.name.startswith(".")
            and path.parent.name != self.QUARANTINE_DIRNAME
        ]

    def size_bytes(self) -> int:
        """Total bytes of every entry file currently in the store."""
        total = 0
        for path in self._entry_files():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def __len__(self) -> int:
        return len(self._entry_files())

    def gc(self, max_bytes: int) -> Dict[str, object]:
        """Shrink the store to at most ``max_bytes``; returns a summary.

        Victims follow the session pool's cost-aware eviction score: the
        entry with the **lowest recorded build cost** (the ``build_seconds``
        its writer observed — what a cold rebuild would pay) goes first, with
        **oldest mtime** as the tiebreak; unreadable or wrong-version entries
        score below everything and are collected before any healthy one.
        Emptied per-relation directories are pruned.  ``gc(0)`` clears the
        store.  Deletion is best-effort — an entry that vanishes or resists
        unlinking (a concurrent worker, a read-only file) is skipped, never an
        error — so GC can run while other workers serve.
        """
        if max_bytes < 0:
            raise CacheStoreError("max_bytes must be at least 0")
        entries = []
        total = 0
        for path in self._entry_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            try:
                header, _, _ = self._read_header(path)
                score = float(header.get("meta", {}).get("build_seconds") or 0.0)
            except (AttributeError, CacheStoreError, TypeError, ValueError):
                # AttributeError covers a null / non-dict "meta" field: any
                # malformation scores below every healthy entry.
                score = -1.0
            entries.append((score, stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        removed_bytes = 0
        if total > max_bytes:
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            for score, _mtime, size, path in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
                removed_bytes += size
            for directory in self._root.iterdir():
                if directory.is_dir():
                    try:
                        directory.rmdir()  # only succeeds once empty
                    except OSError:
                        pass
        self.gc_runs += 1
        self.gc_removed += removed
        return {
            "max_bytes": int(max_bytes),
            "removed_entries": removed,
            "removed_bytes": removed_bytes,
            "remaining_entries": len(self),
            "remaining_bytes": total,
        }

    def enforce_budget(self) -> Optional[Dict[str, object]]:
        """Run :meth:`gc` down to :attr:`max_bytes` when the store exceeds it.

        ``None`` when no budget is configured or the store is within it.
        Spill paths call this after writing (``Profiler.dump_caches``, the
        session pool's persist), so the cap is enforced exactly where growth
        happens instead of only via the offline ``--cache-gc`` command.
        """
        if self.max_bytes is None:
            return None
        if self.size_bytes() <= self.max_bytes:
            return None
        return self.gc(self.max_bytes)

    def clear(self, fingerprint: Optional[str] = None) -> int:
        """Delete all entries (of one relation, if given); returns the count."""
        removed = 0
        for path in self._entry_files():
            if fingerprint is not None and path.parent.name != fingerprint:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def info(self) -> Dict[str, object]:
        """Counters plus the on-disk footprint."""
        return {
            "root": str(self._root),
            "entries": len(self),
            "bytes": self.size_bytes(),
            "max_bytes": self.max_bytes,
            "writes": self.writes,
            "loads": self.loads,
            "load_failures": self.load_failures,
            "gc_runs": self.gc_runs,
            "gc_removed": self.gc_removed,
            "lock_timeouts": self.lock_timeouts,
            "quarantined": self.quarantined,
        }


# ---------------------------------------------------------------------- #
# The payload codec: every encoding below is written once.
# ---------------------------------------------------------------------- #
def _encode_element(element: Tuple) -> List:
    """A CTANE lattice element ``(X, sp)`` as ``[attributes, codes]``;
    lattice codes are always ints, so ``None`` stands for the wildcard."""
    attrs, codes = element
    return [list(attrs), [None if code is WILDCARD else code for code in codes]]


def _decode_element(spec: List) -> Tuple:
    attrs, codes = spec
    return tuple(attrs), tuple(WILDCARD if code is None else code for code in codes)


def _encode_rules(cfds) -> Optional[List[Dict]]:
    """CFDs as JSON rules, or ``None`` if a pattern value would not survive a
    JSON round trip byte-identically.  A constant may be any JSON scalar,
    ``None`` included, so values keep ``[flag, value]``: ``[1, None]`` is
    the wildcard, ``[0, constant]`` a constant."""

    def encode(value: object) -> List:
        return [1, None] if is_wildcard(value) else [0, value]

    rules = []
    for cfd in cfds:
        values = (*cfd.lhs_pattern, cfd.rhs_pattern)
        if not all(is_wildcard(v) or is_json_scalar(v) for v in values):
            return None
        rules.append(
            {
                "lhs": list(cfd.lhs),
                "lhs_pattern": [encode(value) for value in cfd.lhs_pattern],
                "rhs": cfd.rhs,
                "rhs_pattern": encode(cfd.rhs_pattern),
            }
        )
    return rules


def _decode_rules(rules: List[Dict]) -> List:
    from repro.core.cfd import CFD

    def decode(spec: List) -> object:
        flag, value = spec
        return WILDCARD if flag else value

    return [
        CFD(
            tuple(rule["lhs"]),
            tuple(decode(spec) for spec in rule["lhs_pattern"]),
            rule["rhs"],
            decode(rule["rhs_pattern"]),
        )
        for rule in rules
    ]


# free/closed mining results ------------------------------------------- #
def pack_free_closed(result) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of a :class:`~repro.itemsets.mining.FreeClosedResult`.

    Tid-lists are concatenated into one int64 buffer with an offsets array;
    the item sets and closures ride in the JSON meta as ``[attr, code]``
    pairs.
    """
    sets = []
    tid_chunks: List[np.ndarray] = []
    offsets = [0]
    for free in result.free_sets.values():
        sets.append(
            {
                "items": sorted([int(a), int(c)] for a, c in free.items),
                "closure": sorted([int(a), int(c)] for a, c in free.closure),
            }
        )
        tid_chunks.append(np.asarray(free.tids, dtype=np.int64))
        offsets.append(offsets[-1] + int(free.tids.size))
    tids = (
        np.concatenate(tid_chunks) if tid_chunks else np.empty(0, dtype=np.int64)
    )
    meta = {
        "min_support": int(result.min_support),
        "n_rows": int(result.n_rows),
        "sets": sets,
    }
    arrays = {"tids": tids, "offsets": np.asarray(offsets, dtype=np.int64)}
    return meta, arrays


def unpack_free_closed(entry: StoreEntry):
    """Rebuild a :class:`~repro.itemsets.mining.FreeClosedResult` from an entry."""
    from repro.itemsets.mining import FreeClosedResult, FreeItemSet

    tids = entry.array("tids", "int64")
    offsets = entry.array("offsets", "int64")
    sets = entry.meta["sets"]
    if offsets.size != len(sets) + 1:
        raise CacheStoreError("free/closed offsets do not match the item sets")
    free_sets = {}
    for index, spec in enumerate(sets):
        items = frozenset((int(a), int(c)) for a, c in spec["items"])
        closure = frozenset((int(a), int(c)) for a, c in spec["closure"])
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        if not 0 <= lo <= hi <= tids.size:
            raise CacheStoreError("free/closed tid offsets out of range")
        free_sets[items] = FreeItemSet(
            items=items, tids=tids[lo:hi], closure=closure
        )
    return FreeClosedResult(
        free_sets,
        min_support=int(entry.meta["min_support"]),
        n_rows=int(entry.meta["n_rows"]),
    )


# partition bundles (the two of a CTANE checkpoint) --------------------- #
def pack_partition_bundle(
    items: Iterable[Tuple[Tuple, object]], prefix: str
) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of ``[(lattice element, Partition), ...]``.

    The compressed covered form of every partition (sorted int64 row indices
    plus int32 class labels) is concatenated into two buffers; the encoded
    elements and per-partition counts ride in the meta.  Every meta and
    array field is named ``prefix + field``, so one entry can carry several
    bundles (a checkpoint carries two).
    """
    keys = []
    shapes = []
    row_chunks = [np.empty(0, dtype=np.int64)]
    label_chunks = [np.empty(0, dtype=np.int32)]
    offsets = [0]
    for key, partition in items:
        keys.append(_encode_element(key))
        shapes.append(
            [int(partition.n_rows), int(partition.n_classes), int(partition.size)]
        )
        row_chunks.append(partition.covered_index)
        label_chunks.append(partition.covered_labels)
        offsets.append(offsets[-1] + int(partition.covered_index.size))
    meta = {prefix + "keys": keys, prefix + "shapes": shapes}
    arrays = {
        prefix + "rows": np.concatenate(row_chunks, dtype=np.int64),
        prefix + "labels": np.concatenate(label_chunks, dtype=np.int32),
        prefix + "offsets": np.asarray(offsets, dtype=np.int64),
    }
    return meta, arrays


def unpack_partition_bundle(
    entry: StoreEntry, prefix: str
) -> List[Tuple[Tuple, object]]:
    """Rebuild ``[(lattice element, Partition), ...]`` from a bundle entry."""
    from repro.relational.partition import Partition

    rows = entry.array(prefix + "rows", "int64")
    labels = entry.array(prefix + "labels", "int32")
    offsets = entry.array(prefix + "offsets", "int64").tolist()
    keys = entry.meta[prefix + "keys"]
    shapes = entry.meta[prefix + "shapes"]
    if rows.size != labels.size:
        raise CacheStoreError("partition bundle rows/labels length mismatch")
    if len(offsets) != len(keys) + 1 or len(shapes) != len(keys):
        raise CacheStoreError("partition bundle manifest mismatch")
    out = []
    for key, (n_rows, n_classes, size), lo, hi in zip(
        keys, shapes, offsets, offsets[1:]
    ):
        if not 0 <= lo <= hi <= rows.size:
            raise CacheStoreError("partition bundle offsets out of range")
        partition = Partition.from_covered(
            rows[lo:hi], labels[lo:hi], n_rows, n_classes, size=size
        )
        out.append((_decode_element(key), partition))
    return out


# difference-set provider query caches ---------------------------------- #
def pack_query_cache(
    exported: Iterable[Tuple[int, frozenset, Set[frozenset]]]
) -> Dict:
    """Meta payload of a difference-set provider's ``export_cache()``."""
    entries = []
    for rhs, items, family in exported:
        entries.append(
            [
                int(rhs),
                sorted([int(a), int(c)] for a, c in items),
                sorted(sorted(int(a) for a in member) for member in family),
            ]
        )
    entries.sort()
    return {"entries": entries}


def unpack_query_cache(meta: Dict) -> List[Tuple[int, frozenset, Set[frozenset]]]:
    """The ``import_cache()`` payload of a persisted provider query cache."""
    out = []
    for rhs, items, family in meta["entries"]:
        out.append(
            (
                int(rhs),
                frozenset((int(a), int(c)) for a, c in items),
                {frozenset(int(a) for a in member) for member in family},
            )
        )
    return out


# engine results (canonical covers + stats) ----------------------------- #
def pack_engine_result(cfds, stats) -> Optional[Dict]:
    """Meta payload of one cached engine run, or ``None`` if any pattern
    value would not survive a JSON round trip byte-identically."""
    rules = _encode_rules(cfds)
    if rules is None:
        return None
    counters = {
        name: getattr(stats, name)
        for name in stats._COUNTERS
        if getattr(stats, name) is not None
    }
    extras = {
        key: value for key, value in stats.extras.items() if is_json_scalar(value)
    }
    return {
        "rules": rules,
        "stats": {
            "algorithm": stats.algorithm,
            "counters": counters,
            "extras": extras,
        },
    }


def unpack_engine_result(meta: Dict):
    """Rebuild ``(cfds, stats)`` from a persisted engine-result entry."""
    from repro.api.result import AlgorithmStats

    spec = meta["stats"]
    stats = AlgorithmStats(
        algorithm=spec.get("algorithm", ""),
        extras=dict(spec.get("extras", {})),
        **{key: int(value) for key, value in spec.get("counters", {}).items()},
    )
    return tuple(_decode_rules(meta["rules"])), stats


# CTANE checkpoints (mid-run lattice frontiers) -------------------------- #
#: The two partition bundles of a checkpoint: ``(field prefix, state key)``.
_CHECKPOINT_BUNDLES = (("p_", "parent_partitions"), ("l_", "level_partitions"))


def pack_ctane_checkpoint(state: Dict) -> Optional[Tuple[Dict, Dict[str, np.ndarray]]]:
    """``(meta, arrays)`` of a CTANE per-level checkpoint, or ``None`` when
    the already-emitted CFDs carry values that would not survive a JSON
    round trip byte-identically (then the run simply is not checkpointable).

    The state is the engine's loop frontier at the top of one lattice level:
    the level's elements, the previous level's candidate-RHS sets and
    pattern partitions, the current level's partitions, the results so far,
    and the traversal counters.  A candidate-RHS set ``{(A, c), ...}``
    travels as the element of its attributes and codes.
    """
    rules = _encode_rules(state["results"])
    if rules is None:
        return None
    meta: Dict[str, object] = {
        "size": int(state["size"]),
        "level": [_encode_element(element) for element in state["level"]],
        "parent_cplus": [
            [_encode_element(element), _encode_element(tuple(zip(*items)) or ((), ()))]
            for element, items in state["parent_cplus"].items()
        ],
        "rules": rules,
        "counters": {
            key: int(value) for key, value in state["counters"].items()
        },
    }
    arrays: Dict[str, np.ndarray] = {}
    for prefix, name in _CHECKPOINT_BUNDLES:
        bundle_meta, bundle_arrays = pack_partition_bundle(
            state[name].items(), prefix
        )
        meta.update(bundle_meta)
        arrays.update(bundle_arrays)
    return meta, arrays


def unpack_ctane_checkpoint(entry: StoreEntry) -> Dict:
    """Rebuild a CTANE checkpoint state dict from a persisted entry."""
    meta = entry.meta
    state: Dict[str, object] = {
        "size": int(meta["size"]),
        "level": [_decode_element(spec) for spec in meta["level"]],
        "parent_cplus": {
            _decode_element(element): set(zip(*_decode_element(items)))
            for element, items in meta["parent_cplus"]
        },
        "results": _decode_rules(meta["rules"]),
        "counters": {key: int(value) for key, value in meta["counters"].items()},
    }
    for prefix, name in _CHECKPOINT_BUNDLES:
        state[name] = dict(unpack_partition_bundle(entry, prefix))
    return state


# ---------------------------------------------------------------------- #
# Session structures: what Profiler.dump_caches / warm_from move
# ---------------------------------------------------------------------- #
class _Codec(NamedTuple):
    """How one kind travels: its value as payload, its key as entry params;
    merged kinds name ``merge_key``, the identity of one merged item."""

    pack: Callable[[object], Optional[Tuple[Dict, Dict[str, np.ndarray]]]]
    unpack: Callable[[StoreEntry], object]
    params: Callable[[object], Optional[Dict[str, object]]]
    key: Callable[[Dict[str, object]], object] = lambda params: None
    merge_key: Optional[Callable[[Tuple], object]] = None


def _meta_only(meta: Optional[Dict]) -> Optional[Tuple[Dict, Dict]]:
    return None if meta is None else (meta, {})


def _engine_params(key: Tuple) -> Optional[Dict[str, object]]:
    algorithm, k, max_lhs, options = key
    if not all(is_json_scalar(value) for _, value in options):
        return None  # an option value would not survive a JSON round trip
    return {
        "algorithm": algorithm,
        "k": int(k),
        "max_lhs": max_lhs,
        "options": [[option, value] for option, value in options],
    }


def _engine_key(params: Dict[str, object]) -> Tuple:
    options = tuple((option, value) for option, value in params["options"])
    return (params["algorithm"], params["k"], params["max_lhs"], options)


_CODECS: Dict[str, _Codec] = {
    KIND_FREE_CLOSED: _Codec(
        pack=pack_free_closed,
        unpack=unpack_free_closed,
        params=lambda key: {"k": int(key[0]), "max_lhs": key[1]},
        key=lambda params: (params["k"], params["max_lhs"]),
    ),
    KIND_DIFFERENCE_SETS: _Codec(
        pack=lambda exported: _meta_only(pack_query_cache(exported)),
        unpack=lambda entry: unpack_query_cache(entry.meta),
        params=lambda name: {"provider": name},
        key=lambda params: params["provider"],
        merge_key=itemgetter(0, 1),
    ),
    KIND_ENGINE_RESULTS: _Codec(
        pack=lambda result: _meta_only(pack_engine_result(*result)),
        unpack=lambda entry: unpack_engine_result(entry.meta),
        params=_engine_params,
        key=_engine_key,
    ),
    # Looked up at call time, so a rebound pack_ctane_checkpoint is used.
    KIND_CTANE_CHECKPOINT: _Codec(
        pack=lambda state: pack_ctane_checkpoint(state),
        unpack=unpack_ctane_checkpoint,
        params=lambda params: params,
    ),
}


def dump_structure(
    store: CacheStore,
    fingerprint: str,
    kind: str,
    key: object,
    value: object,
    *,
    build_seconds: float = 0.0,
) -> bool:
    """Write one in-memory structure; ``False`` if it is not storable.

    ``(key, value)`` is ``((k, max_lhs), FreeClosedResult)``, ``(provider,
    export_cache())``, ``(engine key, (cfds, stats))`` or ``(params,
    checkpoint state)``.

    A provider's query cache holds one entry per relation, so its write is
    read→union→write (the session's items win; an unreadable entry merges
    as empty) under the store's cross-process lock: two workers racing it
    would drop each other's additions.  The lock is best-effort; a timeout
    degrades to the racy merge, never a failure.
    """
    codec = _CODECS[kind]
    params = codec.params(key)
    if params is None:
        return False
    merging = codec.merge_key is not None
    scope = ".".join([kind, *map(str, params.values())])
    with store.lock(fingerprint, scope) if merging else contextlib.nullcontext():
        if merging:
            stored = load_structure(store, fingerprint, kind, key) or []
            held = {codec.merge_key(item) for item in value}
            value = list(value) + [
                item for item in stored if codec.merge_key(item) not in held
            ]
        packed = codec.pack(value)
        if packed is None:
            return False
        meta, arrays = packed
        meta["build_seconds"] = build_seconds
        store.put(fingerprint, kind, params, meta=meta, arrays=arrays)
    return True


def load_structure(store: CacheStore, fingerprint: str, kind: str, key: object):
    """The in-memory value stored under one key, or ``None`` when the entry
    is missing or fails to decode."""
    codec = _CODECS[kind]
    entry = store.get(fingerprint, kind, codec.params(key))
    if entry is None:
        return None
    try:
        return codec.unpack(entry)
    except Exception:  # noqa: BLE001 - a bad entry degrades to cold
        return None


def load_structures(
    store: CacheStore, fingerprint: str
) -> Iterator[Tuple[str, object, object, float]]:
    """``(kind, key, value, build_seconds)`` of every decodable structure of
    one relation, in warm-load order, as :func:`dump_structure` took them.
    Bad entries are skipped; checkpoints and unknown kinds are left alone."""
    for entry in store.load_all(fingerprint):
        if entry.kind not in KIND_ORDER:
            continue
        codec = _CODECS[entry.kind]
        try:
            key = codec.key(entry.params)
            value = codec.unpack(entry)
            seconds = float(entry.meta.get("build_seconds") or 0.0)
        except Exception:  # noqa: BLE001 - any bad entry degrades to cold
            continue
        yield entry.kind, key, value, seconds


__all__ = [
    "ALLOWED_DTYPES",
    "CacheStore",
    "StoreEntry",
    "is_json_scalar",
    "KIND_CTANE_CHECKPOINT",
    "KIND_DIFFERENCE_SETS",
    "KIND_ENGINE_RESULTS",
    "KIND_FREE_CLOSED",
    "KIND_ORDER",
    "dump_structure",
    "load_structure",
    "load_structures",
    "pack_ctane_checkpoint",
    "pack_engine_result",
    "pack_free_closed",
    "pack_partition_bundle",
    "pack_query_cache",
    "unpack_ctane_checkpoint",
    "unpack_engine_result",
    "unpack_free_closed",
    "unpack_partition_bundle",
    "unpack_query_cache",
]
