"""Prometheus instrumentation for the HTTP layer.

The metric primitives (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
and the exposition helpers live in :mod:`repro.obs.promfmt` — the one shared
format path.  :class:`HttpMetrics` bundles the request-level instruments the
server updates on every response and renders them together with the serving
substrate's own counters (:meth:`~repro.serve.DiscoveryService.stats`), so
``GET /metrics`` is one consistent snapshot of both layers:

* ``repro_http_requests_total{method,route,status}`` — responses by route;
* ``repro_http_request_seconds`` — handler latency histogram;
* ``repro_http_in_flight`` — requests currently being handled;
* ``repro_http_admission_rejections_total{reason}`` — 503s by cause;
* ``repro_service_*`` — request/dedup/failure counters and the service's
  request-latency histogram, labelled by executed ``algorithm`` once runs
  have completed (ctane vs fastcfd vs dfd latency, told apart);
* ``repro_pool_*`` — session pool size, hit/miss/eviction/spill counters,
  byte accounting;
* ``repro_store_*`` — persistent store entries/bytes/loads/writes/GC.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional

from repro.obs.promfmt import (
    Counter,
    Gauge,
    Histogram,
    format_value,
    render_family,
    render_labels,
)


class HttpMetrics:
    """The server's instrument bundle plus the substrate-snapshot renderer."""

    def __init__(self) -> None:
        self.requests_total = Counter(
            "repro_http_requests_total",
            "HTTP responses by method, route and status code.",
            ("method", "route", "status"),
        )
        self.request_seconds = Histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds from request read to response written.",
            ("route",),
        )
        self.in_flight = Gauge(
            "repro_http_in_flight", "Requests currently being handled."
        )
        self.admission_rejections_total = Counter(
            "repro_http_admission_rejections_total",
            "Requests refused with 503 by the admission controller.",
            ("reason",),
        )

    def observe(
        self, method: str, route: str, status: int, elapsed: float
    ) -> None:
        """Record one finished response."""
        self.requests_total.inc(method=method, route=route, status=status)
        self.request_seconds.observe(elapsed, route=route)

    # ------------------------------------------------------------------ #
    def render(self, service_stats: Mapping[str, object]) -> str:
        """The full exposition document: HTTP instruments + substrate stats."""
        lines: List[str] = []
        lines += self.requests_total.render()
        lines += self.request_seconds.render()
        lines += self.in_flight.render()
        lines += self.admission_rejections_total.render()
        lines += self._render_service(service_stats)
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_service(stats: Mapping[str, object]) -> List[str]:
        lines: List[str] = []

        def grab(mapping: Mapping, key: str) -> Optional[float]:
            value = mapping.get(key)
            return float(value) if isinstance(value, (int, float)) else None

        for key, kind, help_text in (
            ("requests", "counter", "Requests submitted to the discovery service."),
            ("deduplicated", "counter",
             "Submissions coalesced onto an identical in-flight run."),
            ("completed", "counter", "Discovery runs completed successfully."),
            ("failed", "counter", "Discovery runs that raised."),
            ("cancelled", "counter", "Discovery runs cancelled before starting."),
            ("in_flight", "gauge", "Discovery runs currently in flight."),
        ):
            lines += render_family(
                f"repro_service_{key}", kind, help_text, grab(stats, key)
            )

        latency = stats.get("latency")
        if isinstance(latency, Mapping):
            lines += HttpMetrics._render_service_latency(latency)

        resumes = stats.get("resumes")
        if isinstance(resumes, Mapping):
            lines += render_family(
                "repro_resume_levels_skipped_total",
                "counter",
                "Lattice levels skipped by checkpoint-resumed discovery runs.",
                grab(resumes, "levels_skipped"),
            )
            lines += render_family(
                "repro_resumed_runs_total",
                "counter",
                "Discovery runs that warm-resumed from an engine checkpoint.",
                grab(resumes, "runs"),
            )

        faults = stats.get("faults")
        if isinstance(faults, Mapping):
            lines += HttpMetrics._render_faults(faults)

        pool = stats.get("pool")
        if isinstance(pool, Mapping):
            for key, name, kind, help_text in (
                ("sessions", "sessions", "gauge", "Pooled profiler sessions."),
                ("hits", "hits_total", "counter", "Session pool lookup hits."),
                ("misses", "misses_total", "counter", "Session pool lookup misses."),
                ("evictions", "evictions_total", "counter", "Sessions evicted."),
                ("spilled_entries", "spilled_entries_total", "counter",
                 "Cache entries spilled to the persistent store."),
                ("warm_loaded_entries", "warm_loaded_entries_total", "counter",
                 "Cache entries warm-loaded from the persistent store."),
                ("estimated_bytes", "estimated_bytes", "gauge",
                 "Estimated bytes held by pooled sessions."),
            ):
                lines += render_family(
                    f"repro_pool_{name}", kind, help_text, grab(pool, key)
                )

        store = stats.get("store")
        if isinstance(store, Mapping):
            for key, name, kind, help_text in (
                ("entries", "entries", "gauge", "Entries in the persistent store."),
                ("bytes", "bytes", "gauge", "On-disk bytes of the store."),
                ("writes", "writes_total", "counter", "Store entries written."),
                ("loads", "loads_total", "counter", "Store entries loaded."),
                ("load_failures", "load_failures_total", "counter",
                 "Store loads that failed verification."),
                ("gc_removed", "gc_removed_total", "counter",
                 "Store entries removed by garbage collection."),
                ("quarantined", "quarantined_total", "counter",
                 "Corrupt store entries moved to quarantine."),
            ):
                lines += render_family(
                    f"repro_store_{name}", kind, help_text, grab(store, key)
                )
        return lines

    @staticmethod
    def _render_faults(faults: Mapping[str, object]) -> List[str]:
        """The active fault plan's injected-fault counters, per point/kind."""
        injected = faults.get("injected")
        if not isinstance(injected, Mapping):
            return []
        name = "repro_faults_injected_total"
        lines = [
            f"# HELP {name} Faults injected by the active fault plan.",
            f"# TYPE {name} counter",
        ]
        for key in sorted(injected):
            point, _, kind = str(key).rpartition(":")
            labels = render_labels(("point", "kind"), (point, kind))
            lines.append(f"{name}{labels} {int(injected[key])}")
        return lines

    @staticmethod
    def _render_histogram_series(
        name: str,
        buckets: Iterable,
        total: float,
        count: int,
        label_names: tuple,
        label_values: tuple,
    ) -> List[str]:
        lines: List[str] = []
        cumulative = 0
        for bound, bucket_count in buckets:
            cumulative += int(bucket_count)
            rendered = "+Inf" if bound is None else format_value(float(bound))
            labels = render_labels(
                label_names + ("le",), label_values + (rendered,)
            )
            lines.append(f"{name}_bucket{labels} {cumulative}")
        labels = render_labels(label_names, label_values)
        lines.append(f"{name}_sum{labels} {format_value(float(total))}")
        lines.append(f"{name}_count{labels} {int(count)}")
        return lines

    @staticmethod
    def _render_service_latency(latency: Mapping[str, object]) -> List[str]:
        """The service's submit→done aggregates as a Prometheus histogram.

        Once runs have executed, the histogram is labelled by the algorithm
        that actually ran (the label sets sum to the service aggregate);
        before any run, an unlabelled zero-series keeps the family present.
        """
        buckets = latency.get("buckets")
        count = latency.get("count")
        total = latency.get("total_seconds")
        if not isinstance(buckets, Iterable) or count is None:
            return []
        name = "repro_service_request_seconds"
        lines = [
            f"# HELP {name} Submit-to-done seconds of executed discovery runs.",
            f"# TYPE {name} histogram",
        ]
        by_algorithm = latency.get("by_algorithm")
        if isinstance(by_algorithm, Mapping) and by_algorithm:
            for algorithm in sorted(by_algorithm):
                series = by_algorithm[algorithm]
                if not isinstance(series, Mapping):
                    continue
                lines += HttpMetrics._render_histogram_series(
                    name,
                    series.get("buckets") or [],
                    float(series.get("total_seconds") or 0.0),
                    int(series.get("count") or 0),
                    ("algorithm",),
                    (str(algorithm),),
                )
            return lines
        lines += HttpMetrics._render_histogram_series(
            name, buckets, float(total or 0.0), int(count), (), ()
        )
        return lines


__all__ = ["HttpMetrics"]
