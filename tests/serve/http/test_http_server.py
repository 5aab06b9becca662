"""Socket-level integration tests for the HTTP serving subsystem.

Every test talks to a real ``asyncio.start_server`` socket through
``http.client`` — the exact bytes a load balancer would see — covering the
ISSUE's acceptance list: concurrent identical requests dedup to one engine
run (observable via ``/metrics``), a saturated server answers 503 (never a
hang), malformed bodies come back as structured 400s, and ``/healthz``
reports the drain.
"""

import http.client
import json
import threading
import time

import pytest

from repro.api.registry import (
    AlgorithmCapabilities,
    AlgorithmRegistry,
    DiscoveryAlgorithm,
)
from repro.api.result import AlgorithmStats
from repro.serve import CacheStore, DiscoveryService, SessionPool
from repro.serve.http import ServerConfig, ServerThread

CSV_BODY = "AC,CT\n908,MH\n908,MH\n212,NYC\n212,NYC\n131,EDI\n"

#: Number tokens ``json.loads`` accepts that are not JSON (RFC 8259).
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]


def non_finite_bodies(token):
    """An upload and two inline discovers whose rows hold ``token``."""
    rows = ", ".join([f"[{token}, 1, 2]"] * 4 + ["[2.5, 1, 3]"] * 4)
    relation = '"attributes": ["A", "B", "C"], "rows": [' + rows + "]"
    discover = "{" + relation + ', "support": 2, "algorithm": "fastcfd"}'
    return [
        ("/v1/relations", "{" + relation + "}"),
        ("/v1/discover", discover),
        ("/v1/discover?stream=jsonl", discover),
    ]


def request(server, method, path, body=None, headers=None, timeout=30):
    """One blocking HTTP exchange; returns (status, headers, bytes)."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def json_request(server, method, path, document=None, timeout=30):
    body = None if document is None else json.dumps(document).encode()
    status, headers, data = request(
        server, method, path, body=body,
        headers={"Content-Type": "application/json"}, timeout=timeout,
    )
    return status, headers, json.loads(data) if data else None


def make_blocking_registry():
    """A registry with one gate-blocked, run-counting engine (dedup probes)."""
    registry = AlgorithmRegistry()

    class Blocker(DiscoveryAlgorithm):
        name = "blocker"
        capabilities = AlgorithmCapabilities(auto_candidate=False)
        gate = threading.Event()
        started = threading.Event()
        runs = 0
        lock = threading.Lock()

        def run(self, relation, request, session=None):
            cls = type(self)
            with cls.lock:
                cls.runs += 1
            cls.started.set()
            assert cls.gate.wait(timeout=30), "test gate never opened"
            return [], AlgorithmStats(algorithm=self.name)

    registry.register(Blocker)
    return registry, Blocker


@pytest.fixture
def server():
    """A default-config server over a plain 2-worker service."""
    with ServerThread(
        DiscoveryService(max_workers=2), ServerConfig(port=0)
    ) as handle:
        yield handle


class TestRelationLifecycle:
    def test_upload_list_discover(self, server):
        status, _, document = request(
            server, "POST", "/v1/relations?name=mini",
            body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
        )
        assert status == 201
        uploaded = json.loads(document)
        assert uploaded["rows"] == 5 and uploaded["arity"] == 2
        fingerprint = uploaded["fingerprint"]

        status, _, listing = json_request(server, "GET", "/v1/relations")
        assert status == 200
        assert listing["relations"]["mini"]["fingerprint"] == fingerprint

        for ref in ("mini", fingerprint):
            status, _, result = json_request(
                server, "POST", "/v1/discover",
                {"relation": ref, "support": 2, "algorithm": "fastcfd"},
            )
            assert status == 200
            assert result["algorithm"] == "fastcfd"
            assert result["counts"]["total"] > 0

    def test_wide_relation_served_by_dfd(self, server):
        """A 70-column upload is served by the walk engine — explicitly and
        via ``auto`` dispatch — with the walk statistics in the response."""
        from repro.datagen.wide import wide_relation

        relation = wide_relation(n_cols=70, n_rows=24, seed=0, n_fds=2)
        lines = [",".join(relation.attributes)]
        lines += [",".join(str(v) for v in row) for row in relation.rows()]
        status, _, _body = request(
            server, "POST", "/v1/relations?name=wide",
            body="\n".join(lines).encode(),
            headers={"Content-Type": "text/csv"},
        )
        assert status == 201
        covers = {}
        for algorithm in ("dfd", "auto"):
            status, _, result = json_request(
                server, "POST", "/v1/discover",
                {"relation": "wide", "support": 7, "algorithm": algorithm},
                timeout=120,
            )
            assert status == 200
            assert result["algorithm"] == "dfd"
            for counter in ("nodes_visited", "partitions_computed", "restarts"):
                assert result["stats"][counter] > 0
            covers[algorithm] = result["counts"]["total"]
        assert covers["dfd"] == covers["auto"] > 0

    def test_inline_rows_discover(self, server):
        status, _, result = json_request(
            server, "POST", "/v1/discover",
            {
                "attributes": ["A", "B"],
                "rows": [["1", "x"], ["1", "x"], ["2", "y"]],
                "support": 1,
                "algorithm": "fastcfd",
            },
        )
        assert status == 200
        assert result["relation"]["rows"] == 3

    def test_json_rows_upload(self, server):
        status, _, _headers = json_request(
            server, "POST", "/v1/relations",
            {"name": "inline", "attributes": ["A", "B"], "rows": [["1", "x"]]},
        )
        assert status == 201
        status, _, listing = json_request(server, "GET", "/v1/relations")
        assert "inline" in listing["relations"]

    def test_streaming_jsonl(self, server):
        request(
            server, "POST", "/v1/relations?name=s",
            body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
        )
        status, headers, data = request(
            server, "POST", "/v1/discover?stream=jsonl",
            body=json.dumps(
                {"relation": "s", "support": 1, "algorithm": "fastcfd"}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        lines = [json.loads(line) for line in data.decode().strip().splitlines()]
        header, rules = lines[0], lines[1:]
        assert header["kind"] == "result"
        assert header["n_rules"] == len(rules)
        assert all(rule["kind"] == "rule" for rule in rules)

    def test_batch_isolates_failures(self, server):
        request(
            server, "POST", "/v1/relations?name=b",
            body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
        )
        status, _, document = json_request(
            server, "POST", "/v1/batch",
            {
                "requests": [
                    {"relation": "b", "support": 1, "algorithm": "fastcfd"},
                    {"relation": "nope", "support": 1},
                    {"relation": "b", "support": 0},
                ]
            },
        )
        assert status == 200
        assert document["requests"] == 3
        assert document["failed"] == 2
        assert document["results"][0]["counts"]["total"] > 0
        assert document["results"][1]["error"]["code"] == "relation_not_found"
        assert document["results"][2]["error"]["code"] == "discovery_error"


class TestErrorTaxonomy:
    def test_malformed_json_body_is_structured_400(self, server):
        status, _, data = request(
            server, "POST", "/v1/discover", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        error = json.loads(data)["error"]
        assert error["code"] == "bad_request"
        assert error["status"] == 400

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_numbers_are_400(self, server, token):
        for path, body in non_finite_bodies(token):
            status, _, data = request(
                server, "POST", path, body=body.encode(),
                headers={"Content-Type": "application/json"},
            )
            assert status == 400, (path, data)
            error = json.loads(data)["error"]
            assert error["code"] == "bad_request"
            assert token in error["message"]

    def test_unknown_relation_is_404(self, server):
        status, _, document = json_request(
            server, "POST", "/v1/discover", {"relation": "ghost", "support": 1}
        )
        assert status == 404
        assert document["error"]["code"] == "relation_not_found"

    def test_unknown_route_is_404(self, server):
        status, _, document = json_request(server, "GET", "/v2/nothing")
        assert status == 404
        assert document["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server):
        status, _, document = json_request(server, "GET", "/v1/discover")
        assert status == 405
        assert document["error"]["code"] == "method_not_allowed"

    def test_unknown_request_field_is_400(self, server):
        status, _, document = json_request(
            server, "POST", "/v1/discover",
            {"relation": "x", "supprt": 2},  # typo must fail loudly
        )
        assert status == 400
        assert "supprt" in document["error"]["message"]

    def test_invalid_request_parameter_is_400(self, server):
        status, _, document = json_request(
            server, "POST", "/v1/discover",
            {"attributes": ["A"], "rows": [["1"]], "support": 0},
        )
        assert status == 400
        assert document["error"]["code"] == "discovery_error"

    @pytest.mark.parametrize("options", [{"bogus": 1}, {"checkpoint": 1}])
    def test_unknown_engine_option_is_400(self, server, options):
        status, _, document = json_request(
            server, "POST", "/v1/discover",
            {"attributes": ["A", "B"], "rows": [["1", "x"], ["1", "x"]],
             "support": 1, "algorithm": "ctane", "options": options},
        )
        assert status == 400
        assert document["error"]["code"] == "discovery_error"
        assert next(iter(options)) in document["error"]["message"]
        assert "cplus_pruning" in document["error"]["message"]

    def test_protocol_error_is_answered_on_the_socket(self, server):
        status, _, data = request(
            server, "POST", "/v1/discover", body=b"x",
            headers={"Content-Type": "application/json",
                     "Transfer-Encoding": "chunked"},
        )
        assert status == 411
        assert json.loads(data)["error"]["code"] == "protocol_error"


class TestDedupOverTheWire:
    def test_concurrent_identical_requests_share_one_engine_run(self):
        registry, blocker = make_blocking_registry()
        service = DiscoveryService(
            pool=SessionPool(registry=registry), max_workers=4
        )
        document = {"relation": "d", "support": 2, "algorithm": "blocker"}
        statuses = []
        with ServerThread(
            service, ServerConfig(port=0, max_in_flight=8, request_timeout=30)
        ) as server:
            request(
                server, "POST", "/v1/relations?name=d",
                body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
            )

            def post():
                status, _, _ = json_request(
                    server, "POST", "/v1/discover", document
                )
                statuses.append(status)

            threads = [threading.Thread(target=post) for _ in range(3)]
            for thread in threads:
                thread.start()
            assert blocker.started.wait(timeout=30)
            # Open the gate only after all three submissions are in flight —
            # otherwise a late arrival runs the engine a second time.
            deadline = time.time() + 30
            while service.info()["requests"] < 3:
                assert time.time() < deadline, service.info()
                time.sleep(0.005)
            blocker.gate.set()
            for thread in threads:
                thread.join(timeout=30)

            assert statuses == [200, 200, 200]
            # Dedup observed via /metrics, as the acceptance criterion asks.
            _, _, text = request(server, "GET", "/metrics")
            metrics = text.decode()
            dedup = [
                line for line in metrics.splitlines()
                if line.startswith("repro_service_deduplicated")
            ][0]
            assert int(dedup.split()[-1]) == 2
        assert blocker.runs == 1


class TestAdmissionControl:
    def test_saturated_server_returns_503_with_retry_after(self):
        registry, blocker = make_blocking_registry()
        service = DiscoveryService(
            pool=SessionPool(registry=registry), max_workers=2
        )
        config = ServerConfig(
            port=0, max_in_flight=1, max_queue=0, request_timeout=30
        )
        with ServerThread(service, config) as server:
            request(
                server, "POST", "/v1/relations?name=a",
                body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
            )
            occupier = threading.Thread(
                target=json_request,
                args=(server, "POST", "/v1/discover",
                      {"relation": "a", "support": 1, "algorithm": "blocker"}),
            )
            occupier.start()
            assert blocker.started.wait(timeout=30)
            try:
                status, headers, document = json_request(
                    server, "POST", "/v1/discover",
                    {"relation": "a", "support": 2, "algorithm": "blocker"},
                )
                assert status == 503
                assert document["error"]["code"] == "overloaded"
                assert int(headers["Retry-After"]) >= 1
                # The operational endpoints bypass admission entirely.
                status, _, _ = request(server, "GET", "/healthz")
                assert status == 200
                status, _, _ = request(server, "GET", "/metrics")
                assert status == 200
            finally:
                blocker.gate.set()
                occupier.join(timeout=30)

    def test_retry_after_counts_each_request_ahead_once(self):
        """One request executing and two queued ahead of a refused caller,
        at 0.9 s each through one slot: ``ceil(0.9 × (3 + 1) / 1) = 4``."""
        registry, blocker = make_blocking_registry()
        service = DiscoveryService(
            pool=SessionPool(registry=registry), max_workers=2
        )
        service.mean_latency_seconds = lambda: 0.9
        config = ServerConfig(
            port=0, max_in_flight=1, max_queue=2, request_timeout=30
        )
        body = {"relation": "q", "support": 1, "algorithm": "blocker"}
        with ServerThread(service, config) as server:
            request(
                server, "POST", "/v1/relations?name=q",
                body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
            )
            ahead = [
                threading.Thread(
                    target=json_request,
                    args=(server, "POST", "/v1/discover", body),
                )
                for _ in range(3)
            ]
            try:
                ahead[0].start()
                assert blocker.started.wait(timeout=30)
                for thread in ahead[1:]:
                    thread.start()
                deadline = time.time() + 30
                while server.server._waiting < 2:
                    assert time.time() < deadline, "requests never queued"
                    time.sleep(0.005)
                status, headers, document = json_request(
                    server, "POST", "/v1/discover", body
                )
                assert status == 503
                assert document["error"]["code"] == "overloaded"
                assert headers["Retry-After"] == "4"
            finally:
                blocker.gate.set()
                for thread in ahead:
                    thread.join(timeout=30)
                    assert not thread.is_alive()

    def test_deadline_answers_504_without_killing_the_run(self):
        registry, blocker = make_blocking_registry()
        service = DiscoveryService(
            pool=SessionPool(registry=registry), max_workers=2
        )
        config = ServerConfig(port=0, request_timeout=0.3)
        with ServerThread(service, config) as server:
            request(
                server, "POST", "/v1/relations?name=t",
                body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
            )
            try:
                status, _, document = json_request(
                    server, "POST", "/v1/discover",
                    {"relation": "t", "support": 1, "algorithm": "blocker"},
                )
                assert status == 504
                assert document["error"]["code"] == "deadline_exceeded"
            finally:
                blocker.gate.set()


class TestGracefulDrain:
    def test_healthz_reports_draining_and_drain_completes(self):
        registry, blocker = make_blocking_registry()
        service = DiscoveryService(
            pool=SessionPool(registry=registry), max_workers=2
        )
        config = ServerConfig(port=0, request_timeout=30, drain_timeout=30)
        server = ServerThread(service, config).start()
        try:
            request(
                server, "POST", "/v1/relations?name=g",
                body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
            )
            holder = threading.Thread(
                target=json_request,
                args=(server, "POST", "/v1/discover",
                      {"relation": "g", "support": 1, "algorithm": "blocker"}),
            )
            holder.start()
            assert blocker.started.wait(timeout=30)
            server.begin_drain()
            # The listener keeps answering /healthz while in-flight work
            # finishes; guarded routes are refused as draining.
            deadline_status = None
            for _ in range(100):
                status, _, document = json_request(server, "GET", "/healthz")
                if status == 503 and document["status"] == "draining":
                    deadline_status = status
                    break
            assert deadline_status == 503
            status, _, document = json_request(
                server, "POST", "/v1/discover",
                {"relation": "g", "support": 2, "algorithm": "blocker"},
            )
            assert status == 503
            assert document["error"]["code"] == "draining"
            blocker.gate.set()
            holder.join(timeout=30)
        finally:
            blocker.gate.set()
            server.stop()
        assert service.info()["shutdown"] is True
        assert blocker.runs == 1

    def test_drain_spills_pool_to_store(self, tmp_path):
        store = CacheStore(tmp_path)
        service = DiscoveryService(
            pool=SessionPool(store=store), max_workers=2
        )
        with ServerThread(service, ServerConfig(port=0)) as server:
            request(
                server, "POST", "/v1/relations?name=p",
                body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
            )
            status, _, _ = json_request(
                server, "POST", "/v1/discover",
                {"relation": "p", "support": 2, "algorithm": "fastcfd"},
            )
            assert status == 200
        # Graceful drain completed the pool spill into the store.
        assert store.writes > 0
        assert len(store) > 0


class TestObservability:
    def test_metrics_exposition_shape(self, server):
        request(
            server, "POST", "/v1/relations?name=m",
            body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
        )
        json_request(
            server, "POST", "/v1/discover",
            {"relation": "m", "support": 2, "algorithm": "fastcfd"},
        )
        status, headers, data = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = data.decode()
        for family in (
            "repro_http_requests_total",
            "repro_http_request_seconds_bucket",
            "repro_http_in_flight",
            "repro_service_requests",
            "repro_service_request_seconds_bucket",
            "repro_pool_sessions",
        ):
            assert family in text, family
        # The discover response was counted under its route label.
        assert 'route="discover"' in text

    def test_healthz_shape(self, server):
        status, _, document = json_request(server, "GET", "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert "pool_sessions" in document
