"""Socket-level fleet tests: router + two real workers over one shared store.

The acceptance scenarios of the fleet subsystem, each against real
``asyncio.start_server`` sockets:

* requests route by relation fingerprint and survive the owner's death —
  the ring successor serves a byte-identical rules payload, warm-started
  from the shared :class:`~repro.serve.CacheStore` (observable in the
  successor's ``/metrics``);
* a greedy client is throttled (``429`` + honest ``Retry-After``) while a
  light client keeps being admitted, observable in the router's
  ``/metrics``;
* streaming and batch requests pass through the router unchanged;
* the router answers protocol and routing errors the way a worker does,
  and drains the way a worker does: in-flight forwards finish, new ones
  are refused ``503 draining``.
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
from repro.serve.fleet import RouterConfig, RouterThread
from repro.serve.http import ServerConfig, ServerThread

CSV_BODY = (
    "CC,AC,PN,NM,STR,CT,ZIP\n"
    "01,908,1111111,Mike,Tree Ave.,MH,07974\n"
    "01,908,1111111,Rick,Tree Ave.,MH,07974\n"
    "01,212,2222222,Joe,5th Ave,NYC,01202\n"
    "01,908,2222222,Jim,Elm Str.,MH,07974\n"
    "44,131,3333333,Ben,High St.,EDI,EH4 1DT\n"
    "44,131,4444444,Ian,High St.,EDI,EH4 1DT\n"
    "44,908,4444444,Ian,Port PI,MH,W1B 1JH\n"
    "01,131,2222222,Sean,3rd Str.,UN,01202\n"
)
DISCOVER = {"support": 2, "algorithm": "fastcfd"}


def request(handle, method, path, body=None, headers=None, timeout=30):
    """One blocking HTTP exchange; returns (status, headers, bytes)."""
    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def json_request(handle, method, path, document=None, headers=None, timeout=30):
    body = None if document is None else json.dumps(document).encode()
    sent = {"Content-Type": "application/json"}
    sent.update(headers or {})
    status, received, data = request(
        handle, method, path, body=body, headers=sent, timeout=timeout
    )
    return status, received, json.loads(data) if data else None


def metric_value(text, name, **labels):
    """The value of one sample in a Prometheus exposition, or None."""
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest[:1] not in ("{", " "):
            continue
        if labels:
            if not rest.startswith("{"):
                continue
            rendered = rest[1 : rest.index("}")]
            if not all(f'{k}="{v}"' in rendered for k, v in labels.items()):
                continue
        return float(line.rsplit(" ", 1)[1])
    return None


class Fleet:
    """Two workers over one shared cache store, fronted by one router."""

    def __init__(self, tmp_path, **router_overrides):
        self.store_dir = tmp_path / "shared-store"
        self.workers = []
        for index in range(2):
            service = DiscoveryService(
                pool=SessionPool(max_sessions=4, store=CacheStore(self.store_dir)),
                max_workers=2,
            )
            worker = ServerThread(service, ServerConfig(port=0)).start()
            self.workers.append(worker)
        options = dict(
            port=0,
            workers=[worker.address for worker in self.workers],
            health_interval=0.2,
            fail_after=2,
            request_timeout=30.0,
        )
        options.update(router_overrides)
        self.router = RouterThread(RouterConfig(**options)).start()

    def worker_for(self, url):
        for worker in self.workers:
            if worker.address == url:
                return worker
        raise AssertionError(f"unknown worker url {url}")

    def owner_and_successor(self, fingerprint):
        preference = self.router.router.ring.preference(fingerprint, limit=2)
        assert len(preference) == 2
        return self.worker_for(preference[0]), self.worker_for(preference[1])

    def stop(self):
        self.router.stop()
        for worker in self.workers:
            worker.stop()


@pytest.fixture
def fleet(tmp_path):
    handle = Fleet(tmp_path)
    yield handle
    handle.stop()


def upload(handle, name="tax"):
    status, _, data = request(
        handle, "POST", f"/v1/relations?name={name}",
        body=CSV_BODY.encode(), headers={"Content-Type": "text/csv"},
    )
    assert status == 201, data
    return json.loads(data)["fingerprint"]


class TestRoutingThroughRouter:
    def test_healthz_sees_both_workers(self, fleet):
        status, _, document = json_request(fleet.router, "GET", "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert sorted(fleet.router.router.ring.workers()) == sorted(
            worker.address for worker in fleet.workers
        )

    def test_upload_then_discover_by_name_and_fingerprint(self, fleet):
        fingerprint = upload(fleet.router)
        for ref in ("tax", fingerprint):
            status, _, result = json_request(
                fleet.router, "POST", "/v1/discover",
                {"relation": ref, **DISCOVER},
            )
            assert status == 200, result
            assert result["counts"]["total"] > 0

        # The forward went to the ring owner, and only to it.
        owner, successor = fleet.owner_and_successor(fingerprint)
        _, _, text = request(fleet.router, "GET", "/metrics")
        exposition = text.decode()
        assert metric_value(
            exposition, "repro_fleet_forwards_total", worker=owner.address
        ) >= 2

    def test_inline_rows_route_by_computed_fingerprint(self, fleet):
        body = {
            "attributes": ["A", "B"],
            "rows": [["1", "x"], ["1", "x"], ["2", "y"]],
            "support": 1,
            "algorithm": "fastcfd",
        }
        first = json_request(fleet.router, "POST", "/v1/discover", body)
        second = json_request(fleet.router, "POST", "/v1/discover", body)
        assert first[0] == 200 and second[0] == 200
        assert first[2]["rules"] == second[2]["rules"]

    def test_stream_passes_through_chunked(self, fleet):
        fingerprint = upload(fleet.router)
        status, headers, data = request(
            fleet.router, "POST", "/v1/discover",
            body=json.dumps(
                {"relation": fingerprint, "stream": True, **DISCOVER}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert headers.get("Content-Type", "").startswith("application/x-ndjson")
        lines = [json.loads(line) for line in data.decode().strip().split("\n")]
        header, rules = lines[0], lines[1:]
        assert header["kind"] == "result"
        assert header["n_rules"] == len(rules)
        assert all(line["kind"] == "rule" for line in rules)

    def test_batch_splits_and_reassembles(self, fleet):
        fingerprint = upload(fleet.router)
        status, _, document = json_request(
            fleet.router, "POST", "/v1/batch",
            {
                "requests": [
                    {"relation": fingerprint, **DISCOVER},
                    {"relation": "no-such-relation", **DISCOVER},
                ]
            },
        )
        assert status == 200
        assert document["requests"] == 2
        assert document["failed"] == 1
        results = document["results"]
        assert results[0]["counts"]["total"] > 0
        assert results[1]["error"]["code"] == "relation_not_found"

    def test_list_relations_merges_the_fleet(self, fleet):
        fingerprint = upload(fleet.router, name="merged")
        status, _, listing = json_request(fleet.router, "GET", "/v1/relations")
        assert status == 200
        assert listing["relations"]["merged"]["fingerprint"] == fingerprint


class TestFailover:
    def test_owner_death_fails_over_with_identical_rules(self, fleet):
        fingerprint = upload(fleet.router)
        discover = {"relation": fingerprint, **DISCOVER}

        status, _, before = json_request(fleet.router, "POST", "/v1/discover", discover)
        assert status == 200
        baseline = json.dumps(before["rules"], sort_keys=True)
        assert before["counts"]["total"] > 0

        owner, successor = fleet.owner_and_successor(fingerprint)
        owner.stop()  # graceful: the worker spills its warm session

        status, _, after = json_request(
            fleet.router, "POST", "/v1/discover", discover, timeout=60
        )
        assert status == 200, after
        assert json.dumps(after["rules"], sort_keys=True) == baseline

        _, _, text = request(fleet.router, "GET", "/metrics")
        exposition = text.decode()
        assert metric_value(
            exposition, "repro_fleet_failovers_total", worker=owner.address
        ) >= 1

        # The successor warm-started the relation from the shared store
        # rather than rebuilding: its pool counted warm-loaded entries.
        _, _, text = request(successor, "GET", "/metrics")
        warm = metric_value(text.decode(), "repro_pool_warm_loaded_entries_total")
        assert warm is not None and warm > 0

    def test_dead_owner_leaves_the_ring(self, fleet):
        fingerprint = upload(fleet.router)
        owner, successor = fleet.owner_and_successor(fingerprint)
        owner.stop()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if fleet.router.router.ring.workers() == [successor.address]:
                break
            time.sleep(0.1)
        assert fleet.router.router.ring.workers() == [successor.address]
        # And the remaining member owns everything now.
        assert fleet.router.router.ring.assign(fingerprint) == successor.address


class TestFairnessThroughRouter:
    def test_greedy_client_throttled_light_client_admitted(self, tmp_path):
        fleet = Fleet(tmp_path, client_rate=1.0, client_burst=3.0)
        try:
            fingerprint = upload(fleet.router)  # per-connection id: own bucket
            greedy_statuses = []
            retry_after = None
            for _ in range(8):
                status, headers, _ = json_request(
                    fleet.router, "GET", "/v1/relations",
                    headers={"X-Client-Id": "greedy"},
                )
                greedy_statuses.append(status)
                if status == 429 and retry_after is None:
                    retry_after = headers.get("Retry-After")
            assert 429 in greedy_statuses, greedy_statuses
            assert greedy_statuses.count(200) >= 1
            assert retry_after is not None and int(retry_after) >= 1

            # The light client is untouched by greedy's exhaustion.
            status, _, _ = json_request(
                fleet.router, "GET", "/v1/relations",
                headers={"X-Client-Id": "light"},
            )
            assert status == 200

            _, _, text = request(fleet.router, "GET", "/metrics")
            exposition = text.decode()
            assert metric_value(
                exposition, "repro_fleet_client_throttled_total", client="greedy"
            ) >= 1
            assert metric_value(
                exposition, "repro_fleet_client_admitted_total", client="light"
            ) >= 1
            assert (
                metric_value(
                    exposition, "repro_fleet_client_throttled_total", client="light"
                )
                or 0.0
            ) == 0.0
            assert metric_value(exposition, "repro_fleet_throttled_total") >= 1
        finally:
            fleet.stop()


class TestRouterProtocol:
    """The router shares the worker's connection loop and error taxonomy."""

    def test_chunked_request_body_is_411(self, fleet):
        status, _, data = request(
            fleet.router, "POST", "/v1/discover", body=b"x",
            headers={"Content-Type": "application/json",
                     "Transfer-Encoding": "chunked"},
        )
        assert status == 411
        assert json.loads(data)["error"]["code"] == "protocol_error"

    def test_unknown_route_is_404(self, fleet):
        status, _, document = json_request(fleet.router, "GET", "/v2/nothing")
        assert status == 404
        assert document["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, fleet):
        status, _, document = json_request(fleet.router, "GET", "/v1/discover")
        assert status == 405
        assert document["error"]["code"] == "method_not_allowed"

    def test_malformed_json_body_is_400(self, fleet):
        status, _, data = request(
            fleet.router, "POST", "/v1/discover", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(data)["error"]["code"] == "bad_request"

    def test_head_healthz_answers_without_a_body(self, fleet):
        status, headers, data = request(fleet.router, "HEAD", "/healthz")
        assert status == 200
        assert data == b""
        assert int(headers["Content-Length"]) > 0

    def test_keep_alive_connection_serves_a_second_request(self, fleet):
        connection = http.client.HTTPConnection(
            fleet.router.host, fleet.router.port, timeout=30
        )
        try:
            connection.request("GET", "/healthz")
            first = connection.getresponse()
            assert first.status == 200 and first.read()
            sock = connection.sock
            assert sock is not None  # the router kept the connection open
            connection.request("GET", "/v1/relations")
            second = connection.getresponse()
            assert second.status == 200
            assert "relations" in json.loads(second.read())
            assert connection.sock is sock
        finally:
            connection.close()


def make_gated_registry():
    """A registry with one engine that blocks until its gate opens."""
    registry = AlgorithmRegistry()

    class Gated(DiscoveryAlgorithm):
        name = "gated"
        capabilities = AlgorithmCapabilities(auto_candidate=False)
        gate = threading.Event()
        started = threading.Event()

        def run(self, relation, request, session=None):
            type(self).started.set()
            assert type(self).gate.wait(timeout=30), "test gate never opened"
            return [], AlgorithmStats(algorithm=self.name)

    registry.register(Gated)
    return registry, Gated


class TestRouterDrain:
    def test_drain_finishes_in_flight_forwards_and_refuses_new_ones(self):
        registry, gated = make_gated_registry()
        worker = ServerThread(
            DiscoveryService(pool=SessionPool(registry=registry), max_workers=2),
            ServerConfig(port=0),
        ).start()
        router = RouterThread(
            RouterConfig(
                port=0,
                workers=[worker.address],
                health_interval=0.2,
                request_timeout=30.0,
            )
        ).start()
        try:
            fingerprint = upload(router)
            held = []
            holder = threading.Thread(
                target=lambda: held.append(
                    json_request(
                        router, "POST", "/v1/discover",
                        {"relation": fingerprint, "support": 1,
                         "algorithm": "gated"},
                    )
                )
            )
            holder.start()
            assert gated.started.wait(timeout=30)
            router.begin_drain()
            deadline = time.monotonic() + 10
            while True:
                status, _, health = json_request(router, "GET", "/healthz")
                if status == 503:
                    break
                assert time.monotonic() < deadline, health
                time.sleep(0.01)
            assert health["status"] == "draining"
            status, _, document = json_request(
                router, "POST", "/v1/discover",
                {"relation": fingerprint, "support": 2, "algorithm": "gated"},
            )
            assert status == 503
            assert document["error"]["code"] == "draining"
            gated.gate.set()
            holder.join(timeout=30)
            assert not holder.is_alive()
            status, _, result = held[0]
            assert status == 200, result
            assert result["algorithm"] == "gated"
        finally:
            gated.gate.set()
            router.stop()
            worker.stop()
