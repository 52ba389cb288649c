"""Remote client/server: the multiprocessing.connection wire, error
mapping, and the watch stream."""

import threading
import time

import pytest

from repro.svc.client import ServiceClient, ServiceServer, parse_address
from repro.svc.jobs import AdmissionBusy, JobCancelled, JobSpec
from repro.svc.service import Service


@pytest.fixture()
def remote():
    """A served 1-worker service on an ephemeral loopback port."""
    service = Service(workers=1, health=False).start()
    server = ServiceServer(service, port=0).start()
    client = ServiceClient(server.address)
    try:
        yield client, service
    finally:
        server.stop()
        service.close()


def test_parse_address_defaults_to_loopback():
    assert parse_address("7791") == ("127.0.0.1", 7791)
    assert parse_address("10.0.0.5:7791") == ("10.0.0.5", 7791)


def test_remote_submit_status_result_round_trip(remote):
    client, _service = remote
    status = client.submit(JobSpec(experiment="sleep:0.2"))
    assert status["state"] in ("pending", "running")
    payload = client.result(status["job"], timeout=30)
    assert payload["rendered"] == "== sleep: 0.2s =="
    final = client.status(status["job"])
    assert final["state"] == "done"
    assert final["result_digest"]


def test_remote_dedup_shares_the_job(remote):
    client, service = remote
    spec = JobSpec(experiment="sleep:0.4")
    first = client.submit(spec)
    second = client.submit(spec)
    assert second["job"] == first["job"]  # coalesced onto one job
    client.result(first["job"], timeout=30)
    assert service.store.stats.misses == 1


def test_remote_errors_map_to_local_exceptions(remote):
    client, _service = remote
    with pytest.raises(ValueError, match="unknown experiment"):
        client.submit(JobSpec(experiment="fig99"))
    with pytest.raises(RuntimeError, match="unknown-job"):
        client.status(12345678)

    status = client.submit(JobSpec(experiment="sleep:5"))
    with pytest.raises(TimeoutError):
        client.result(status["job"], timeout=0.05)
    assert client.cancel(status["job"])
    with pytest.raises(JobCancelled):
        client.result(status["job"], timeout=10)


def test_remote_backpressure_carries_retry_after():
    service = Service(workers=1, max_pending=1, health=False).start()
    server = ServiceServer(service, port=0).start()
    client = ServiceClient(server.address)
    try:
        import time

        from repro.svc.jobs import JobState

        running = service.submit(JobSpec(experiment="sleep:2"))
        deadline = time.monotonic() + 30
        while running.state is not JobState.RUNNING:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        client.submit(JobSpec(experiment="sleep:2.1"))
        with pytest.raises(AdmissionBusy) as excinfo:
            client.submit(JobSpec(experiment="sleep:2.2"))
        assert excinfo.value.retry_after > 0
    finally:
        server.stop()
        service.close()


def test_remote_watch_streams_until_done(remote):
    client, _service = remote
    blocker = client.submit(JobSpec(experiment="sleep:0.3"))
    status = client.submit(JobSpec(experiment="fig04", profile="ci",
                                   stream_interval=100))
    payloads = list(client.watch(status["job"]))
    assert payloads, "watch yielded nothing"
    assert "done" in payloads[-1]
    assert payloads[-1]["done"]["state"] == "done"
    kinds = {p.get("kind") for p in payloads[:-1]}
    assert "phase" in kinds or "event" in kinds
    client.result(blocker["job"], timeout=30)


def test_remote_metrics_snapshot(remote):
    client, _service = remote
    status = client.submit(JobSpec(experiment="sleep:0.1"))
    client.result(status["job"], timeout=30)
    metrics = client.metrics()
    assert metrics["completed"] == 1
    assert metrics["store"]["misses"] == 1
    assert len(metrics["workers"]) == 1


def test_stop_wakes_the_accept_loop_promptly():
    service = Service(workers=1, health=False)  # never started: no pool
    server = ServiceServer(service, port=0).start()
    # one round trip parks the accept thread back inside accept()
    assert ServiceClient(server.address).metrics()["submitted"] == 0
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.5
    assert not any(t.name == "repro-svc-accept" and t.is_alive()
                   for t in threading.enumerate())
