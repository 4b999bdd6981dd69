"""The asyncio HTTP front end + blocking client, over a real socket.

One module-scoped server (ephemeral port) serves every
test; the final test shuts it down through the API and asserts the
thread exits — which is the clean-shutdown check itself.
"""

import contextlib
import json
import logging
import re
import socket
import threading

import pytest

from repro.aig.aiger import write_aag
from repro.genmul.faults import inject_visible_fault
from repro.genmul.multiplier import generate_multiplier
from repro.service.client import ServiceClient, ServiceError
from repro.service.core import VerificationService
from repro.service.server import run_server


@pytest.fixture(scope="module")
def aag_text():
    return write_aag(generate_multiplier("SP-AR-RC", 4))


@pytest.fixture(scope="module")
def buggy_text():
    aig = generate_multiplier("SP-AR-RC", 4)
    return write_aag(inject_visible_fault(aig, kind="wrong-wire", seed=1))


@contextlib.contextmanager
def _serving(db):
    """A service on an ephemeral port, shut down on exit unless a test
    already did; yields ``(client, server thread)``."""
    service = VerificationService(db=db, workers=1)
    box = {}
    ready = threading.Event()

    def on_ready(server):
        box["port"] = server.port
        ready.set()

    thread = threading.Thread(
        target=run_server, args=(service,),
        kwargs={"port": 0, "ready": on_ready}, daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server did not come up"
    client = ServiceClient(port=box["port"])
    try:
        yield client, thread
    finally:
        if thread.is_alive():
            client.shutdown()
            thread.join(timeout=30)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    with _serving(str(tmp_path_factory.mktemp("server") / "runs.db")) as box:
        yield box


@pytest.fixture
def server_errors():
    """ERROR records (tracebacks) the server logs during one test."""
    records = []
    handler = logging.Handler(logging.ERROR)
    handler.emit = records.append
    logger = logging.getLogger("repro.service.server")
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


def _raw_status(port, data):
    """Send raw request bytes, close the write side, and return the
    response's status code."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def test_health(served):
    client, _ = served
    assert client.health()["ok"] is True


def test_submit_verify_resubmit_cache_hit(served, aag_text):
    client, _ = served
    first = client.submit(aag_text, design="m.aag")
    assert first["state"] in ("queued", "running", "done")
    done = client.wait(first["id"], timeout=120)
    assert done["record"]["status"] == "correct"
    assert done["record"]["cache_hit"] is False
    # the isomorphic resubmission completes inside the POST
    again = client.submit(aag_text, design="again.aag")
    assert again["state"] == "done"
    assert again["record"]["cache_hit"] is True
    assert again["record"]["fingerprint"] == \
        done["record"]["fingerprint"]


def test_buggy_design_returns_counterexample(served, buggy_text):
    client, _ = served
    job = client.wait(client.submit(buggy_text, design="buggy.aag")["id"],
                      timeout=120)
    assert job["record"]["status"] == "buggy"
    cex = job["record"]["counterexample"]
    assert cex["a"] is not None and cex["b"] is not None


def test_job_listing_and_events(served):
    client, _ = served
    rows = client.jobs()
    assert rows and all("record" not in row for row in rows)
    events = client.events(rows[0]["id"])
    assert events[0]["ev"] == "submitted"
    assert any(e["ev"] == "run_end" for e in events)


def test_running_job_streams_its_events(served, monkeypatch):
    """``GET /jobs/<id>/events`` shows a running job's events before its
    ``run_end``: the job's recorder appends them as they are emitted."""
    import time

    from repro.service import task

    release = threading.Event()
    run_design = task.run_design

    def held(*args, **kwargs):
        assert release.wait(timeout=60)
        return run_design(*args, **kwargs)

    monkeypatch.setattr(task, "run_design", held)
    client, _ = served
    text = write_aag(generate_multiplier("SP-WT-CL", 4))
    job = client.submit(text, design="held.aag")
    try:
        deadline = time.monotonic() + 30
        kinds = []
        while "task_begin" not in kinds:
            assert time.monotonic() < deadline, kinds
            time.sleep(0.02)
            kinds = [event["ev"] for event in client.events(job["id"])]
        assert "run_end" not in kinds
        assert client.job(job["id"])["state"] == "running"
    finally:
        release.set()
    done = client.wait(job["id"], timeout=60)
    assert done["record"]["status"] == "correct"
    assert "run_end" in [event["ev"] for event in client.events(job["id"])]


def test_stats_counts_cache_hits(served):
    client, _ = served
    stats = client.stats()
    assert stats["cache_hits"] >= 1
    assert stats["certificates"] >= 1
    assert stats["jobs"]["failed"] == 0


def test_error_statuses(served, aag_text, server_errors):
    client, _ = served
    with pytest.raises(ServiceError) as exc:
        client.submit("not an aag at all", design="junk")
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:
        client.job("job-9999")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.request("GET", "/nonesuch")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.request("PUT", "/jobs")
    assert exc.value.status == 405
    with pytest.raises(ServiceError) as exc:
        client.request("POST", "/jobs", {"design": "no-aag-field"})
    assert exc.value.status == 400
    for bad in ({"priority": "x"}, {"priority": float("inf")},
                {"options": [1]}, {"design": ["x"]}):
        with pytest.raises(ServiceError) as exc:
            client.request("POST", "/jobs", {"aag": aag_text, **bad})
        assert exc.value.status == 400, bad
    assert server_errors == []


@pytest.mark.parametrize("options", [{"primes": 2}, {"ring": "modular:97"}],
                         ids=["primes", "pinned-modulus"])
def test_unknown_ring_options_are_400(served, aag_text, server_errors,
                                      options):
    """A ring is ``exact`` or ``modular``; there is no prime count and
    no pinned modulus to ask for."""
    client, _ = served
    with pytest.raises(ServiceError) as exc:
        client.request("POST", "/jobs", {"aag": aag_text,
                                         "options": options})
    assert exc.value.status == 400
    assert server_errors == []


@pytest.mark.parametrize("threshold", ["NaN", "Infinity", '"x"', "true"])
def test_bad_threshold_is_400(served, aag_text, server_errors, threshold):
    """``json.loads`` accepts the bare ``NaN``/``Infinity`` literals, so a
    body can carry them; the job is refused before it is queued."""
    client, _ = served
    body = ('{"aag": %s, "options": {"initial_threshold": %s}}'
            % (json.dumps(aag_text), threshold)).encode()
    request = (b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
               % len(body) + body)
    assert _raw_status(client.port, request) == 400
    assert server_errors == []


@pytest.mark.parametrize("head, body", [
    (b"Content-Length: -5", b""),               # negative length
    (b"Content-Length: 100", b"{}"),            # body cut short
])
def test_bad_content_length_is_400(served, server_errors, head, body):
    client, _ = served
    request = b"POST /jobs HTTP/1.1\r\n" + head + b"\r\n\r\n" + body
    assert _raw_status(client.port, request) == 400
    assert server_errors == []


def test_metrics_exposition(tmp_path, aag_text):
    with _serving(str(tmp_path / "runs.db")) as (client, _):
        client.wait(client.submit(aag_text, design="m.aag")["id"],
                    timeout=120)
        assert client.submit(aag_text, design="again.aag")["state"] == \
            "done"
        content_type, text = client.metrics()
    assert content_type == "text/plain; version=0.0.4"
    typed = {line.split(" ")[2] for line in text.splitlines()
             if line.startswith("# TYPE ")}
    samples = [line for line in text.splitlines()
               if not line.startswith("#")]
    assert {re.split(r"[{ ]", line, 1)[0] for line in samples} <= typed
    assert "repro_runs_total 1" in samples
    assert any(re.match(r'repro_run_seconds\{design="m",.*\} [0-9.]+$',
                        line) for line in samples)
    assert "repro_service_cache_hits 1" in samples


def test_zz_shutdown_is_clean(served):
    # named to sort last: kills the module's server
    client, thread = served
    assert client.shutdown()["stopping"] is True
    thread.join(timeout=30)
    assert not thread.is_alive()
    with pytest.raises(OSError):
        client.health()
