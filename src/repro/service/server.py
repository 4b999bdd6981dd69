"""Asyncio HTTP/JSON front end of the verification service.

Stdlib only: ``asyncio.start_server`` plus a hand-rolled HTTP/1.1
request parser (the few hundred bytes of HTTP the service needs — no
``http.server`` thread-per-connection, no frameworks).  Every response
carries ``Connection: close`` and is JSON, except the Prometheus text
of ``/metrics``; the API surface:

===========================  ==========================================
``GET  /health``             liveness probe (``{"ok": true}``)
``GET  /stats``              queue depth, job state counts, cache hits
``GET  /metrics``            Prometheus text exposition: the latest run
                             of every stored series plus the ``/stats``
                             counters as ``repro_service_*`` gauges
``GET  /jobs``               job listing (no records)
``GET  /jobs/<id>``          one job with its verdict record
``GET  /jobs/<id>/events``   the job's obs event stream
``POST /jobs``               submit ``{"design", "aag", "priority"?,
                             "options"?}`` → 200 done (cache hit) or
                             202 queued
``POST /shutdown``           graceful stop: drain the queue
===========================  ==========================================

Submissions a cache hit answers complete inside the POST — the
response already carries ``"state": "done"`` and the cached verdict
with ``cache_hit: true``.
"""

from __future__ import annotations

import asyncio
import json
import logging

from repro.service.core import SubmitError
from repro.service.jobs import DEFAULT_PRIORITY

log = logging.getLogger("repro.service.server")

#: Submissions are AAG text — cap the body well above any sane design
#: but below a memory hazard.
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 500: "Internal Server Error"}

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4"


class ServiceServer:
    """One listening socket over a :class:`VerificationService`."""

    def __init__(self, service, host="127.0.0.1", port=0):
        self.service = service
        self.host = host
        self.port = port              # 0 → ephemeral; real port after start
        self._server = None
        self._shutdown = None         # asyncio.Event, created on start

    # -- life cycle ----------------------------------------------------

    async def start(self):
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("listening on http://%s:%d", self.host, self.port)
        return self

    async def wait_shutdown(self):
        """Block until ``POST /shutdown`` arrives, then close the
        socket (the caller drains the service afterwards)."""
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling ----------------------------------------------

    async def _handle(self, reader, writer):
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body = request
            status, payload = self._route(method, path, body)
        except _HttpError as exc:
            status, payload = exc.status, {"error": exc.detail}
        except Exception as exc:  # noqa: BLE001 - a request must not kill us
            log.exception("request failed")
            status, payload = 500, {"error": str(exc)}
        try:
            await self._respond(writer, status, payload)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(reader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = -1
                if length < 0:
                    raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "body shorter than Content-Length") \
                from None
        return method, path, body

    async def _respond(self, writer, status, payload):
        """Write one response: a ``str`` payload is the Prometheus text
        of ``/metrics``, anything else is sent as JSON."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "?")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    def _route(self, method, path, body):
        path = path.rstrip("/") or "/"
        if method == "GET":
            return self._route_get(path)
        if method == "POST":
            return self._route_post(path, body)
        raise _HttpError(405, f"method {method} not allowed")

    def _route_get(self, path):
        service = self.service
        if path == "/health":
            return 200, {"ok": True, "service": "repro-verify"}
        if path == "/stats":
            return 200, service.stats()
        if path == "/metrics":
            return 200, service.metrics()
        if path == "/jobs":
            return 200, {"jobs": service.list_jobs()}
        if path.startswith("/jobs/"):
            tail = path[len("/jobs/"):]
            job_id, _, extra = tail.partition("/")
            job = service.job(job_id)
            if job is None:
                raise _HttpError(404, f"no such job: {job_id}")
            if extra == "events":
                # a snapshot: a running job's stream grows meanwhile
                return 200, {"id": job.id, "events": list(job.events)}
            if extra:
                raise _HttpError(404, f"no such resource: {path}")
            return 200, job.as_dict()
        raise _HttpError(404, f"no such resource: {path}")

    def _route_post(self, path, body):
        if path == "/shutdown":
            self._shutdown.set()
            return 200, {"ok": True, "stopping": True}
        if path != "/jobs":
            raise _HttpError(404, f"no such resource: {path}")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "body is not valid JSON") from None
        if (not isinstance(payload, dict)
                or not isinstance(payload.get("aag"), str)
                or not payload["aag"]):
            raise _HttpError(400, 'submission needs {"aag": "<AAG text>"}')
        design = payload.get("design") or "submitted"
        if not isinstance(design, str):
            raise _HttpError(400, '"design" must be a string')
        options = payload.get("options") or {}
        if not isinstance(options, dict):
            raise _HttpError(400, '"options" must be an object')
        try:
            priority = int(payload.get("priority", DEFAULT_PRIORITY))
        except (TypeError, ValueError, OverflowError):   # OverflowError: inf
            raise _HttpError(400, '"priority" must be an integer') from None
        try:
            job = self.service.submit(
                design, payload["aag"], priority=priority, options=options,
                use_cache=bool(payload.get("use_cache", True)))
        except SubmitError as exc:
            raise _HttpError(400, str(exc)) from None
        return (200 if job.finished else 202), job.as_dict()


class _HttpError(Exception):
    def __init__(self, status, detail):
        super().__init__(detail)
        self.status = status
        self.detail = detail


async def _serve(service, host, port, ready=None):
    server = ServiceServer(service, host, port)
    await server.start()
    if ready is not None:
        ready(server)
    await server.wait_shutdown()


def run_server(service, host="127.0.0.1", port=8642, ready=None):
    """Blocking entry point of ``repro serve``: start the service and
    the listener, run until ``POST /shutdown`` (or KeyboardInterrupt),
    then drain jobs and release everything."""
    service.start()
    try:
        asyncio.run(_serve(service, host, port, ready=ready))
    except KeyboardInterrupt:
        log.info("interrupted; draining")
    finally:
        service.shutdown()
