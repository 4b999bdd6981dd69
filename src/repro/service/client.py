"""Blocking HTTP client of the verification service (stdlib only).

:class:`ServiceClient` backs ``repro submit`` / ``repro status`` and
the CI smoke script: one ``http.client`` connection per request (the
server answers with ``Connection: close``), JSON in, JSON out.
"""

from __future__ import annotations

import http.client
import json
import time


class ServiceError(RuntimeError):
    """A non-2xx response from the service."""

    def __init__(self, status, detail):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class ServiceClient:
    """Talk to one ``repro serve`` instance."""

    def __init__(self, host="127.0.0.1", port=8642, timeout=30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------

    def request(self, method, path, payload=None):
        """One request; returns the decoded JSON body.  Raises
        :class:`ServiceError` on a non-2xx status (with the server's
        ``error`` detail) and ``OSError`` when the service is down."""
        return json.loads(self._exchange(method, path, payload)[1] or "{}")

    def _exchange(self, method, path, payload=None):
        """One request; returns ``(content type, body text)`` of a 2xx
        response and raises like :meth:`request` otherwise."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        if response.status >= 300:
            try:
                detail = json.loads(text).get("error", text)
            except (ValueError, AttributeError):
                detail = text
            raise ServiceError(response.status, detail)
        return response.getheader("Content-Type", ""), text

    # -- API surface ---------------------------------------------------

    def health(self):
        return self.request("GET", "/health")

    def stats(self):
        return self.request("GET", "/stats")

    def metrics(self):
        """``GET /metrics``: ``(content type, Prometheus text)``."""
        return self._exchange("GET", "/metrics")

    def jobs(self):
        return self.request("GET", "/jobs")["jobs"]

    def job(self, job_id):
        return self.request("GET", f"/jobs/{job_id}")

    def events(self, job_id):
        return self.request("GET", f"/jobs/{job_id}/events")["events"]

    def submit(self, aag, design=None, *, priority=5, options=None,
               use_cache=True):
        """Submit one design (AAG text); returns the job dict — already
        ``done`` with its record when the cache answered."""
        payload = {"aag": aag, "priority": priority,
                   "use_cache": use_cache}
        if design is not None:
            payload["design"] = design
        if options:
            payload["options"] = options
        return self.request("POST", "/jobs", payload)

    def wait(self, job_id, timeout=120.0, poll=0.2):
        """Poll until the job finishes; returns its final dict.
        ``TimeoutError`` when the deadline passes first."""
        deadline = time.monotonic() + timeout
        while True:
            info = self.job(job_id)
            if info["state"] in ("done", "failed"):
                return info
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {info['state']} after {timeout:g}s")
            time.sleep(poll)

    def shutdown(self):
        return self.request("POST", "/shutdown")
