"""Job records and the priority queue of the verification service.

A :class:`Job` is one submitted design moving through ``queued →
running → done|failed``; the :class:`JobQueue` orders waiting jobs by
``(priority, submission order)`` — lower priority numbers run first,
ties are FIFO.  The queue is thread-safe: the asyncio HTTP front end
submits from the event loop while the dispatcher threads block on
:meth:`JobQueue.get`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time

JOB_STATES = ("queued", "running", "done", "failed")

#: Default submission priority; lower numbers are served first.
DEFAULT_PRIORITY = 5


class Job:
    """One submitted verification task and its whole life cycle."""

    def __init__(self, job_id, design, source, *, priority=DEFAULT_PRIORITY,
                 config=None):
        self.id = job_id
        self.design = design
        self.source = source          # AAG text, kept until the job runs
        self.priority = int(priority)
        self.config = config          # the VerifyConfig validated at submit
        self.use_cache = True         # may be cleared at submission
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None
        self.record = None            # the JSON verdict record when done
        self.error = None             # failure detail when state=failed
        self.events = []              # this job's obs event stream

    @property
    def finished(self):
        return self.state in ("done", "failed")

    def as_dict(self, *, record=True):
        """JSON-ready view; ``record=False`` gives the listing shape
        (state and verdict headline without the full record/events)."""
        info = {
            "id": self.id,
            "design": self.design,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.record is not None:
            info["status"] = self.record.get("status")
            info["cache_hit"] = self.record.get("cache_hit", False)
        if self.error is not None:
            info["error"] = self.error
        if record and self.record is not None:
            info["record"] = self.record
        return info


class JobQueue:
    """Thread-safe priority queue: ``(priority, submission seq)`` order.

    :meth:`get` blocks until a job arrives or the queue is closed
    (returning None — the dispatcher shutdown signal).  A closed queue
    refuses new jobs.
    """

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self):
        with self._cond:
            return len(self._heap)

    def put(self, job):
        with self._cond:
            if self._closed:
                raise RuntimeError("job queue is closed")
            heapq.heappush(self._heap, (job.priority, next(self._seq), job))
            self._cond.notify()

    def get(self, timeout=None):
        """Next job by priority; None when closed (or on timeout)."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        with self._cond:
            while not self._heap:
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)
            return heapq.heappop(self._heap)[2]

    def close(self):
        """Refuse new jobs and wake every blocked :meth:`get`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
