"""Process-spanning telemetry: relay worker events into one trace.

``parallel_map``'s ``--jobs N`` fan-out used to go dark the moment work
left the parent process: each pool worker had (at best) a private
in-memory recorder whose events died with the task.  This module gives
every worker a :class:`ChildRecorder` — the normal recorder interface,
but each emitted event is tagged with

* ``worker_id`` — the pool slot (1-based, claimed from a relay-owned
  counter at pool init; 0 for the serial in-process path),
* ``pid`` — the worker's OS process id,
* ``seq`` — a per-process monotone sequence number (causal order
  within one worker is exactly ascending ``seq``),
* ``mono`` — ``time.monotonic()`` at emission.  ``CLOCK_MONOTONIC`` is
  shared by every process on the machine, so worker timestamps are
  directly comparable across the pool,

and streamed over a ``multiprocessing.Queue`` to the parent's
:class:`EventRelay`.  The relay drains the queue on a background thread
(so live monitors see events as they happen), counts received events
per worker, and — after the pool has been closed and joined — merges
everything into one coherent trace: a stable sort on
``(mono, worker_id, seq)`` interleaves the workers in wall-clock order
while preserving each worker's causal order, and every ``mono`` is
rebased onto the relay's own timeline so the merged ``t`` values share
one zero point.  The merged events are JSONL-compatible with the
single-process schema (``repro report``, ``obs ingest`` and ``obs
diff`` consume them unchanged); the worker dimension is three extra
fields.

**Event-loss accounting**: each worker's flush control record declares
how many events the process emitted in total; the relay compares that
against what arrived.  ``EventRelay.event_loss`` must be 0 after a
clean run — ``scripts/obs_overhead_check.py`` gates on it.  Loss is
possible only if a worker is killed before its queue feeder thread
flushes (the pool is closed and joined, not terminated, precisely so
that cannot happen on the happy path).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue as queue_mod
import threading
import time

from repro.obs.recorder import Recorder

#: Key marking relay control records (never part of the merged trace).
CONTROL_KEY = "__relay__"

#: Chunked streaming: a worker buffers tagged events and ships them as
#: one queue message when the buffer fills or goes stale.  Per-event
#: ``Queue.put`` costs a pickle + pipe write each; chunking amortizes
#: both without hurting liveness (the time bound keeps the parent's
#: watchdog fed far faster than any stall budget).
FLUSH_EVENTS = 64
FLUSH_SECONDS = 0.25

# -- child-process state (installed by the pool initializer) -----------

_CHILD_QUEUE = None
_CHILD_SEQ = 0  # cumulative events emitted by this worker process
_CHILD_WORKER = None  # 1-based pool slot claimed from the relay counter


def child_init(queue, slot_counter=None):
    """Pool initializer: bind this worker process to the relay queue
    and claim the next 1-based pool slot from the shared counter.

    ``multiprocessing``'s own process ``_identity`` counts every child
    the parent ever spawned, so a second pool in the same parent would
    label its workers 3, 4, ... — the shared counter keeps worker ids
    deterministic (1..jobs) per relay instead.
    """
    global _CHILD_QUEUE, _CHILD_SEQ, _CHILD_WORKER
    _CHILD_QUEUE = queue
    _CHILD_SEQ = 0
    if slot_counter is not None:
        with slot_counter.get_lock():
            slot_counter.value += 1
            _CHILD_WORKER = slot_counter.value


def current_worker_id():
    """Pool slot of the current process (1-based); 0 in the parent."""
    if _CHILD_WORKER is not None:
        return _CHILD_WORKER
    identity = multiprocessing.current_process()._identity
    return identity[0] if identity else 0


def child_recorder():
    """A :class:`ChildRecorder` bound to the process's relay queue.

    Inside a pool worker initialized by :func:`child_init` the events
    stream back to the parent; in the parent (serial path, or a pool
    without a relay) the queue is None and the tagged events stay in
    ``recorder.events`` for the caller to collect.
    """
    return ChildRecorder(queue=_CHILD_QUEUE, worker=current_worker_id())


def flush_child(recorder):
    """Drain the worker's chunk buffer, then send the end-of-task
    control record declaring the cumulative emitted-event count (the
    relay's loss accounting)."""
    if recorder._queue is not None:
        recorder.flush()
        recorder._queue.put({CONTROL_KEY: "flush",
                             "worker_id": recorder.worker,
                             "pid": recorder.pid,
                             "emitted": _CHILD_SEQ})


class ChildRecorder(Recorder):
    """In-worker recorder: every event is worker-tagged and (when a
    relay queue is bound) streamed to the parent in chunks as it is
    emitted."""

    def __init__(self, queue=None, worker=None):
        super().__init__()
        self._queue = queue
        self._buffer = []
        self._last_flush = time.monotonic()
        self.worker = worker if worker is not None else current_worker_id()
        self.pid = os.getpid()

    def flush(self):
        """Ship the buffered chunk to the parent relay (if any)."""
        if self._queue is not None and self._buffer:
            self._queue.put(self._buffer)
            self._buffer = []
        self._last_flush = time.monotonic()

    def _emit(self, record):
        global _CHILD_SEQ
        _CHILD_SEQ += 1
        record = dict(record)
        record["worker_id"] = self.worker
        record["pid"] = self.pid
        record["seq"] = _CHILD_SEQ
        record["mono"] = time.monotonic()
        self.events.append(record)
        if self._queue is not None:
            self._buffer.append(record)
            if (len(self._buffer) >= FLUSH_EVENTS
                    or record["mono"] - self._last_flush >= FLUSH_SECONDS):
                self.flush()


class EventRelay:
    """Parent half: drain, account, and merge worker event streams.

    ``recorder`` is the parent recorder the merged trace is replayed
    into at :meth:`finish` (it may carry a JSONL sink); ``on_event`` is
    called with every record as it *arrives* (live monitors); ``on_tick``
    is called periodically from the drain thread even when no events
    arrive, so watchdogs keep breathing while every worker is silent.
    """

    def __init__(self, recorder=None, on_event=None, on_tick=None,
                 context=None, poll=0.05):
        self.recorder = recorder
        self.on_event = on_event
        self.on_tick = on_tick
        self.events = []
        self.workers = {}
        self._mono0 = time.monotonic()
        self._poll = poll
        self._stop = threading.Event()
        self._thread = None
        self._context = context or multiprocessing.get_context()
        self._queue = None

    # -- pool plumbing -------------------------------------------------

    @property
    def queue(self):
        if self._queue is None:
            self._queue = self._context.Queue()
        return self._queue

    def pool_initializer(self):
        """``(initializer, initargs)`` for ``multiprocessing.Pool``."""
        return child_init, (self.queue, self._context.Value("i", 0))

    def start(self):
        """Start the background drain thread (queued mode)."""
        self.queue  # materialize before the pool forks
        self._thread = threading.Thread(target=self._drain,
                                        name="repro-obs-relay", daemon=True)
        self._thread.start()
        return self

    @contextlib.contextmanager
    def in_process(self):
        """Queued mode without a pool: while the block runs, this
        process's :class:`ChildRecorder` events (worker 0) stream
        through the queue, so ``on_event``/``on_tick`` see a serial task
        while it runs.  The queue is unbound again on exit."""
        child_init(self.queue)
        self.start()
        try:
            yield self
        finally:
            child_init(None)

    # -- receiving -----------------------------------------------------

    def _worker_info(self, worker_id):
        return self.workers.setdefault(worker_id, {
            "worker_id": worker_id, "pid": None, "received": 0,
            "declared": None, "first_mono": None, "last_mono": None})

    def _receive(self, record):
        if isinstance(record, list):  # a worker's chunk
            for item in record:
                self._receive(item)
            return
        if CONTROL_KEY in record:
            info = self._worker_info(record.get("worker_id", 0))
            info["pid"] = record.get("pid", info["pid"])
            info["declared"] = record.get("emitted")
            return
        info = self._worker_info(record.get("worker_id", 0))
        info["received"] += 1
        info["pid"] = record.get("pid", info["pid"])
        mono = record.get("mono")
        if mono is not None:
            if info["first_mono"] is None:
                info["first_mono"] = mono
            info["last_mono"] = mono
        self.events.append(record)
        if self.on_event is not None:
            try:
                self.on_event(record)
            except Exception:  # noqa: BLE001 - observers must not kill runs
                pass

    def collect(self, events, declared=None):
        """Queue-less path: fold an in-process worker's tagged events in
        (the serial ``--jobs 1`` batch still gets a merged trace)."""
        for record in events:
            self._receive(record)
        if events:
            worker_id = events[-1].get("worker_id", 0)
            info = self._worker_info(worker_id)
            info["declared"] = (declared if declared is not None
                                else info["received"])

    def _drain(self):
        while True:
            try:
                record = self._queue.get(timeout=self._poll)
            except queue_mod.Empty:
                if self._stop.is_set():
                    return
                if self.on_tick is not None:
                    try:
                        self.on_tick()
                    except Exception:  # noqa: BLE001
                        pass
                continue
            if isinstance(record, dict) and record.get(CONTROL_KEY) == "stop":
                # wake-up sentinel from finish(): everything the workers
                # emitted is already ahead of it (FIFO), so run the
                # queue dry without blocking and exit
                while True:
                    try:
                        record = self._queue.get_nowait()
                    except queue_mod.Empty:
                        return
                    self._receive(record)
            self._receive(record)

    # -- merging -------------------------------------------------------

    @property
    def event_loss(self):
        """Declared-but-never-received event count (0 after a clean
        run); workers that never declared count every missing event."""
        loss = 0
        for info in self.workers.values():
            declared = info.get("declared")
            if declared is not None:
                loss += max(0, declared - info["received"])
        return loss

    def worker_rows(self):
        """Per-worker accounting rows for ``--json`` payloads and the
        run-history store (timestamps rebased like the merged trace)."""
        rows = []
        for worker_id in sorted(self.workers):
            info = self.workers[worker_id]
            rows.append({
                "worker_id": worker_id, "pid": info["pid"],
                "events": info["received"],
                "declared": info["declared"],
                "first_t": (round(info["first_mono"] - self._mono0, 6)
                            if info["first_mono"] is not None else None),
                "last_t": (round(info["last_mono"] - self._mono0, 6)
                           if info["last_mono"] is not None else None),
            })
        return rows

    def merged_events(self):
        """The causally-ordered merged trace.

        Stable sort on ``(mono, worker_id, seq)``: within one worker
        ``mono`` (and at equal clock readings ``seq``) is ascending, so
        causal order is preserved; across workers the shared monotonic
        clock interleaves events in wall-clock order.  ``mono`` is
        consumed — the merged record's ``t`` is the rebased timestamp.
        """
        ordered = sorted(self.events,
                         key=lambda r: (r.get("mono", 0.0),
                                        r.get("worker_id", 0),
                                        r.get("seq", 0)))
        merged = []
        for record in ordered:
            record = dict(record)
            mono = record.pop("mono", None)
            if mono is not None:
                record["t"] = round(mono - self._mono0, 6)
            merged.append(record)
        return merged

    def finish(self):
        """Stop draining, merge, and replay into the parent recorder.

        Call only after the pool has been **closed and joined** — a
        worker process does not exit until its queue feeder thread has
        flushed, so at that point every emitted event is retrievable
        and the drain loop runs the queue dry before stopping.
        Returns the merged event list.
        """
        self._stop.set()
        if self._thread is not None:
            # sentinel wakes the drain loop out of its poll immediately
            self._queue.put({CONTROL_KEY: "stop"})
            self._thread.join()
            self._thread = None
        merged = self.merged_events()
        if self.recorder is not None:
            for record in merged:
                self.recorder.replay(record)
        return merged


def split_worker_runs(events):
    """Split a merged multi-worker trace into per-run event streams.

    Returns ``[(design_or_None, [events...]), ...]`` — one entry per
    ``run_begin`` boundary per worker, each stream in that worker's
    causal order.  The design label comes from the ``task_begin``
    event the batch driver emits before each verification.  Events
    outside any run (samplers, task bookkeeping) stay attached to the
    current segment of their worker.
    """
    by_worker = {}
    order = []
    for event in events:
        worker = event.get("worker_id", 0)
        if worker not in by_worker:
            by_worker[worker] = []
            order.append(worker)
        by_worker[worker].append(event)
    runs = []
    for worker in order:
        segment = None
        design = None
        for event in by_worker[worker]:
            kind = event.get("ev")
            if kind == "task_begin":
                if segment:
                    runs.append((design, segment))
                segment = [event]
                design = event.get("design") or event.get("input")
                continue
            if segment is None:
                segment = []
                design = None
            segment.append(event)
        if segment:
            runs.append((design, segment))
    return runs
