"""Timed phase: the real CLI and service, driven from outside.

Every workload is a closed loop from one process with one request in
flight.  CLI requests are ``python -m repro verify`` children, timed from
spawn to exit, with their own peak RSS.  Service requests go through
``ServiceClient`` to a ``repro serve --jobs 1`` child.  No request sets
a time budget; one still running after ``KILL_AFTER_S`` is killed and
counted as failed, so no program option changes what is measured.

Every timing is kept twice: as measured, and host-scaled by the
reference runs around it (``hostspeed.py``).  The metrics are the
host-scaled ones; the measured ones are reported next to them.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import ServiceClient, ServiceError

from designs import Inputs, counterexample_holds, timed_call
from hostspeed import NOMINAL_S, HostSpeed
from pools import draw_round

KILL_AFTER_S = 120.0
SETUP_REPEATS = 3
POLL_S = 0.005
STATUS_RE = re.compile(r"^dyposub: (\w+) in ", re.M)
CEX_RE = re.compile(r"^\s*counterexample: a=(\d+) b=(\d+)", re.M)
PORT_RE = re.compile(r"http://[\d.]+:(\d+)")


class Children:
    """The program's child processes, started and reaped by ``launch.py``
    (see there why) with the checkout's ``src`` on the path and
    temporary files kept in the run's work dir."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   TMPDIR=str(workdir))
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=root, env=env)

    def _ask(self, request):
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        answer = self._launcher.stdout.readline()
        if not answer:
            raise RuntimeError("the process launcher exited")
        return json.loads(answer)

    def spawn(self, args, out):
        """Start ``python args...`` with its output to ``out``; returns
        the pid."""
        return self._ask({"spawn": [sys.executable, *args],
                          "out": str(out)})["pid"]

    def running(self, pid):
        return self._ask({"poll": pid})["running"]

    def wait(self, pid, timeout=KILL_AFTER_S):
        """Reap ``pid``, killing it after ``timeout`` s; returns ``(wall
        s, exit code or None when killed, peak RSS MB)``."""
        answer = self._ask({"wait": pid, "timeout": timeout})
        return answer["wall_s"], answer["code"], answer["rss_mb"]

    def close(self):
        """Stop the launcher, which kills and reaps any child left."""
        self._launcher.stdin.close()
        self._launcher.wait(timeout=60)
        self._launcher.stdout.close()


def cli_verify(children, path, ring="exact", db=None):
    """One ``repro verify`` child: ``(wall s, exit code, output, RSS MB)``."""
    args = ["-m", "repro", "verify", str(path)]
    if ring != "exact":
        args += ["--ring", ring]
    if db is not None:
        args += ["--db", str(db)]
    out = children.workdir / "cli.log"
    wall, code, rss = children.wait(children.spawn(args, out))
    return wall, code, out.read_text(encoding="utf-8"), rss


def cli_problem(design, aig, code, text, hit=False):
    """Why a CLI answer is wrong, or None when it matches ground truth."""
    if code is None:
        return f"killed after {KILL_AFTER_S:g}s"
    match = STATUS_RE.search(text)
    status = match.group(1) if match else None
    if status != design.expected:
        return f"verdict {status!r}, expected {design.expected!r} " \
               f"(exit {code}): {text.strip()[-200:]!r}"
    if code != (0 if status == "correct" else 1):
        return f"exit code {code} for a {status} verdict"
    if hit != ("[cache hit]" in text):
        return "cache hit missing" if hit else "unexpected cache hit"
    if status == "buggy":
        cex = CEX_RE.search(text)
        if cex is None:
            return "buggy verdict without a counterexample"
        if not counterexample_holds(aig, int(cex.group(1)),
                                    int(cex.group(2))):
            return f"counterexample {cex.group(0).strip()!r} does not " \
                   f"re-simulate"
    return None


def record_problem(design, aig, record, hit, original=None):
    """Why a service verdict record is wrong, or None."""
    if record is None:
        return "job finished without a verdict record"
    if record.get("status") != design.expected:
        return f"verdict {record.get('status')!r}, expected " \
               f"{design.expected!r}: {record.get('summary')!r}"
    if bool(record.get("cache_hit")) != hit:
        return "cache hit missing" if hit else "unexpected cache hit"
    if original is not None:
        for key in ("status", "fingerprint", "counterexample"):
            if record.get(key) != original.get(key):
                return f"hit does not replay the original {key}"
    if design.expected == "buggy":
        cex = record.get("counterexample") or {}
        if cex.get("a") is None or cex.get("b") is None:
            return "buggy verdict without a counterexample"
        if not counterexample_holds(aig, cex["a"], cex["b"]):
            return f"counterexample {cex} does not re-simulate"
    return None


class Server:
    """A ``repro serve --port 0 --jobs 1`` child on a fresh store."""

    def __init__(self, children, db):
        self._children = children
        self.client = None
        log = children.workdir / f"{db.stem}.log"
        self.pid = children.spawn(
            ["-m", "repro", "serve", "--port", "0", "--jobs", "1",
             "--db", str(db)], log)
        deadline = time.monotonic() + 60.0
        while (match := PORT_RE.search(log.read_text("utf-8"))) is None:
            if time.monotonic() > deadline \
                    or not children.running(self.pid):
                self.stop()
                raise RuntimeError(f"repro serve did not announce a port: "
                                   f"{log.read_text('utf-8')[-500:]!r}")
            time.sleep(POLL_S)
        self.client = ServiceClient(port=int(match.group(1)),
                                    timeout=KILL_AFTER_S)
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise
                time.sleep(POLL_S)

    def submit(self, text, label):
        """POST one design; returns ``(client send time, POST seconds,
        job dict)``."""
        sent = time.time()
        start = time.perf_counter()
        job = self.client.submit(text, design=label)
        return sent, time.perf_counter() - start, job

    def wait(self, job):
        """Poll until ``job`` finishes; None after ``KILL_AFTER_S``."""
        deadline = time.monotonic() + KILL_AFTER_S
        while job["state"] not in ("done", "failed"):
            if time.monotonic() > deadline:
                return None
            time.sleep(POLL_S)
            job = self.client.job(job["id"])
        return job

    def stop(self):
        """``POST /shutdown`` and reap; returns the peak RSS in MB of the
        server and its pool worker."""
        try:
            self.client.shutdown()
            timeout = 60.0
        except (AttributeError, OSError, ServiceError):
            timeout = 0.0   # no client yet, or it stopped answering: kill
        return self._children.wait(self.pid, timeout)[2]


class Tally:
    """Outcomes of one run's requests."""

    def __init__(self):
        self.verdict_s = []     # (measured, host-scaled) seconds
        self.hit_s = []
        self.attempted = 0
        self.returned = 0
        self.failures = []
        self.rows = []
        self.rss_mb = 0.0

    def add(self, label, seconds, problem, *, hit=False, scale=1.0):
        """Count one request; ``seconds`` is None when no verdict came
        back or the request is not timed (a warm-up), ``scale`` turns it
        into host-scaled seconds."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        if seconds is not None:
            self.returned += 1
            (self.hit_s if hit else self.verdict_s).append(
                (seconds, seconds * scale))
        self.rows.append({"request": label, "seconds": seconds,
                          "scale": scale, "hit": hit,
                          "ok": problem is None})


def service_cold(server, design, text, aig):
    """POST one cold job and wait for it; returns ``(seconds from send
    to the server's finish, POST seconds, job, problem)``."""
    try:
        sent, post, job = server.submit(text, design.label)
        job = server.wait(job)
    except (OSError, ServiceError) as exc:
        return None, None, None, f"request failed: {exc}"
    if job is None:
        return None, post, None, f"no verdict after {KILL_AFTER_S:g}s"
    return (job["finished_at"] - sent, post, job,
            record_problem(design, aig, job.get("record"), False))


def service_hit(server, design, text, aig, original):
    """POST a resubmission; returns ``(POST seconds, problem)``."""
    try:
        _sent, post, job = server.submit(text, design.label)
    except (OSError, ServiceError) as exc:
        return None, f"request failed: {exc}"
    if job.get("state") != "done":
        return post, f"hit not answered inside the POST ({job['state']})"
    return post, record_problem(design, aig, job.get("record"), True,
                                original)


def _warm_up(children, spec, inputs, tally, texts, index):
    """The untimed first request; for the service it follows a server
    start on a fresh store.  Returns ``(seconds, server or None)``."""
    start = time.perf_counter()
    warmup = spec.warmup
    aig = inputs.aigs[warmup]
    server = None
    if spec.front_end == "cli":
        _wall, code, text, rss = cli_verify(children, inputs.paths[warmup])
        tally.rss_mb = max(tally.rss_mb, rss)
        problem = cli_problem(warmup, aig, code, text)
    else:
        server = Server(children, children.workdir / f"service-{index}.db")
        problem = service_cold(server, warmup, texts[inputs.paths[warmup]],
                               aig)[3]
    tally.add(f"warm-up {warmup.label}", None, problem)
    return time.perf_counter() - start, server


def _request(children, server, request, inputs, texts, originals, tally):
    """Send one timed request; returns ``(seconds or None, problem)``."""
    design = request.design
    aig = inputs.aigs[design]
    if server is None:
        wall, code, text, rss = cli_verify(children, inputs.paths[design],
                                           request.ring)
        tally.rss_mb = max(tally.rss_mb, rss)
        return (wall if code is not None else None,
                cli_problem(design, aig, code, text))
    if request.hit:
        return service_hit(server, design, texts[inputs.copies[(design, 0)]],
                           aig, originals.get(design))
    verdict_s, _post, job, problem = service_cold(
        server, design, texts[inputs.paths[design]], aig)
    originals[design] = job and job.get("record")
    return verdict_s, problem


def _summary(tally, builds, warmups, timed_s, pick):
    """The end-to-end metrics from one side of every timing: ``pick`` 0
    is as measured, 1 host-scaled."""
    verdicts = [pair[pick] for pair in tally.verdict_s]
    metrics = {
        "setup_s": (statistics.median(pair[pick] for pair in builds)
                    + statistics.median(pair[pick] for pair in warmups),
                    "s"),
        "verdict_s_gmean": (statistics.geometric_mean(verdicts), "s"),
        "verdict_s_p50": (statistics.median(verdicts), "s"),
        "verdict_s_p75": (statistics.quantiles(verdicts, n=4)[2], "s"),
        "designs_per_s": (tally.returned / timed_s[pick], "1/s"),
        "peak_rss_mb": (tally.rss_mb, "MB"),
    }
    if tally.hit_s:
        hits = [1000 * pair[pick] for pair in tally.hit_s]
        metrics["hit_ms_p50"] = (statistics.median(hits), "ms")
        metrics["hit_ms_p75"] = (statistics.quantiles(hits, n=4)[2], "ms")
    metrics["failed_frac"] = (len(tally.failures) / tally.attempted,
                              "fraction")
    return metrics


def run_timed(spec, seed, seconds, children):
    """Set up and run one workload's timed phase; returns its result.

    Set-up is the input build (repeated ``SETUP_REPEATS`` times) plus the
    warm-up (repeated as often on the CLI, once per round's fresh server
    on the service); ``setup_s`` is the sum of the two medians.  Each
    build, warm-up and request (on the service, each cold job with the
    hit that follows it) is one unit of work between two host-speed
    reference runs.
    """
    tally = Tally()
    speed = HostSpeed(children)

    def scaled(took):
        """``(measured, host-scaled)`` seconds of the unit just done."""
        return took, took * speed.scale()

    builds = []
    for _ in range(SETUP_REPEATS):
        inputs = Inputs(children.workdir, seed)
        builds.append(scaled(timed_call(inputs.add_workload, spec)[1]))
    texts = {path: path.read_text(encoding="ascii")
             for path in [*inputs.paths.values(), *inputs.copies.values()]}
    warmups = []
    if spec.front_end == "cli":
        for index in range(SETUP_REPEATS):
            warmups.append(scaled(_warm_up(children, spec, inputs, tally,
                                           texts, index)[0]))

    timed_s = [0.0, 0.0]    # wall of the timed units: measured, scaled
    rounds = 0
    server = None
    try:
        while True:
            if spec.front_end == "service":
                # a fresh store per round, so every cold job misses
                warmup_s, server = _warm_up(children, spec, inputs, tally,
                                            texts, rounds)
                warmups.append(scaled(warmup_s))
            originals = {}
            unit = []
            begin = time.perf_counter()
            for request in draw_round(spec.name, seed, rounds):
                unit.append((request, *_request(children, server, request,
                                                inputs, texts, originals,
                                                tally)))
                if server is not None and not request.hit:
                    continue    # the hit that follows joins this unit
                wall = time.perf_counter() - begin
                factor = speed.scale()
                timed_s[0] += wall
                timed_s[1] += wall * factor
                for done, took, problem in unit:
                    tally.add(done.label, took, problem, hit=done.hit,
                              scale=factor)
                unit = []
                begin = time.perf_counter()
            rounds += 1
            if server is not None:
                tally.rss_mb = max(tally.rss_mb, server.stop())
                server = None
            # stop at the round boundary nearest to --seconds
            if timed_s[0] + timed_s[0] / rounds / 2 >= seconds:
                break
    finally:
        if server is not None:
            server.stop()

    return {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": _summary(tally, builds, warmups, timed_s, 1),
        "measured": _summary(tally, builds, warmups, timed_s, 0),
        "samples": {"verdict_s": len(tally.verdict_s),
                    "hit_ms": len(tally.hit_s)},
        "host": {"reference_s_p50": statistics.median(speed.samples),
                 "reference_runs": len(speed.samples),
                 "nominal_s": NOMINAL_S},
        "rounds": rounds,
        "timed_s": timed_s[0],
        "failures": tally.failures,
        "requests": tally.rows,
    }
