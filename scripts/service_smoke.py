#!/usr/bin/env python
"""CI smoke test of the verification service, over real processes.

Starts an actual ``repro serve --jobs 2`` child (HTTP listener, two
dispatcher threads, certificate cache on disk), then drives the
documented client flow:

1. submit a clean 4x4 multiplier — verifies fresh (``cache_hit`` false);
2. submit an *isomorphic rewrite* of the same design (renumbered
   variables, permuted AND pins) — must be answered from the
   certificate cache inside the POST, without queueing;
3. submit a fault-injected variant — must miss the cache and come back
   ``buggy`` with a concrete counterexample;
4. submit a design with an odd number of inputs — the job must end
   ``done`` with an ``invalid`` RA030 verdict, and no run row;
5. submit a slower design and read its event stream while it runs —
   the stream must already carry the job's pipeline events;
6. ``GET /metrics`` — the Prometheus text must count the stored runs
   and the one cache hit;
7. ``POST /shutdown`` — the server must drain and exit 0.

Run from the repo root: ``PYTHONPATH=src python scripts/service_smoke.py``
"""

import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.aig.aig import Aig, lit_neg, lit_var
from repro.aig.aiger import write_aag
from repro.genmul.faults import inject_visible_fault
from repro.genmul.multiplier import generate_multiplier
from repro.obs.store import RunStore
from repro.service.client import ServiceClient

FAILURES = []


def check(ok, label):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        FAILURES.append(label)


def shuffled_copy(aig, seed=0):
    """Isomorphic rebuild: same circuit and interface, different
    variable numbering and AND pin order (mirrors the soundness tests
    in tests/service/test_fingerprint.py)."""
    rng = random.Random(seed)
    out = Aig(aig.name)
    mapping = {0: 0}
    for var, name in zip(aig.inputs, aig.input_names):
        mapping[var] = lit_var(out.add_input(name))

    def relit(lit):
        new = 2 * mapping[lit_var(lit)]
        return lit_neg(new) if lit & 1 else new

    remaining = list(aig.and_vars())
    ready = []
    while remaining or ready:
        ready.extend(v for v in remaining
                     if all(lit_var(f) in mapping for f in aig.fanins(v)))
        remaining = [v for v in remaining if v not in set(ready)]
        pick = ready.pop(rng.randrange(len(ready)))
        f0, f1 = aig.fanins(pick)
        mapping[pick] = lit_var(out.add_and(relit(f1), relit(f0)))
    for lit, name in zip(aig.outputs, aig.output_names):
        out.add_output(relit(lit), name)
    return out


def main():
    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    aig = generate_multiplier("SP-AR-RC", 4)
    iso = shuffled_copy(aig, seed=3)
    buggy = inject_visible_fault(aig, kind="gate-type", seed=0)

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--db", str(tmp / "runs.db")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = server.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        check(match is not None, f"server banner announces a port "
                                 f"({banner.strip()!r})")
        if match is None:
            return 1
        client = ServiceClient(port=int(match.group(1)))
        check(client.health()["ok"] is True, "GET /health")

        first = client.wait(
            client.submit(write_aag(aig), design="m.aag")["id"],
            timeout=300)
        record = first["record"]
        check(record["status"] == "correct", "clean design verifies")
        check(record["cache_hit"] is False, "first verdict is fresh")
        check(bool(record.get("fingerprint")), "verdict is fingerprinted")

        again = client.submit(write_aag(iso), design="iso.aag")
        check(again["state"] == "done",
              "isomorphic resubmission completes inside the POST")
        check(again["record"]["cache_hit"] is True,
              "isomorphic resubmission is a cache hit")
        check(again["record"]["fingerprint"] == record["fingerprint"],
              "isomorphic rewrite maps to the same fingerprint")
        check(again["record"]["summary"] == record["summary"],
              "replayed verdict is identical")

        bad = client.wait(
            client.submit(write_aag(buggy), design="buggy.aag")["id"],
            timeout=300)
        check(bad["record"]["status"] == "buggy",
              "fault-injected variant verifies as buggy")
        check(bad["record"]["cache_hit"] is False,
              "fault-injected variant misses the cache")
        cex = bad["record"].get("counterexample") or {}
        check(cex.get("a") is not None and cex.get("b") is not None,
              f"buggy verdict carries a counterexample ({cex})")

        odd = client.wait(
            client.submit("aag 3 3 0 1 0\n2\n4\n6\n2\n",
                          design="odd.aag")["id"], timeout=300)
        check(odd["state"] == "done", "odd-input design ends done")
        check(odd["record"]["status"] == "invalid",
              "odd-input design is an invalid verdict")
        codes = [d.get("code") for d in odd["record"]["diagnostics"]]
        check(codes == ["RA030"], f"invalid verdict carries RA030 ({codes})")

        slow = client.submit(write_aag(generate_multiplier("SP-WT-CL", 8)),
                             design="slow.aag")
        # read the stream, then the state: a job still running after
        # the read had emitted those events while it ran
        while True:
            events = [event["ev"] for event in client.events(slow["id"])]
            state = client.job(slow["id"])["state"]
            if state in ("done", "failed") \
                    or (state == "running" and len(events) > 1):
                break
            time.sleep(0.01)
        check(state == "running" and "task_begin" in events,
              f"a running job's event stream is non-empty "
              f"({len(events)} event(s), job {state})")
        check(client.wait(slow["id"], timeout=300)["record"]["status"]
              == "correct", "the slower design verifies")

        stats = client.stats()
        check(stats["cache_hits"] == 1, "service counted one cache hit")
        check(stats["certificates"] == 3,
              "three certificates stored (clean + buggy + slow)")
        check(stats["jobs"]["failed"] == 0, "no failed jobs")

        content_type, metrics = client.metrics()
        check(content_type.startswith("text/plain"),
              f"GET /metrics answers 200 with text ({content_type})")
        runs = re.search(r"^repro_runs_total (\d+)$", metrics, re.M)
        check(runs is not None and int(runs.group(1)) >= 2,
              "metrics count the stored runs")
        check("\nrepro_service_cache_hits 1\n" in metrics,
              "metrics count one cache hit")

        client.shutdown()
        code = server.wait(timeout=120)
        check(code == 0, f"server drained and exited cleanly (rc={code})")
        with RunStore(str(tmp / "runs.db")) as store:
            check(store.runs(design="odd") == [],
                  "the invalid verdict wrote no run row")
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
            tail = server.stdout.read()
            print(f"--- server did not stop on its own; output:\n{tail}")

    if FAILURES:
        print(f"\nservice smoke: {len(FAILURES)} failure(s)")
        return 1
    print("\nservice smoke: all checks passed")
    return 0


if __name__ == "__main__":
    start = time.monotonic()
    rc = main()
    print(f"({time.monotonic() - start:.1f}s)")
    raise SystemExit(rc)
