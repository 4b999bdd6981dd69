"""Traced run: the per-layer numbers behind the end-to-end ledger.

For every design the traced run covers (``pools.traced_designs``) and
every ring its workload uses, it times, in order:

1. ``read_aag`` of the design's AAG file;
2. an untraced ``Pipeline(cfg).run(aig)``;
3. a traced ``Pipeline(cfg).run(aig, recorder=Recorder())``, whose
   existing spans give the per-stage split;
4. the persistence calls of a service job against a temporary
   ``RunStore``: ``design_fingerprint``, ``cache_store``,
   ``cache_lookup`` and ``ingest_verify_records``;
5. the same request through a ``repro verify`` child, for the CLI's
   own share of the wall time;
6. on workloads that ask for it, a ``record_certificate=True`` run and
   ``check_certificate`` with a fixed monomial budget.

Only public calls and spans the pipeline already emits are used.  The
service-mix workload also sends its traced designs to a ``repro serve``
child and reads the job timestamps and events.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.aig.aiger import read_aag
from repro.aig.ops import cleanup
from repro.core.certificate import CertificateError, check_certificate
from repro.core.pipeline import Pipeline, VerifyConfig
from repro.errors import BudgetExceeded
from repro.obs.recorder import Recorder
from repro.obs.store import RunStore
from repro.service.client import ServiceError
from repro.service.fingerprint import design_fingerprint
from repro.service.persistence import (cache_lookup, cache_store,
                                       ingest_verify_records, verdict_record)

from designs import Inputs, counterexample_holds, timed_call
from pools import WORKLOADS, traced_designs
from timed import (Server, cli_problem, cli_verify, service_cold,
                   service_hit)

STAGES = ("spec", "atomic", "vanishing", "components", "implications")
# Rule-free certificate replay can outgrow the rewriter's SP_i; a replay
# that passes this many monomials is counted as over budget.
CERT_BUDGET = 200_000
STARTUP_PROBES = 5
CLI_HIT_PROBES = 5
VET_CAP_S = 6.0


def _rewrite_by_ring(events):
    """Rewrite seconds by ring kind: each ``rewrite`` span follows the
    ``ring`` event that started it."""
    rewrite = {"exact": 0.0, "modular": 0.0}
    ring = "exact"
    for event in events:
        if event.get("ev") == "ring":
            ring = "exact" if event.get("modulus") is None else "modular"
        elif event.get("ev") == "span" and event.get("path") == "rewrite":
            rewrite[ring] += event["dur"]
    return rewrite


def trace_design(children, inputs, design, ring, store, db, persist,
                 certificates):
    """All per-layer measurements of one (design, ring); returns
    ``(row, problems)``."""
    path = inputs.paths[design]
    problems = []
    aig, read_s = timed_call(read_aag, str(path))
    config = VerifyConfig(ring=ring)
    plain, untraced_s = timed_call(Pipeline(config).run, aig)
    recorder = Recorder()
    traced, traced_s = timed_call(Pipeline(config).run, aig, recorder=recorder)
    for kind, result in (("untraced", plain), ("traced", traced)):
        if result.status != design.expected:
            problems.append(f"{kind} verdict {result.status!r}, expected "
                            f"{design.expected!r}")
    for key in ("steps", "max_poly_size"):
        if plain.stats.get(key) != traced.stats.get(key):
            problems.append(f"traced and untraced runs disagree on {key}")
    if traced.status == "buggy" and not counterexample_holds(
            aig, traced.stats["counterexample_a"],
            traced.stats["counterexample_b"]):
        problems.append("counterexample does not re-simulate")
    spans = {path: seconds for path, seconds in recorder.span_totals.items()
             if "." not in path}
    stats = traced.stats
    row = {
        "design": design.label, "ring": ring, "status": traced.status,
        "read_aag_s": read_s, "untraced_s": untraced_s,
        "traced_s": traced_s, "spans": spans,
        "ring_rewrite_s": _rewrite_by_ring(recorder.events),
        "unattributed_s": traced_s - sum(spans.values()),
        **{key: stats.get(key, 0) for key in (
            "steps", "attempts", "backtracks", "max_poly_size",
            "vanishing_removed", "compact_hits", "compact_misses",
            "primes_tried", "escalations")},
        "remainder_monomials": (len(traced.remainder)
                                if traced.status == "buggy" else 0),
    }

    if persist:
        fingerprint, row["fingerprint_s"] = timed_call(design_fingerprint, aig)
        record = verdict_record(traced, recorder, fingerprint=fingerprint)
        _, row["cache_store_s"] = timed_call(cache_store, store, fingerprint,
                                         record, design=design.label)
        hit, row["cache_lookup_s"] = timed_call(cache_lookup, store,
                                            fingerprint)
        if hit is None or hit.get("status") != traced.status:
            problems.append("certificate cache did not replay the verdict")
        _, row["ingest_s"] = timed_call(ingest_verify_records, [record], db)

    wall, code, text, _rss = cli_verify(children, path, ring)
    row["cli_s"] = wall
    problem = cli_problem(design, aig, code, text)
    if problem:
        problems.append(f"CLI: {problem}")

    if certificates and ring == "exact":
        result = Pipeline(dataclasses.replace(
            config, record_certificate=True)).run(aig)
        if result.status != design.expected:
            problems.append(f"certificate run verdict {result.status!r}")
        start = time.perf_counter()
        row["certificate_over_budget"] = 0
        try:
            check_certificate(cleanup(aig), result.stats["certificate"],
                              monomial_budget=CERT_BUDGET)
        except BudgetExceeded:
            row["certificate_over_budget"] = 1
        except CertificateError as exc:
            problems.append(f"certificate rejected: {exc}")
        row["certificate_check_s"] = time.perf_counter() - start
    return row, problems


def trace_service(children, spec, inputs, designs, problems):
    """Send ``designs`` cold, each followed by a renumbered resubmission,
    to a fresh ``repro serve`` child; returns one row per cold job."""
    def text(path):
        return path.read_text(encoding="ascii")

    rows = []
    server = Server(children, children.workdir / "traced-service.db")
    try:
        service_cold(server, spec.warmup, text(inputs.paths[spec.warmup]),
                      inputs.aigs[spec.warmup])
        for design in designs:
            aig = inputs.aigs[design]
            _seconds, post_s, job, problem = service_cold(
                server, design, text(inputs.paths[design]), aig)
            if job is None:
                problems.append(f"{design.label} (service): {problem}")
                continue
            record = job.get("record") or {}
            events = server.client.events(job["id"])
            hit_s, hit_problem = service_hit(
                server, design, text(inputs.copies[(design, 0)]), aig,
                record)
            if problem or hit_problem:
                problems.append(f"{design.label} (service): "
                                f"{problem or hit_problem}")
            rows.append({
                "design": design.label, "post_s": post_s,
                "queue_wait_s": job["started_at"] - job["submitted_at"],
                "worker_s": job["finished_at"] - job["started_at"],
                "pipeline_s": record.get("seconds", 0.0),
                "stage_map_s": sum(ev.get("dur", 0.0) for ev in events
                                   if ev.get("ev") == "span"
                                   and ev.get("name") == "stage_map"),
                "hit_s": hit_s, "hit": hit_problem is None,
            })
    except (OSError, ServiceError) as exc:
        problems.append(f"service: request failed: {exc}")
    finally:
        server.stop()
    return rows


def cli_db_hit_s(children, spec, inputs, problems):
    """Median wall time of a ``repro verify --db`` cache hit: the warm-up
    design is verified into a fresh store, then renumbered copies of it
    are resubmitted."""
    db = children.workdir / "traced-cli.db"
    design = spec.warmup
    aig = inputs.aigs[design]
    walls = []
    for copy in range(-1, CLI_HIT_PROBES):
        path = (inputs.paths[design] if copy < 0
                else inputs.add_copy(design, copy))
        wall, code, text, _rss = cli_verify(children, path, db=db)
        problem = cli_problem(design, aig, code, text, hit=copy >= 0)
        if problem:
            problems.append(f"{design.label} (CLI --db): {problem}")
        if copy >= 0:
            walls.append(wall)
    return statistics.median(walls)


def cli_startup_s(children):
    """Median wall time of ``python -c 'import repro.cli'``."""
    out = children.workdir / "startup.log"
    return statistics.median(
        children.wait(children.spawn(["-c", "import repro.cli"], out))[0]
        for _ in range(STARTUP_PROBES))


def layer_metrics(rows, service_rows, inputs, startup_s, db_hit_s):
    """Fold the traced rows into named per-layer metrics; a metric that
    does not apply to the workload is left out."""
    def total(key):
        return sum(row[key] for row in rows)

    def span(name):
        return sum(row["spans"].get(name, 0.0) for row in rows)

    def median_ms(key):
        return 1000 * statistics.median(row[key] for row in rows
                                        if key in row)

    cli = total("cli_s")
    in_process = total("read_aag_s") + total("untraced_s")
    traced = total("traced_s")
    metrics = {
        "cli.startup_s": (startup_s, "s"),
        "cli.overhead_frac": ((cli - in_process) / cli, "fraction"),
        "cli.db_hit_s": (db_hit_s, "s"),
        "aig.read_aag_s": (total("read_aag_s"), "s"),
        "analysis.preflight_s": (span("preflight"), "s"),
        **{f"core.{stage}_s": (span(stage), "s") for stage in STAGES},
        "core.rewrite_s": (span("rewrite"), "s"),
        "core.rewrite.steps": (total("steps"), "count"),
        "core.rewrite.attempts": (total("attempts"), "count"),
        "core.rewrite.commit_frac": (total("steps") / total("attempts"),
                                     "fraction"),
        "core.rewrite.backtracks": (total("backtracks"), "count"),
        "core.rewrite.peak_monomials": (
            max(row["max_poly_size"] for row in rows), "count"),
        "core.vanishing.removed": (total("vanishing_removed"), "count"),
        "core.components.compact_hit_frac": (
            total("compact_hits")
            / max(1, total("compact_hits") + total("compact_misses")),
            "fraction"),
        "core.unattributed_s": (total("unattributed_s"), "s"),
        "core.unattributed_frac": (total("unattributed_s") / traced,
                                   "fraction"),
        "service.fingerprint_ms": (median_ms("fingerprint_s"), "ms"),
        "service.cache_lookup_ms": (median_ms("cache_lookup_s"), "ms"),
        "service.cache_store_ms": (median_ms("cache_store_s"), "ms"),
        "obs.store.ingest_ms": (median_ms("ingest_s"), "ms"),
        "obs.trace_overhead_frac": (traced / total("untraced_s") - 1,
                                    "fraction"),
        "obs.stage_map_s": (span("stage_map"), "s"),
        "genmul.generate_s": (inputs.layer_s["genmul.generate_s"], "s"),
        "opt.optimize_s": (inputs.layer_s["opt.optimize_s"], "s"),
    }
    if any(row["status"] == "buggy" for row in rows):
        metrics["core.remainder_monomials"] = (total("remainder_monomials"),
                                               "count")
        metrics["genmul.inject_s"] = (inputs.layer_s["genmul.inject_s"],
                                      "s")
    modular = [row for row in rows if row["ring"] != "exact"]
    if modular:
        metrics.update({
            "poly.ring.exact_rewrite_s": (
                sum(row["ring_rewrite_s"]["exact"] for row in rows), "s"),
            "poly.ring.modular_rewrite_s": (
                sum(row["ring_rewrite_s"]["modular"] for row in rows), "s"),
            "poly.ring.primes_tried": (
                sum(row["primes_tried"] for row in modular), "count"),
            "poly.ring.escalations": (
                sum(row["escalations"] for row in modular), "count"),
        })
    checked = [row for row in rows if "certificate_check_s" in row]
    if checked:
        check_s = sum(row["certificate_check_s"] for row in checked)
        rewrite_s = sum(row["spans"].get("rewrite", 0.0) for row in checked)
        metrics.update({
            "core.certificate.check_s": (check_s, "s"),
            "core.certificate.check_ratio": (check_s / rewrite_s, "ratio"),
            "core.certificate.over_budget": (
                sum(row["certificate_over_budget"] for row in checked),
                "count"),
        })
    if service_rows:
        def service_total(key):
            return sum(row[key] for row in service_rows)

        worker = service_total("worker_s")
        metrics.update({
            "service.post_ms": (1000 * statistics.median(
                row["post_s"] for row in service_rows), "ms"),
            "service.queue_wait_s": (service_total("queue_wait_s"), "s"),
            "service.worker_s": (worker, "s"),
            "service.dispatch_overhead_s": (
                worker - service_total("pipeline_s"), "s"),
            "service.hit_frac": (
                sum(row["hit"] for row in service_rows)
                / (2 * len(service_rows)), "fraction"),
            "service.stage_map_s": (service_total("stage_map_s"), "s"),
            "service.stage_map_frac": (service_total("stage_map_s") / worker,
                                       "fraction"),
        })
    return metrics


def run_traced(spec, seed, children):
    """Set up and run one workload's traced pass; returns its result."""
    inputs = Inputs(children.workdir, seed)
    inputs.add_workload(spec)
    # the first run in a process pays the pipeline's lazy imports
    warmup = read_aag(str(inputs.paths[spec.warmup]))
    Pipeline(VerifyConfig()).run(warmup, recorder=Recorder())
    problems = []
    startup_s = cli_startup_s(children)
    db_hit_s = cli_db_hit_s(children, spec, inputs, problems)
    db = children.workdir / "traced.db"
    rows = []
    designs = traced_designs(spec.name, seed)
    with RunStore(db) as store:
        for design in designs:
            for index, ring in enumerate(spec.rings):
                row, found = trace_design(children, inputs, design, ring,
                                          store, db, persist=index == 0,
                                          certificates=spec.certificates)
                rows.append(row)
                problems += [f"{design.label} @{ring}: {problem}"
                             for problem in found]
    service_rows = []
    if spec.front_end == "service":
        service_rows = trace_service(children, spec, inputs, designs,
                                     problems)
    return {
        "attempted": len(rows) + len(service_rows),
        "failed": len(problems),
        "metrics": layer_metrics(rows, service_rows, inputs, startup_s,
                                 db_hit_s),
        "failures": problems,
        "rows": rows,
        "service_rows": service_rows,
    }


def vet(workdir):
    """Time every pool member in-process with the default config; prints
    a table and returns the number of members that are wrong or slower
    than ``VET_CAP_S``."""
    inputs = Inputs(workdir, seed=0)
    seen = set()
    bad = 0
    print("| workload | design | ring | seconds | verdict |")
    print("|---|---|---|---:|---|")
    for name, spec in WORKLOADS.items():
        for design in spec.pool:
            for ring in spec.rings:
                if (design, ring) in seen:
                    continue
                seen.add((design, ring))
                aig = read_aag(str(inputs.add(design)))
                result, seconds = timed_call(
                    Pipeline(VerifyConfig(ring=ring)).run, aig)
                flag = ""
                if result.status != design.expected or seconds > VET_CAP_S:
                    bad += 1
                    flag = " **FAIL**"
                print(f"| {name} | {design.label} | {ring} | {seconds:.3f} "
                      f"| {result.status}{flag} |", flush=True)
    return bad
