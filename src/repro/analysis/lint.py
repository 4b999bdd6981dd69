"""Static analyzers over AIGs and gate netlists (design lint).

Checks are grouped in three tiers:

* **structural** (:func:`lint_aig`, :func:`lint_netlist`) — pure graph
  scans, O(nodes): cycles / topological-order violations, fan-in
  literals out of range, constant fan-ins that escaped structural
  hashing, duplicate AND nodes, unreachable logic, multiply-driven and
  undriven / floating wires, unknown cells vs. :mod:`repro.gates.library`;
* **interface** (:func:`check_multiplier_interface`) — operand/product
  port-width and ordering sanity for multiplier AIGs;
* **behavioural** (:func:`probe_multiplier`) — a cheap bit-parallel
  random-simulation probe that flags "this is not an n x m multiplier"
  *before* any polynomial work starts.  Unsigned and two's-complement
  products are both accepted, so signed (Baugh-Wooley / signed-Booth)
  designs probe clean.

:func:`lint_design` runs all tiers and is what ``repro lint`` calls;
:func:`preflight` runs only the structural + interface tiers and is the
cheap gate in front of ``repro verify`` and the benchmark harness (the
probe is deliberately excluded there: functional deviation is the
verifier's job, and its verdict comes with a counterexample).
"""

from __future__ import annotations

import random

from repro.aig.aig import lit_var
from repro.analysis.diagnostics import DiagnosticReport
from repro.core.spec import MULTIPLIER


# ----------------------------------------------------------------------
# AIG structural lint
# ----------------------------------------------------------------------

def lint_aig(aig, report=None):
    """Structural lint of an AIG; returns a :class:`DiagnosticReport`.

    Most of these conditions are unreachable through the :class:`Aig`
    construction API (structural hashing propagates constants and
    deduplicates nodes) — they catch hand-corrupted structures,
    deserialization bugs, and future refactoring mistakes.
    """
    if report is None:
        report = DiagnosticReport(subject=aig.name or "aig")
    num_vars = aig.num_vars
    seen_pairs = {}
    for v in aig.and_vars():
        f0, f1 = aig.fanins(v)
        for literal in (f0, f1):
            if not isinstance(literal, int) or literal < 0:
                report.add("RA014", f"node v{v} has invalid fan-in "
                                    f"{literal!r}", node=v)
                continue
            if lit_var(literal) >= num_vars:
                report.add("RA014", f"node v{v} reads undefined variable "
                                    f"v{lit_var(literal)}", node=v,
                           literal=literal)
            elif lit_var(literal) >= v:
                report.add("RA015", f"node v{v} reads v{lit_var(literal)} "
                                    "which is not strictly earlier in the "
                                    "topological order", node=v,
                           literal=literal)
        if isinstance(f0, int) and isinstance(f1, int) and f0 >= 0 and f1 >= 0:
            if lit_var(f0) == 0 or lit_var(f1) == 0:
                report.add("RA012", f"node v{v} has a constant fan-in "
                                    "(structural hashing should have "
                                    "propagated it)", node=v)
            key = (min(f0, f1), max(f0, f1))
            if key in seen_pairs:
                report.add("RA013", f"nodes v{seen_pairs[key]} and v{v} "
                                    f"compute the same AND {key}", node=v,
                           duplicate_of=seen_pairs[key])
            else:
                seen_pairs[key] = v
    if aig.num_outputs == 0:
        report.add("RA034", "design has no primary outputs")
    else:
        for idx, out in enumerate(aig.outputs):
            if not isinstance(out, int) or out < 0 or lit_var(out) >= num_vars:
                report.add("RA014", f"output {idx} is driven by invalid "
                                    f"literal {out!r}", output=idx)
    _lint_unreachable(aig, report)
    return report


def _lint_unreachable(aig, report):
    """Info-level notes for AND nodes unreachable from any output.

    Generated multipliers legitimately contain a few (discarded
    final-adder carry logic); ``repro.aig.ops.cleanup`` removes them, so
    this never dirties a design — it only explains node-count deltas.
    """
    from repro.aig.ops import reachable_vars

    keep = reachable_vars(aig)
    dead = [v for v in aig.and_vars() if v not in keep]
    if dead:
        report.add("RA011", f"{len(dead)} AND node(s) unreachable from the "
                            "outputs (cleanup would remove them)",
                   node=dead[0], count=len(dead))


# ----------------------------------------------------------------------
# Netlist structural lint
# ----------------------------------------------------------------------

def lint_netlist(netlist, report=None):
    """Structural lint of a gate-level netlist."""
    # Imported here, not at module level: repro.gates pulls in repro.opt
    # (techmap), which imports repro.gates back — loading this module
    # first would enter that cycle from the wrong side.
    from repro.gates.library import cell_truth_table, is_known_cell

    if report is None:
        report = DiagnosticReport(subject=netlist.name or "netlist")
    driven = {0: "constant"}
    for net in netlist.input_nets:
        if net in driven:
            report.add("RA021", f"input net n{net} already driven by "
                                f"{driven[net]}", wire=net)
        driven[net] = "input"
    for cell in netlist.cells:
        if not is_known_cell(cell.cell):
            try:
                cell_truth_table(cell.cell)
            except KeyError:
                report.add("RA022", f"cell {cell.name} instantiates "
                                    f"unknown library cell {cell.cell!r}",
                           wire=cell.output, cell=cell.cell)
                driven.setdefault(cell.output, cell.name)
                continue
        num_inputs, _tt = cell_truth_table(cell.cell)
        if len(cell.inputs) != num_inputs:
            report.add("RA024", f"cell {cell.name} ({cell.cell}) wants "
                                f"{num_inputs} inputs, got "
                                f"{len(cell.inputs)}", wire=cell.output,
                       cell=cell.cell)
        for net in cell.inputs:
            if net not in driven:
                report.add("RA025", f"cell {cell.name} reads undriven net "
                                    f"n{net} (or a net driven only later — "
                                    "cells must be topologically ordered)",
                           wire=net, cell=cell.cell)
        if cell.output in driven:
            report.add("RA021", f"net n{cell.output} driven by both "
                                f"{driven[cell.output]} and {cell.name}",
                       wire=cell.output)
        driven[cell.output] = cell.name
    used = set()
    for cell in netlist.cells:
        used.update(cell.inputs)
    for net, _inverted in netlist.outputs:
        used.add(net)
        if net not in driven:
            report.add("RA025", f"primary output reads undriven net n{net}",
                       wire=net)
    if not netlist.outputs:
        report.add("RA034", "netlist has no primary outputs")
    for cell in netlist.cells:
        if cell.output not in used:
            report.add("RA023", f"net n{cell.output} (driven by "
                                f"{cell.name}) is never read", wire=cell.output)
    return report


# ----------------------------------------------------------------------
# Multiplier interface checks
# ----------------------------------------------------------------------

def infer_widths(aig, width_a=None):
    """Infer (width_a, width_b) from port names or input count.

    Returns ``(width_a, width_b, from_names)``; ``(None, None, False)``
    when no consistent split exists.
    """
    names = aig.input_names
    a_names = [n for n in names if _is_word_bit(n, "a")]
    b_names = [n for n in names if _is_word_bit(n, "b")]
    if (a_names and b_names
            and len(a_names) + len(b_names) == len(names)):
        if width_a is None or width_a == len(a_names):
            return len(a_names), len(b_names), True
    if width_a is not None:
        width_b = aig.num_inputs - width_a
        if 0 < width_a and width_b > 0:
            return width_a, width_b, False
        return None, None, False
    if aig.num_inputs >= 2 and aig.num_inputs % 2 == 0:
        half = aig.num_inputs // 2
        return half, half, False
    return None, None, False


def _is_word_bit(name, prefix):
    return (name.startswith(prefix) and len(name) > len(prefix)
            and name[len(prefix):].isdigit())


def check_multiplier_interface(aig, width_a=None, report=None,
                               spec=MULTIPLIER):
    """Port-width / ordering sanity for an AIG claimed to be a
    multiplier — or whatever ``spec`` (a
    :class:`~repro.core.spec.Specification`, default the multiplier)
    claims, which sets the outputs the design must expose.  Returns
    ``(report, width_a, width_b)`` with the widths ``None`` when no
    consistent interface could be established."""
    if report is None:
        report = DiagnosticReport(subject=aig.name or "aig")
    if aig.num_inputs == 0:
        report.add("RA030", "design has no primary inputs")
        return report, None, None
    wa, wb, from_names = infer_widths(aig, width_a)
    if wa is None:
        if width_a is not None:
            report.add("RA030", f"operand split {width_a}+"
                                f"{aig.num_inputs - width_a} is impossible "
                                f"for {aig.num_inputs} inputs",
                       inputs=aig.num_inputs, width_a=width_a)
        else:
            report.add("RA030", f"cannot infer operand widths: "
                                f"{aig.num_inputs} inputs, no a*/b* port "
                                "names and an odd count",
                       inputs=aig.num_inputs)
        return report, None, None
    if from_names:
        expected = ([f"a{k}" for k in range(wa)]
                    + [f"b{k}" for k in range(wb)])
        if aig.input_names != expected:
            report.add("RA031", "input ports are named a*/b* but not "
                                "declared operand-A-first, LSB-first",
                       expected=expected[:4])
    message = spec.missing_outputs(aig.num_outputs, wa, wb)
    if message is not None:
        report.add("RA030", message, outputs=aig.num_outputs, width_a=wa,
                   width_b=wb)
        return report, None, None
    return report, wa, wb


# ----------------------------------------------------------------------
# Random-simulation probe
# ----------------------------------------------------------------------

def probe_multiplier(aig, width_a, width_b=None, rounds=4, width=256,
                     seed=0, report=None):
    """Flag a design whose simulated outputs are not ``a * b``.

    Bit-parallel random simulation (``rounds`` sweeps of ``width``
    patterns each) compares the output word against the unsigned and,
    failing that, the two's-complement product.  A mismatch under both
    interpretations yields an ``RA032`` error with a concrete witness
    pair.  This is probabilistic in the way fault-injection visibility
    is (:mod:`repro.genmul.faults` certifies faults visible under the
    same pattern volume); the SCA verifier remains the formal check.
    """
    from repro.aig.simulate import simulate

    if report is None:
        report = DiagnosticReport(subject=aig.name or "aig")
    if width_b is None:
        width_b = aig.num_inputs - width_a
    out_width = width_a + width_b
    modulus = 1 << out_width
    rng = random.Random(seed)
    unsigned_witness = None
    signed_witness = None
    for _ in range(rounds):
        patterns = [rng.getrandbits(width) for _ in range(aig.num_inputs)]
        outputs = simulate(aig, patterns, width)
        for k in range(width):
            a = _word_at(patterns[:width_a], k)
            b = _word_at(patterns[width_a:], k)
            got = _word_at(outputs[:out_width], k)
            if unsigned_witness is None and got != (a * b) % modulus:
                unsigned_witness = (a, b, got)
            if (signed_witness is None
                    and got != (_signed(a, width_a)
                                * _signed(b, width_b)) % modulus):
                signed_witness = (a, b, got)
            if unsigned_witness is not None and signed_witness is not None:
                a, b, got = unsigned_witness
                report.add(
                    "RA032",
                    f"outputs disagree with a*b: a={a} b={b} gave {got}, "
                    f"expected {(a * b) % modulus} (the two's-complement "
                    "interpretation disagrees too)",
                    a=a, b=b, got=got, width_a=width_a, width_b=width_b)
                return report
    if unsigned_witness is not None:
        report.add("RA032",
                   "outputs match the two's-complement product but not "
                   "the unsigned one — a signed multiplier "
                   "(verify with --signed)", severity="info",
                   width_a=width_a, width_b=width_b)
    return report


def _word_at(bit_vectors, k):
    word = 0
    for pos, vec in enumerate(bit_vectors):
        word |= ((vec >> k) & 1) << pos
    return word


def _signed(value, width):
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def preflight(aig, width_a=None, recorder=None, spec=MULTIPLIER):
    """The structural + interface tiers only — the cheap (O(nodes))
    gate run before verification; ``spec`` as for
    :func:`check_multiplier_interface`.  Returns the report; findings
    are streamed to ``recorder`` (when enabled) as ``diagnostic``
    events."""
    report = lint_aig(aig)
    check_multiplier_interface(aig, width_a, report=report, spec=spec)
    _record(recorder, report)
    return report


def lint_design(aig, width_a=None, probe=True, netlist=None, seed=0,
                recorder=None):
    """Full design lint: structure, interface, and (optionally) the
    random-simulation probe.  ``netlist`` adds the gate-level checks.
    Returns one merged :class:`DiagnosticReport`."""
    report = lint_aig(aig)
    report, wa, wb = check_multiplier_interface(aig, width_a, report=report)
    if netlist is not None:
        lint_netlist(netlist, report=report)
    if probe and wa is not None and not report.errors:
        probe_multiplier(aig, wa, wb, seed=seed, report=report)
    _record(recorder, report)
    return report


def _record(recorder, report):
    if recorder is not None and recorder.enabled:
        for diag in report.sorted():
            recorder.event("diagnostic", **diag.as_dict())
