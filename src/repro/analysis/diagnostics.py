"""Compiler-style diagnostics: codes, severities, locations, export.

A :class:`Diagnostic` is one finding — an error code from the stable
catalogue below, a severity, a human message, an optional location
(AIG node, netlist wire, or source line) and a structured context dict.
A :class:`DiagnosticReport` collects findings, decides a verdict, and
renders them as text, JSON, or a SARIF-style dict for machine
consumers (``repro lint --json`` / ``--sarif``).

Code ranges:

* ``RA00x`` — file-format problems (AIGER parsing),
* ``RA01x`` — AIG structural problems,
* ``RA02x`` — gate-netlist structural problems,
* ``RA03x`` — multiplier-interface / behavioural problems,
* ``RA04x`` — configuration problems,
* ``RP00x`` — pipeline invariants (``--check-invariants``),
* ``RP01x`` — budgets and runtime watchdogs (stalls, commit-level
  anomalies), ``RP02x`` — polynomial engine,
* ``RS0xx`` — architecture recognition and static cost prediction
  (``repro analyze``): ``RS00x`` recognition outcomes, ``RS01x``
  structural hazards, ``RS02x`` blow-up risk.

Codes are append-only: a released code never changes meaning.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field


class Severity:
    """Severity levels, ordered."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    ORDER = {ERROR: 0, WARNING: 1, INFO: 2}

    @classmethod
    def rank(cls, severity):
        return cls.ORDER[severity]


#: The stable error-code catalogue: code -> (default severity, title).
CODES = {
    # RA00x — file format
    "RA000": (Severity.ERROR, "design failed pre-flight lint"),
    "RA001": (Severity.ERROR, "malformed AIGER header or syntax"),
    "RA002": (Severity.ERROR, "truncated AIGER file"),
    "RA003": (Severity.ERROR, "AIGER literal out of range or undefined"),
    "RA004": (Severity.ERROR, "invalid AIGER definition"),
    "RA005": (Severity.ERROR, "unreadable AIGER file"),
    # RA01x — AIG structure
    "RA010": (Severity.ERROR, "malformed AIG structure"),
    "RA011": (Severity.INFO, "unreachable AND node"),
    "RA012": (Severity.ERROR, "constant fan-in survived construction"),
    "RA013": (Severity.ERROR, "structurally duplicate AND nodes"),
    "RA014": (Severity.ERROR, "fan-in literal out of range"),
    "RA015": (Severity.ERROR, "combinational cycle / topological-order "
                              "violation"),
    # RA02x — gate netlist
    "RA020": (Severity.ERROR, "malformed gate netlist"),
    "RA021": (Severity.ERROR, "net driven more than once"),
    "RA022": (Severity.ERROR, "unknown library cell"),
    "RA023": (Severity.WARNING, "floating (driven but unused) net"),
    "RA024": (Severity.ERROR, "cell arity mismatch"),
    "RA025": (Severity.ERROR, "cell or output reads undriven net"),
    # RA03x — multiplier interface / behaviour
    "RA030": (Severity.ERROR, "operand widths inconsistent with ports"),
    "RA031": (Severity.WARNING, "input ports not in a..b LSB-first order"),
    "RA032": (Severity.ERROR, "simulation probe: not an n x m multiplier"),
    "RA033": (Severity.ERROR, "invalid generator parameters"),
    "RA034": (Severity.ERROR, "design has no outputs"),
    # RA04x — configuration
    "RA040": (Severity.ERROR, "invalid configuration value"),
    # RP00x — pipeline invariants
    "RP000": (Severity.ERROR, "verification could not be carried out"),
    "RP001": (Severity.ERROR, "atomic-block / cone coverage inconsistent"),
    "RP002": (Severity.ERROR, "vanishing-rule table ill-formed"),
    "RP003": (Severity.ERROR, "substitution order illegal"),
    "RP004": (Severity.ERROR, "SP_i signature spot-check failed"),
    "RP005": (Severity.ERROR, "remainder references internal variables"),
    # RP01x / RP02x — budgets and the polynomial engine
    "RP010": (Severity.ERROR, "monomial or time budget exceeded"),
    "RP011": (Severity.WARNING, "rewriting stalled: no commit within the "
                                "stall budget"),
    "RP012": (Severity.WARNING, "commit-level SP_i growth outlier"),
    "RP013": (Severity.WARNING, "SP_i exceeded the per-design history "
                                "baseline"),
    "RP020": (Severity.ERROR, "invalid polynomial operation"),
    # RS00x — architecture recognition (repro analyze)
    "RS001": (Severity.INFO, "multiplier architecture recognized"),
    "RS002": (Severity.INFO, "architecture analysis inconclusive"),
    # RS01x — structural hazards found by the recognizer
    "RS010": (Severity.WARNING, "stage-boundary smearing detected"),
    "RS011": (Severity.WARNING, "low atomic-block coverage"),
    "RS012": (Severity.INFO, "low-confidence stage classification"),
    "RS013": (Severity.WARNING, "partial products bypass the "
                                "accumulator"),
    # RS02x — static cost prediction
    "RS020": (Severity.WARNING, "high static blow-up risk"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding.

    ``node`` locates an AIG variable, ``wire`` a netlist net id,
    ``line`` a 1-based source line of a parsed file; any may be None.
    ``context`` carries additional structured fields.
    """

    code: str
    message: str
    severity: str = None
    node: int = None
    wire: int = None
    line: int = None
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", CODES[self.code][0])
        elif self.severity not in Severity.ORDER:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def title(self):
        return CODES[self.code][1]

    def location(self):
        """Human-readable location string ('' when unlocated)."""
        parts = []
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.node is not None:
            parts.append(f"v{self.node}")
        if self.wire is not None:
            parts.append(f"n{self.wire}")
        return ", ".join(parts)

    def render(self):
        where = self.location()
        where = f" [{where}]" if where else ""
        return f"{self.code} {self.severity}{where}: {self.message}"

    def as_dict(self):
        record = {"code": self.code, "severity": self.severity,
                  "message": self.message}
        for key in ("node", "wire", "line"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        if self.context:
            record["context"] = dict(self.context)
        return record


class DiagnosticReport:
    """An ordered collection of findings for one design or run.

    The *verdict* is ``clean`` when no error- or warning-level finding
    is present (info-level notes — e.g. unreachable nodes that
    ``cleanup`` would remove — do not dirty a design).
    """

    def __init__(self, subject=""):
        self.subject = subject
        self.diagnostics = []

    def add(self, code, message, **fields):
        """Append a finding; ``fields`` go to the Diagnostic ctor
        (``severity=`` overrides the catalogue default, ``node=`` /
        ``wire=`` / ``line=`` locate it, everything else lands in
        ``context``)."""
        known = {key: fields.pop(key)
                 for key in ("severity", "node", "wire", "line")
                 if key in fields}
        diag = Diagnostic(code=code, message=message, context=fields,
                          **known)
        self.diagnostics.append(diag)
        return diag

    def extend(self, other):
        self.diagnostics.extend(other.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __len__(self):
        return len(self.diagnostics)

    def __bool__(self):
        return bool(self.diagnostics)

    def by_severity(self, severity):
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self):
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self):
        return self.by_severity(Severity.WARNING)

    @property
    def findings(self):
        """Error- and warning-level diagnostics (what dirties a design)."""
        return [d for d in self.diagnostics
                if d.severity in (Severity.ERROR, Severity.WARNING)]

    @property
    def clean(self):
        return not self.findings

    @property
    def verdict(self):
        return "clean" if self.clean else "dirty"

    def counts(self):
        counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
        for diag in self.diagnostics:
            counts[diag.severity] += 1
        return counts

    def sorted(self):
        """Diagnostics ordered by severity, then code, then location."""
        return sorted(self.diagnostics,
                      key=lambda d: (Severity.rank(d.severity), d.code,
                                     d.line or 0, d.node or 0, d.wire or 0))

    # ------------------------------------------------------------------
    # Rendering / export
    # ------------------------------------------------------------------

    def render(self):
        """Multi-line human-readable report."""
        head = f"{self.subject}: " if self.subject else ""
        counts = self.counts()
        lines = [f"{head}{self.verdict} "
                 f"({counts['error']} errors, {counts['warning']} warnings, "
                 f"{counts['info']} notes)"]
        for diag in self.sorted():
            lines.append("  " + diag.render())
        return "\n".join(lines)

    def as_dicts(self):
        return [diag.as_dict() for diag in self.sorted()]

    def as_dict(self):
        return {"subject": self.subject, "verdict": self.verdict,
                "counts": self.counts(), "diagnostics": self.as_dicts()}

    def to_json(self, path=None, indent=2):
        """Serialize to JSON text, optionally writing it to ``path``."""
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def to_sarif(self):
        """A SARIF-style dict (static-analysis interchange shape).

        Follows the SARIF 2.1.0 skeleton — tool / rules / results with
        level and logical locations — without claiming full schema
        conformance; enough for SARIF-aware viewers and diffing.
        """
        rules = {}
        results = []
        for diag in self.sorted():
            rules.setdefault(diag.code, {
                "id": diag.code,
                "shortDescription": {"text": diag.title},
            })
            level = {"error": "error", "warning": "warning",
                     "info": "note"}[diag.severity]
            result = {
                "ruleId": diag.code,
                "level": level,
                "message": {"text": diag.message},
            }
            location = diag.location()
            if location:
                result["locations"] = [{
                    "logicalLocations": [{"name": location}]}]
            results.append(result)
        return {
            "version": "2.1.0",
            "runs": [{
                "tool": {"driver": {
                    "name": "repro-lint",
                    "rules": list(rules.values()),
                }},
                "results": results,
            }],
        }


def report_from_error(error, subject=""):
    """Fold a typed :class:`repro.errors.ReproError` into a one-finding
    report (used when parsing itself fails)."""
    report = DiagnosticReport(subject=subject)
    code = getattr(error, "code", None) or "RA010"
    if code not in CODES:
        code = "RA010"
    context = dict(getattr(error, "context", {}) or {})
    line = context.pop("line", None)
    node = context.pop("node", None)
    report.add(code, str(error), line=line, node=node, **context)
    inner = getattr(error, "report", None)
    if inner is not None:
        report.extend(inner)
    return report
