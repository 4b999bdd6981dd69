"""Exception hierarchy shared across the repro package.

Every error raised by this package carries

* a stable *error code* (``RA0xx`` structural / design-level, ``RP0xx``
  pipeline-level, see :mod:`repro.analysis.diagnostics` for the
  catalogue), and
* a structured ``context`` dict (node ids, line numbers, file paths —
  whatever locates the problem), so tools can consume failures without
  parsing message strings.

Classes that replace historical ad-hoc ``ValueError``/``KeyError``
raises inherit from both hierarchies (e.g. :class:`ConfigError` is a
``ValueError``), so existing ``except ValueError:`` callers keep
working.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``code`` is a stable machine-readable error code (class default,
    overridable per instance); ``context`` is a dict of structured
    fields locating the problem.
    """

    code = None

    def __init__(self, message, *, code=None, context=None, **fields):
        super().__init__(message)
        if code is not None:
            self.code = code
        self.context = dict(context) if context else {}
        self.context.update(fields)

    def as_dict(self):
        """JSON-ready record of this error (code, message, context)."""
        return {"code": self.code, "message": str(self),
                "context": dict(self.context)}


class AigError(ReproError):
    """Raised for malformed AIG structures or invalid literals."""

    code = "RA010"


class AigFormatError(AigError):
    """Raised for malformed AIGER files; ``context['line']`` is the
    1-based line number of the offending line when known."""

    code = "RA001"

    @property
    def line(self):
        return self.context.get("line")


class NetlistError(ReproError):
    """Raised for malformed gate-level netlists."""

    code = "RA020"


class UnknownCellError(NetlistError, KeyError):
    """Raised when a cell name is not in :mod:`repro.gates.library`.

    Also a ``KeyError`` for backward compatibility with lookup-style
    callers.
    """

    code = "RA022"

    def __str__(self):
        # KeyError.__str__ repr-quotes the message; keep it readable.
        return self.args[0] if self.args else ""


class GeneratorError(ReproError):
    """Raised when a multiplier generator receives invalid parameters."""

    code = "RA033"


class ConfigError(ReproError, ValueError):
    """Raised for invalid configuration values (unknown optimization
    script, benchmark scale, method name, ...).

    Also a ``ValueError`` for backward compatibility.
    """

    code = "RA040"


class ObsDataError(ReproError, ValueError):
    """Raised for observability data that cannot be read: a trace file
    without this build's format header, a trace event or run value whose
    field has the wrong type, or a run-history store file that is not a
    SQLite database of this build's schema.

    Carries no diagnostic code: it describes a recorded run, not a
    design or a verification.  Also a ``ValueError``, which is what the
    ``obs``, ``report`` and ``explain`` commands turn into exit 2.
    """


class PolynomialError(ReproError):
    """Raised for invalid polynomial operations."""

    code = "RP020"


class RuleError(PolynomialError, ValueError):
    """Raised when a vanishing rewrite rule is ill-formed.

    Also a ``ValueError`` for backward compatibility.
    """

    code = "RP002"


class VerificationError(ReproError):
    """Raised when verification cannot be carried out (not a buggy result)."""

    code = "RP000"


class DesignLintError(VerificationError):
    """Raised when pre-flight design lint finds blocking problems.

    ``report`` is the :class:`repro.analysis.DiagnosticReport` with the
    individual findings; the verifier raises this instead of crashing
    deep inside spec construction or rewriting.
    """

    code = "RA000"

    def __init__(self, message, *, report=None, **kwargs):
        super().__init__(message, **kwargs)
        self.report = report

    def as_dict(self):
        record = super().as_dict()
        if self.report is not None:
            record["diagnostics"] = self.report.as_dicts()
        return record


class PipelineInvariantError(VerificationError):
    """Raised when an internal pipeline invariant is violated
    (``--check-invariants``): component coverage, substitution-order
    legality, vanishing-table well-formedness, or an ``SP_i`` signature
    mismatch.  Always indicates a verifier bug, never a circuit bug.
    """

    code = "RP001"


class BudgetExceeded(VerificationError):
    """Raised when a rewriting engine exceeds its monomial or time budget.

    This is the reproduction's stand-in for the paper's 24 h time-out: a
    method that blows up is stopped as soon as the intermediate
    specification polynomial exceeds the configured monomial budget or the
    wall-clock budget.
    """

    code = "RP010"

    def __init__(self, message, *, kind="monomials", steps_done=0, max_size=0):
        super().__init__(message, context={"kind": kind,
                                           "steps_done": steps_done,
                                           "max_size": max_size})
        self.kind = kind
        self.steps_done = steps_done
        self.max_size = max_size
