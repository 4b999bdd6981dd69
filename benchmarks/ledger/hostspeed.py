"""Host-speed reference of the ledger's timings.

The ledger runs on a few cores of a shared host whose speed drifts: the
same child process takes 20-30% longer for minutes at a time, in CPU
time as much as in wall time, so no run length averages the drift out.
Every timed unit of work (a request, an input build, a warm-up) is
therefore bracketed by runs of a fixed reference child, and its wall
time is scaled by ``NOMINAL_S`` over the mean of the two reference runs
around it.  The result is in host-scaled seconds: the time the work
would take on a host where the reference takes ``NOMINAL_S``.

The reference is a small pure-Python program, started with
``python -S`` the way a request's interpreter starts, that multiplies
sparse polynomials with big-integer coefficients in dicts keyed by
bitmask monomials: the kind of work the program's rewriting does.  It
does not import the program, so no change to the program moves it.
Changing ``CODE`` or ``NOMINAL_S`` shifts every timing the ledger
reports, so neither may change between two runs that are compared.
"""

from __future__ import annotations

import os

NOMINAL_S = 0.035
CODE = """
def mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 | m2
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                del out[m]
    return out
p = {1 << i | 1 << (i + 7) % 40: 3 ** i << 64 for i in range(40)}
q = {1 << i * 3 % 40: -5 ** i for i in range(40)}
if len(mul(mul(p, q), q)) != 27460:
    raise SystemExit("reference result changed")
"""


def pin_to_one_cpu():
    """Run this process, and every child it starts from now on, on one
    CPU, so that a request and the reference runs around it share a
    core.  Does nothing where affinity cannot be set."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class HostSpeed:
    """Reference runs through ``children`` (a ``timed.Children``)."""

    def __init__(self, children):
        self._children = children
        self._log = children.workdir / "reference.log"
        self.samples = []
        self._last = self._measure()

    def _measure(self):
        wall, code, _rss = self._children.wait(
            self._children.spawn(["-S", "-c", CODE], self._log))
        if code != 0:
            raise RuntimeError(f"the host-speed reference failed: "
                               f"{self._log.read_text('utf-8')[-300:]!r}")
        self.samples.append(wall)
        return wall

    def scale(self):
        """Run the reference again; returns the factor that turns wall
        seconds of the work done since the previous reference run into
        host-scaled seconds."""
        before, self._last = self._last, self._measure()
        return NOMINAL_S / ((before + self._last) / 2)
