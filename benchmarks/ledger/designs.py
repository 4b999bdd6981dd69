"""Set-up of a ledger run: build pool designs and the correctness oracle.

Designs are built from their pool descriptions with the program's own
generators (``generate_multiplier``, ``optimize``,
``inject_visible_fault``) and written with ``write_aag``; the time each
layer takes is accumulated so the traced run can report it.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path

from repro.aig.aig import Aig, lit_var
from repro.aig.aiger import write_aag
from repro.aig.simulate import simulate
from repro.genmul.faults import inject_visible_fault
from repro.genmul.multiplier import generate_multiplier
from repro.industrial import designware_like_multiplier
from repro.opt.scripts import optimize

from pools import Design, renumber_seed


def renumbered_copy(aig, seed):
    """An isomorphic rebuild of ``aig`` with a seeded topological
    insertion order, so every AND variable gets a new number while the
    interface stays in place.  The certificate cache must treat it as
    the same design."""
    rng = random.Random(seed)
    out = Aig(aig.name)
    literal = {0: 0}
    for var, name in zip(aig.inputs, aig.input_names):
        literal[var] = out.add_input(name)
    waiting = {}
    fanouts = {}
    for var in aig.and_vars():
        deps = {lit_var(f) for f in aig.fanins(var)
                if aig.is_and(lit_var(f))}
        waiting[var] = len(deps)
        for dep in deps:
            fanouts.setdefault(dep, []).append(var)
    ready = [var for var, count in waiting.items() if count == 0]
    while ready:
        index = rng.randrange(len(ready))
        ready[index], ready[-1] = ready[-1], ready[index]
        var = ready.pop()
        f0, f1 = aig.fanins(var)
        literal[var] = out.add_and(literal[lit_var(f1)] ^ (f1 & 1),
                                   literal[lit_var(f0)] ^ (f0 & 1))
        for user in fanouts.get(var, ()):
            waiting[user] -= 1
            if waiting[user] == 0:
                ready.append(user)
    for lit, name in zip(aig.outputs, aig.output_names):
        out.add_output(literal[lit_var(lit)] ^ (lit & 1), name)
    return out


class Inputs:
    """The designs of one run, as AIGs and AAG files under ``workdir``,
    plus the set-up time spent in each layer."""

    def __init__(self, workdir, seed):
        self.dir = Path(workdir)
        self.seed = seed
        self.aigs = {}
        self.paths = {}
        self.copies = {}
        self.layer_s = {"genmul.generate_s": 0.0, "opt.optimize_s": 0.0,
                        "genmul.inject_s": 0.0}

    def _timed(self, key, fn, *args, **kwargs):
        value, seconds = timed_call(fn, *args, **kwargs)
        self.layer_s[key] += seconds
        return value

    def _aig(self, design):
        if design in self.aigs:
            return self.aigs[design]
        if design.fault:
            aig = self._timed("genmul.inject_s", inject_visible_fault,
                              self._aig(design.base), kind=design.fault,
                              seed=design.fault_seed)
        elif design.opt != "none":
            aig = self._timed("opt.optimize_s", optimize,
                              self._aig(Design(design.arch, design.width)),
                              design.opt)
        elif design.arch == "DesignWare-like":
            aig = self._timed("genmul.generate_s",
                              designware_like_multiplier, design.width)
        else:
            aig = self._timed("genmul.generate_s", generate_multiplier,
                              design.arch, design.width)
        self.aigs[design] = aig
        return aig

    def add(self, design):
        """Build ``design`` (and the designs it derives from) and write
        its AAG file; returns the path."""
        if design not in self.paths:
            path = self.dir / (_slug(design.label) + ".aag")
            write_aag(self._aig(design), path)
            self.paths[design] = path
        return self.paths[design]

    def add_workload(self, spec):
        """Build everything a timed run of workload ``spec`` submits."""
        for design in (*spec.pool, spec.warmup):
            self.add(design)
        if spec.front_end == "service":
            for design in spec.pool:
                self.add_copy(design, 0)

    def add_copy(self, design, copy):
        """Write renumbered copy number ``copy`` of ``design``."""
        key = (design, copy)
        if key not in self.copies:
            aig = renumbered_copy(self._aig(design),
                                  renumber_seed(self.seed, design, copy))
            path = self.dir / f"{_slug(design.label)}.copy{copy}.aag"
            write_aag(aig, path)
            self.copies[key] = path
        return self.copies[key]


def timed_call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time: ``(value, seconds)``."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _slug(label):
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def counterexample_holds(aig, a_value, b_value):
    """True when the design's output on ``a``, ``b`` differs from the
    product, so the counterexample really witnesses a bug (unsigned
    operands, ``a`` on the first half of the inputs)."""
    width_a = aig.num_inputs // 2
    bits = [(a_value >> k) & 1 for k in range(width_a)]
    bits += [(b_value >> k) & 1 for k in range(aig.num_inputs - width_a)]
    outputs = simulate(aig, bits, width=1)
    value = sum((bit & 1) << k for k, bit in enumerate(outputs))
    return value != (a_value * b_value) % (1 << aig.num_outputs)
