#!/usr/bin/env python3
"""Reproduce the paper's worked examples interactively.

Walks through Fig. 1/Fig. 2 (the 2x2 multiplier and its backward
rewriting), Example 6 (occurrence-count heuristic) and Example 7
(backtracking), printing each intermediate polynomial.

Run:  python examples/paper_figures.py
"""

from repro import generate_multiplier
from repro.aig.ops import cleanup
from repro.core.atomic import detect_atomic_blocks
from repro.core.cones import build_components
from repro.core.dynamic import dynamic_backward_rewriting
from repro.core.rewriting import RewritingEngine
from repro.core.spec import multiplier_specification
from repro.poly import VariablePool, parse_polynomial


def fig_1_and_2():
    print("== Fig. 1 / Fig. 2: the 2x2 multiplier ==")
    aig = cleanup(generate_multiplier("SP-AR-RC", 2))
    print(f"AIG: {aig.num_ands} AND nodes")
    blocks = detect_atomic_blocks(aig)
    components, vanishing = build_components(aig, blocks)
    spec = multiplier_specification(aig, 2, 2)
    print(f"SP  = {spec}")
    engine = RewritingEngine(spec, components, vanishing)
    step = 0
    while not engine.finished():
        counts = engine.occurrence_counts()
        index = min(counts, key=lambda i: (counts[i], i))
        comp = engine.components[index]
        engine.commit(index, engine.attempt(index))
        step += 1
        print(f"SP_{step} (after {comp.describe()}): {engine.remainder()}")
    remainder = engine.remainder()
    print(f"remainder = {remainder}  -> "
          f"{'CORRECT' if remainder.is_zero() else 'BUGGY'}\n")


def example_6():
    print("== Example 6: substitution order matters ==")
    pool = VariablePool()
    p, pool = parse_polynomial("a + 4*a*b*c - 2*a*d - 2*a*d*c", pool)
    names = pool.names()
    rep_a, pool = parse_polynomial("x + y + z + x*z", pool)
    print(f"P = {p.to_string(names)}")
    grown = p.substitute(pool["a"], rep_a)
    print(f"substituting a (4 occurrences) first: {len(grown)} monomials")
    q = p.substitute(pool["b"], parse_polynomial("x*y", pool)[0])
    q = q.substitute(pool["c"], parse_polynomial("x*z", pool)[0])
    q = q.substitute(pool["d"], parse_polynomial("x*y*z", pool)[0])
    print(f"substituting b, c, d first collapses P to: "
          f"{q.to_string(pool.names())}")
    q = q.substitute(pool["a"], rep_a)
    print(f"then a: {len(q)} monomials (never exceeded 4)\n")


def example_7():
    print("== Example 7: why backtracking is needed ==")
    pool = VariablePool()
    p, pool = parse_polynomial("a*b*x + a*b*y - 2*a*b*x*y + a*b + a", pool)
    rep_b, pool = parse_polynomial("m + n - m*n", pool)
    rep_a, pool = parse_polynomial("x*y", pool)
    after_b = p.substitute(pool["b"], rep_b)
    after_a = p.substitute(pool["a"], rep_a)
    print(f"P = {p.to_string(pool.names())}")
    print(f"b first (fewer occurrences): {len(after_b)} monomials "
          f"-> threshold rejects this substitution")
    print(f"a first (after backtracking): {len(after_a)} monomials")
    print(f"final sizes agree: "
          f"{len(after_b.substitute(pool['a'], rep_a))} vs "
          f"{len(after_a.substitute(pool['b'], rep_b))}\n")


def main():
    fig_1_and_2()
    example_6()
    example_7()


if __name__ == "__main__":
    main()
