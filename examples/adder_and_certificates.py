#!/usr/bin/env python3
"""Beyond multipliers: adder verification and proof certificates.

1. Builds each final-stage adder architecture standalone and verifies it
   through the same pipeline as the multipliers, under the adder
   specification ``(A + B) mod 2**W``, with a certificate that the
   independent checker re-validates.
2. Verifies a multiplier with certificate recording and re-checks the
   certificate with the independent, machinery-free checker, printing
   the checker's typed outcome: its rule-free replay of the SP-WT-KS 6
   run passes the replay's monomial budget.

Run:  python examples/adder_and_certificates.py
"""

from repro.aig.aig import Aig
from repro.aig.ops import cleanup
from repro.core.certificate import check_certificate
from repro.core.pipeline import Pipeline, VerifyConfig
from repro.errors import ReproError
from repro.genmul import generate_multiplier
from repro.genmul.fsa import FSA_BUILDERS


def checker_outcome(aig, certificate):
    """``ACCEPTED``, or the checker's typed error as ``Kind: message``."""
    try:
        check_certificate(cleanup(aig), certificate)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ACCEPTED"


def verify_all_adders(width=6):
    print(f"== verifying all {width}-bit final-stage adders ==")
    pipeline = Pipeline(VerifyConfig(spec="adder", record_certificate=True,
                                     monomial_budget=500_000))
    for name in sorted(FSA_BUILDERS):
        aig = Aig(f"{name}_{width}")
        a_bits = aig.add_inputs(width, prefix="a")
        b_bits = aig.add_inputs(width, prefix="b")
        for bit in FSA_BUILDERS[name](aig, a_bits, b_bits):
            aig.add_output(bit)
        result = pipeline.run(aig)
        outcome = checker_outcome(aig, result.stats["certificate"])
        print(f"  {name}: {result.status} "
              f"({aig.num_ands} ANDs, peak {result.stats['max_poly_size']}, "
              f"certificate {outcome})")
        assert result.ok and outcome == "ACCEPTED"


def certificate_demo():
    print("\n== proof certificate for a 6x6 multiplier ==")
    aig = generate_multiplier("SP-WT-KS", 6)
    result = Pipeline(VerifyConfig(record_certificate=True)).run(aig)
    cert = result.stats["certificate"]
    print(f"verification: {result.status}; certificate has "
          f"{cert.num_steps} substitution steps")
    print(f"independent checker: {checker_outcome(aig, cert)}")
    text = cert.to_text()
    print("certificate excerpt:")
    for line in text.splitlines()[:4]:
        print("  " + (line if len(line) < 100 else line[:97] + "..."))


def main():
    verify_all_adders()
    certificate_demo()


if __name__ == "__main__":
    main()
