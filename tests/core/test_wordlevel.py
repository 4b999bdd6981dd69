"""Word-level adder verification through the pipeline's adder spec."""

import pytest

from repro.aig.aig import FALSE, Aig
from repro.aig.ops import cleanup
from repro.aig.simulate import simulate
from repro.core.certificate import check_certificate
from repro.core.counterexample import find_nonzero_assignment
from repro.core.pipeline import Pipeline, VerifyConfig
from repro.errors import DesignLintError, VerificationError
from repro.genmul import inject_visible_fault
from repro.genmul.fsa import FSA_BUILDERS
from repro.obs.recorder import Recorder
from repro.poly import Polynomial


def build_adder(name, width, outputs=None):
    aig = Aig(f"{name}_{width}")
    a_bits = aig.add_inputs(width, prefix="a")
    b_bits = aig.add_inputs(width, prefix="b")
    for bit in FSA_BUILDERS[name](aig, a_bits, b_bits)[:outputs]:
        aig.add_output(bit)
    return aig


def run_adder(aig, recorder=None, **options):
    config = VerifyConfig(spec="adder", **options)
    return Pipeline(config).run(aig, recorder=recorder)


def simulated_sum(aig, a, b, width):
    bits = ([(a >> k) & 1 for k in range(width)]
            + [(b >> k) & 1 for k in range(width)])
    outputs = simulate(aig, bits, 1)
    return sum((bit & 1) << k for k, bit in enumerate(outputs))


class TestVerifyAdder:
    @pytest.mark.parametrize("name", sorted(FSA_BUILDERS))
    def test_all_generated_adders_verify(self, name):
        aig = build_adder(name, 5)
        result = run_adder(aig, monomial_budget=500_000)
        assert result.ok, (name, result.status)

    def test_exact_adder_with_carry_out(self):
        aig = Aig()
        a_bits = aig.add_inputs(4, prefix="a")
        b_bits = aig.add_inputs(4, prefix="b")
        carry = FALSE
        for a, b in zip(a_bits, b_bits):
            s, carry = aig.full_adder(a, b, carry)
            aig.add_output(s)
        aig.add_output(carry)  # expose the carry -> exact 5-bit sum
        result = run_adder(aig)
        assert result.ok
        assert result.remainder.is_zero()

    def test_buggy_adder_rejected(self):
        aig = build_adder("KS", 4)
        buggy = inject_visible_fault(aig, kind="gate-type", seed=3)
        result = run_adder(buggy, monomial_budget=500_000)
        assert result.status == "buggy"

    @pytest.mark.parametrize("name", sorted(FSA_BUILDERS))
    def test_buggy_adder_witness_resimulates(self, name):
        # the witness must be a wrong sum, not a correct wrap-around
        # (where the exact remainder is -2**W, non-zero but divisible)
        for width in (4, 5):
            for seed in range(1, 6):
                buggy = inject_visible_fault(build_adder(name, width),
                                             kind="gate-type", seed=seed)
                result = run_adder(buggy)
                assert result.status == "buggy", (width, seed)
                a = result.stats["counterexample_a"]
                b = result.stats["counterexample_b"]
                assert simulated_sum(buggy, a, b, width) != \
                    (a + b) % (1 << width), (width, seed, a, b)

    def test_budget_reported(self):
        aig = build_adder("CL", 8)
        result = run_adder(aig, monomial_budget=3)
        assert result.timed_out

    def test_signed_adder_verifies(self):
        # two's-complement addition wraps exactly like the unsigned one
        assert run_adder(build_adder("RC", 4), signed=True).ok

    def test_traced_run_has_every_stage_and_a_valid_certificate(self):
        aig = build_adder("KS", 5)
        recorder = Recorder()
        result = run_adder(aig, recorder=recorder, record_certificate=True)
        assert result.ok
        for stage in ("preflight", "spec", "atomic", "vanishing",
                      "components", "implications", "rewrite"):
            assert stage in recorder.span_totals, stage
        certificate = result.stats["certificate"]
        # the remainder is the discarded carry, -2**W * carry(a, b)
        assert not certificate.remainder.is_zero()
        assert check_certificate(cleanup(aig), certificate)

    def test_truncated_adder_fails_preflight(self):
        with pytest.raises(DesignLintError) as info:
            run_adder(build_adder("RC", 4, outputs=3))
        errors = info.value.report.errors
        assert [d.code for d in errors] == ["RA030"]
        assert "adder" in errors[0].message


class TestModularDescent:
    def test_descent_skips_multiples_of_the_modulus(self):
        x, y = Polynomial.variable(1), Polynomial.variable(2)
        # 16*x*y is zero mod 16; only y = 1, x = 0 makes 3*y non-zero
        poly = 16 * x * y + 3 * y - 3 * x * y
        assert find_nonzero_assignment(poly, modulus=16) == {1: 0, 2: 1}

    def test_polynomial_divisible_by_the_modulus_has_no_witness(self):
        with pytest.raises(VerificationError):
            find_nonzero_assignment(16 * Polynomial.variable(1), modulus=16)
