"""Signed-multiplier parity: the probe's advisory and the formal
verdict must agree about signedness, end to end.

The random-simulation probe flags a two's-complement multiplier with an
*info* RA032 recommending ``verify --signed``; the SCA pipeline must
then accept the design under the signed spec and reject it under the
unsigned one, through the config layer, the CLI flag and the service's
job options alike.
"""

import pytest

from repro.analysis import lint_design
from repro.cli import main
from repro.genmul.multiplier import generate_multiplier


@pytest.fixture(scope="module")
def signed_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("signed") / "sps.aag"
    assert main(["generate", "SPS-AR-RC", "4", "-o", str(path)]) == 0
    return str(path)


class TestProbeAdvisory:
    def test_probe_emits_info_ra032_with_the_flag_hint(self):
        report = lint_design(generate_multiplier("SPS-AR-RC", 4))
        assert report.clean  # an info is advice, not a finding
        infos = report.by_severity("info")
        assert any(d.code == "RA032" and "--signed" in d.message
                   for d in infos), report.render()

    def test_unsigned_multiplier_gets_no_advisory(self):
        report = lint_design(generate_multiplier("SP-AR-RC", 4))
        assert not any(d.code == "RA032" for d in report)


class TestCliParity:
    def test_signed_flag_accepts_what_the_probe_flagged(self, signed_path,
                                                        capsys):
        assert main(["verify", signed_path, "--signed"]) == 0
        assert "correct" in capsys.readouterr().out

    def test_unsigned_spec_rejects_it(self, signed_path, capsys):
        assert main(["verify", signed_path]) == 1
        out = capsys.readouterr().out
        assert "buggy" in out and "counterexample" in out


class TestServiceParity:
    def test_service_accepts_signed_jobs(self, signed_path):
        from repro.service.core import VerificationService

        with open(signed_path, "r", encoding="ascii") as handle:
            text = handle.read()
        service = VerificationService()
        try:
            signed = service.submit("sps.aag", text,
                                    options={"signed": True})
            unsigned = service.submit("sps-as-unsigned.aag", text)
            service.start()
            import time

            deadline = time.monotonic() + 120
            while not (signed.finished and unsigned.finished):
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            service.shutdown()
        assert signed.record["status"] == "correct"
        assert unsigned.record["status"] == "buggy"
