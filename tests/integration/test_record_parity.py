"""One design, one verdict record, whichever front end ran it.

A clean, a buggy and an odd-input design go through single-input
``repro verify --json``, batch ``verify`` and a
:class:`~repro.service.core.VerificationService`; their records must be
equal once the per-run keys (timings, profiles) are removed.
"""

import json
import re
import time

import pytest

from repro.aig.aiger import write_aag
from repro.cli import main
from repro.genmul.faults import inject_visible_fault
from repro.genmul.multiplier import generate_multiplier
from repro.service.core import VerificationService

ODD_AAG = "aag 3 3 0 1 0\n2\n4\n6\n2\n"

#: keys that legitimately differ between runs and front ends
PER_RUN_KEYS = ("seconds", "phases", "profile", "resources")


def _strip(record):
    clean = {key: value for key, value in record.items()
             if key not in PER_RUN_KEYS}
    clean["summary"] = re.sub(r" in \d+\.\d+s", " in <t>",
                              clean["summary"])
    return clean


def _design_text(kind):
    if kind == "odd":
        return ODD_AAG
    aig = generate_multiplier("SP-AR-RC", 4)
    if kind == "buggy":
        aig = inject_visible_fault(aig, kind="gate-type", seed=0)
    return write_aag(aig)


def _service_record(path, text):
    service = VerificationService(workers=1).start()
    try:
        job = service.submit(path, text)
        deadline = time.monotonic() + 60.0
        while not job.finished:
            assert time.monotonic() < deadline, f"{job.id} still {job.state}"
            time.sleep(0.02)
    finally:
        service.shutdown()
    assert job.state == "done"
    return job.record


@pytest.mark.parametrize("kind,status", [("clean", "correct"),
                                         ("buggy", "buggy"),
                                         ("odd", "invalid")])
def test_front_ends_agree_on_the_record(kind, status, tmp_path, capsys):
    text = _design_text(kind)
    path = tmp_path / f"{kind}.aag"
    path.write_text(text)
    single_json = tmp_path / "single.json"
    batch_json = tmp_path / "batch.json"
    main(["verify", str(path), "--json", str(single_json)])
    main(["verify", str(path), str(path), "--json", str(batch_json)])
    capsys.readouterr()

    single = json.loads(single_json.read_text())["records"]
    batch = json.loads(batch_json.read_text())["records"]
    records = [*single, *batch, _service_record(str(path), text)]
    assert records[0]["status"] == status
    expected = _strip(records[0])
    for record in records[1:]:
        assert _strip(record) == expected
