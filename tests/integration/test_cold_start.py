"""Cold start: a plain ``repro verify`` imports only the code it runs.

Each check verifies a small design in a fresh interpreter and inspects
``sys.modules`` afterwards, so it tests which modules load, not timing.
"""

import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import repro
from repro.aig.aiger import write_aag
from repro.genmul.multiplier import generate_multiplier

SRC = os.path.dirname(os.path.dirname(repro.__file__))

NOT_ON_VERIFY_PATH = (
    "repro.analysis.structure", "repro.obs.store", "repro.obs.attribution",
    "repro.genmul.multiplier", "repro.opt.refactor", "repro.service.core",
    "sqlite3", "multiprocessing",
)

# verify --json / --db serialize and persist the verdict; neither needs
# the bench harness, the generators, the optimizer or the baselines
NOT_ON_VERIFY_OUTPUT_PATH = (
    "repro.bench", "repro.genmul.multiplier", "repro.opt.scripts",
    "repro.baselines",
)

PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


# serve on an ephemeral port, verify one job through the HTTP API, shut
# down, and report what the server process had imported
SERVE_PROBE = """
import json, sys, threading
from repro.cli import main
import repro.service.server as server

def verify_then_stop(port):
    from repro.service.client import ServiceClient
    client = ServiceClient(port=port)
    job = client.submit(open(sys.argv[1]).read(), design="m.aag")
    client.wait(job["id"], timeout=60)
    client.shutdown()

run_server = server.run_server

def run_and_stop(service, ready, **kwargs):
    def on_ready(listener):
        ready(listener)
        threading.Thread(target=verify_then_stop,
                         args=(listener.port,)).start()
    run_server(service, ready=on_ready, **kwargs)

server.run_server = run_and_stop
code = main(["serve", "--port", "0", "--db", sys.argv[2]])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _in_fresh_interpreter(probe, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["code"], set(result["modules"])


def _verify_in_fresh_interpreter(*argv):
    return _in_fresh_interpreter(PROBE, "verify", *argv)


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "m.aag"
    write_aag(generate_multiplier("SP-DT-LF", 4), str(path))
    return str(path)


def test_plain_verify_loads_no_unused_layer(design):
    code, modules = _verify_in_fresh_interpreter(design)
    assert code == 0
    assert "repro.core.pipeline" in modules
    loaded = [name for name in NOT_ON_VERIFY_PATH if name in modules]
    assert loaded == []


def test_batch_verify_and_serve_run_in_process(design, tmp_path):
    # every front end runs its tasks in its own process
    code, modules = _verify_in_fresh_interpreter(design, design)
    assert code == 0
    assert "multiprocessing" not in modules
    code, modules = _in_fresh_interpreter(SERVE_PROBE, design,
                                          str(tmp_path / "runs.db"))
    assert code == 0
    assert "repro.core.pipeline" in modules
    assert "multiprocessing" not in modules


def test_verify_db_loads_the_store(design, tmp_path):
    code, modules = _verify_in_fresh_interpreter(
        design, "--db", str(tmp_path / "runs.db"))
    assert code == 0
    assert "repro.obs.store" in modules


@pytest.mark.parametrize("flag,target", [("--json", "out.json"),
                                         ("--db", "runs.db")])
def test_verify_output_flags_load_no_bench_layer(design, tmp_path, flag,
                                                  target):
    code, modules = _verify_in_fresh_interpreter(
        design, flag, str(tmp_path / target))
    assert code == 0
    loaded = sorted(name for name in modules
                    for layer in NOT_ON_VERIFY_OUTPUT_PATH
                    if name == layer or name.startswith(layer + "."))
    assert loaded == []


@pytest.mark.parametrize("package", sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg))
def test_subpackage_imports_first(package):
    # a subpackage imported before any other part of repro must not
    # trip over an import cycle
    proc = subprocess.run([sys.executable, "-c", f"import {package}"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_lazy_exports_resolve_to_objects():
    from repro import verify_multiplier
    from repro.analysis import preflight
    from repro.obs import RunStore
    from repro.opt import balance
    from repro.service import design_fingerprint

    for value in (verify_multiplier, preflight, RunStore, balance,
                  design_fingerprint):
        assert not isinstance(value, types.ModuleType)
        assert callable(value)
    for package in ("repro", "repro.core", "repro.obs", "repro.analysis",
                    "repro.service"):
        module = sys.modules[package]
        for name in module.__all__:
            assert getattr(module, name) is not None, (package, name)
        assert set(module.__all__) <= set(dir(module))


def test_unknown_export_is_an_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError):
        repro.obs.no_such_name  # noqa: B018
