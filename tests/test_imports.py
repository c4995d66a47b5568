"""Each stage process imports only the modules its stage runs.

Every case runs in a fresh interpreter with ``PYTHONPATH=src`` and looks
only at the modules it adds to those the bare interpreter had already
loaded, so a site hook that preloads ``ssl`` cannot fail it.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SIMNET = ("resiscan.simnet",)
STAGE_MODULES = tuple(
    f"resiscan.{name}" for name in ("probe", "targetgen", "classify", "grab", "fingerprint", "report")
)
TLS = ("ssl", "_ssl")
LIVE = ("logging", "socket", "select")
SIMNET_GRAB = ("resiscan.probe", "resiscan.targetgen", "resiscan.simnet.transport", "cryptography")

# Modules each case must not add; a name also bans its submodules.
NOT_LOADED = {
    "import": SIMNET + STAGE_MODULES + TLS + LIVE + ("plistlib",),
    "seed-filter": SIMNET + STAGE_MODULES + TLS + LIVE + ("plistlib",),
    "classify": SIMNET
    + ("resiscan.grab", "resiscan.fingerprint", "resiscan.report", "resiscan.seedprep")
    + TLS
    + LIVE,
    "fingerprint": SIMNET + ("resiscan.probe", "resiscan.targetgen") + TLS + LIVE,
    "report": SIMNET + ("resiscan.probe", "resiscan.targetgen", "resiscan.seedprep") + TLS + LIVE,
    "scan": (
        "resiscan.simnet.services", "resiscan.grab", "resiscan.classify", "resiscan.fingerprint",
        "resiscan.report", "resiscan.seedprep",
    )
    + TLS
    + LIVE,
    "grab": SIMNET_GRAB + TLS + LIVE,
    # The deployment then gains a TLS endpoint, so this grab makes and reads a
    # certificate; ssl imports socket, and socket imports select.
    "grab over TLS": SIMNET_GRAB + ("logging",),
}
TLS_CN = "imports.example"

# Prints the modules that importing the CLI, and running it on argv if any
# is given, added to the interpreter's own.
CHILD = """
import sys
base = set(sys.modules)
import contextlib, io, json
from resiscan import cli
argv = json.loads(sys.argv[1])
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(json.dumps({"code": code, "added": sorted(set(sys.modules) - base)}))
"""


def _added_modules(argv: list[str]) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0, (argv, proc.stderr)
    return set(result["added"])


@pytest.fixture(scope="module")
def added(tmp_path_factory):
    """The modules each case added, stages run in pipeline order."""
    out = str(tmp_path_factory.mktemp("imports"))
    _added_modules(["--out", out, "simnet-gen", "--n48", "2", "--subnets", "2"])
    config = os.path.join(out, "config.json")
    found = {"import": _added_modules([])}
    for stage in ("seed-filter", "scan", "classify", "grab"):
        found[stage] = _added_modules(["--config", config, stage])
    scenario = os.path.join(out, "scenario.json")
    with open(scenario, encoding="utf-8") as fh:
        deployment = json.load(fh)
    deployment["nets"][0]["subnets"][0]["cpe"]["services"].append(
        {"behavior": "tls_http", "params": {"common_name": TLS_CN}, "port": 443}
    )
    with open(scenario, "w", encoding="utf-8") as fh:
        json.dump(deployment, fh)
    found["grab over TLS"] = _added_modules(["--config", config, "grab"])
    for stage in ("fingerprint", "report"):
        found[stage] = _added_modules(["--config", config, stage])
    with open(os.path.join(out, "grabs.csv"), encoding="utf-8") as fh:
        found["grab common names"] = {row["tls_subject_cn"] for row in csv.DictReader(fh)}
    return found


@pytest.mark.parametrize("case", sorted(NOT_LOADED))
def test_stage_loads_only_what_it_runs(added, case):
    banned = NOT_LOADED[case]
    loaded = sorted(
        m for m in added[case] if any(m == b or m.startswith(b + ".") for b in banned)
    )
    assert loaded == []


def test_sim_stages_load_the_simulator(added):
    # The guard above would pass vacuously if the child saw no modules.
    assert "resiscan.simnet.transport" in added["scan"]
    assert "resiscan.simnet.services" in added["grab"]
    assert "resiscan.cli" in added["import"]
    assert TLS_CN in added["grab common names"]


def test_every_simulator_name_imports():
    # The package loads each submodule on first use; every exported name resolves.
    import resiscan.simnet as simnet

    assert simnet.__all__
    for name in simnet.__all__:
        namespace = {}
        exec(f"from resiscan.simnet import {name}", namespace)
        assert namespace[name].__module__.startswith("resiscan.simnet."), name
    with pytest.raises(ImportError):
        exec("from resiscan.simnet import NoSuchName", {})
    with pytest.raises(AttributeError):
        simnet.NoSuchName
