"""End-to-end golden run of the shipped example deployment.

The files under tests/golden/example/ were derived from the scenario's
ground truth alone (network layout, hop arithmetic, configured devices),
never from pipeline output, so a byte-for-byte match here checks both the
pipeline's results and its on-disk formats in one pass.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from resiscan.cli import main as cli_main
from resiscan.fingerprint import read_fingerprints
from resiscan.simnet.scenario import (
    ScenarioError,
    as_map_lines,
    asn_geo_lines,
    connection_map_lines,
    load_scenario,
    oui_lines,
    seed_lines,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIO_PATH = REPO / "scenarios" / "example.json"
GOLDEN_DIR = REPO / "tests" / "golden" / "example"

GOLDEN_FILES = ["seeds.txt", "classified.csv", "eui64.csv", "hp_printers.csv"]
STAGES = ["seed-filter", "scan", "classify", "grab", "fingerprint", "report"]


def _run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def example_run(tmp_path_factory):
    """All pipeline stages executed against the shipped example scenario."""
    workdir = tmp_path_factory.mktemp("example")
    scenario = load_scenario(str(SCENARIO_PATH))
    inputs = {
        "seeds_all.txt": seed_lines(scenario),
        "as_map.csv": as_map_lines(scenario),
        "conn_map.csv": connection_map_lines(scenario),
        "asn_geo.csv": asn_geo_lines(scenario),
        "oui.csv": oui_lines(),
    }
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    config = {
        "seed_list": str(workdir / "seeds_all.txt"),
        "as_map": str(workdir / "as_map.csv"),
        "conn_map": str(workdir / "conn_map.csv"),
        "oui_db": str(workdir / "oui.csv"),
        "asn_geo": str(workdir / "asn_geo.csv"),
        "rng_seed": 7,
        "transport": {"mode": "sim", "scenario": str(SCENARIO_PATH)},
        "output_dir": str(workdir / "out"),
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    for stage in STAGES:
        code, output = _run("--config", str(config_path), stage)
        assert code == 0, f"{stage} failed:\n{output}"
    return workdir / "out"


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(example_run, name):
    produced = (example_run / name).read_bytes()
    expected = (GOLDEN_DIR / name).read_bytes()
    assert produced == expected, f"{name} diverges from its golden copy"


def test_device_fingerprints_found(example_run):
    with open(example_run / "fingerprints.csv", encoding="utf-8") as fh:
        hits = read_fingerprints(fh)
    by_kind = {h.kind: h.address for h in hits}
    assert by_kind["hp_printer"] == "2001:db8:4100:100::2"
    assert by_kind["dahua_camera"] == "2001:db8:4200::4"
    assert by_kind["nanoleaf_panel"] == "2001:db8:4200::7"
    assert by_kind["nokia_gateway"] == "3fff:64:0:4:6e55:c3ff:fe02:4491"
    assert len(hits) == 4


def test_report_written(example_run):
    summary = (example_run / "report" / "summary.csv").read_text(encoding="utf-8")
    assert "internal_addresses,5" in summary
    assert "external_addresses,4" in summary
    stats = json.loads((example_run / "classify_stats.json").read_text(encoding="utf-8"))
    assert stats["aliased_nets"] == ["2001:db8:4100:700::/56"]


@pytest.mark.parametrize("key, value", [("aliassed", True), ("stub_services", [])])
def test_unknown_subnet_key_refused(tmp_path, key, value):
    # A misspelt key, or one an older schema had, ends the load instead of
    # leaving its subnet at the defaults.
    doc = json.loads(SCENARIO_PATH.read_text(encoding="utf-8"))
    doc["nets"][0]["subnets"][0][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ScenarioError, match=f"subnets: unknown key '{key}'"):
        load_scenario(str(path))


def test_rerun_is_byte_identical(example_run):
    before = {name: (example_run / name).read_bytes() for name in GOLDEN_FILES}
    config_path = example_run.parent / "config.json"
    for stage in STAGES:
        code, output = _run("--config", str(config_path), stage)
        assert code == 0, f"{stage} failed on re-run:\n{output}"
    after = {name: (example_run / name).read_bytes() for name in GOLDEN_FILES}
    assert after == before
