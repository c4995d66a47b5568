import ast
import contextlib
import csv
import errno
import filecmp
import hashlib
import io
import json
import os
import re
import select
import shutil
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    README, SimService, make_host, make_net, make_scenario, make_subnet, readme_stage_table,
)
from resiscan import classify as classify_mod
from resiscan import cli as cli_mod
from resiscan import fingerprint as fingerprint_mod
from resiscan import grab as grab_mod
from resiscan import probe as probe_mod
from resiscan import report as report_mod
from resiscan import seedprep as seedprep_mod
from resiscan import targetgen as targetgen_mod
from resiscan.addrs import format_address, parse_address
from resiscan.cli import DEFAULT_CONFIG, ConfigError, load_config, main
from resiscan.seedprep import RESIDENTIAL_CATEGORY, RESIDENTIAL_CONNECTIONS
from resiscan.services import default_services
from resiscan.simnet import load_scenario, save_scenario
from resiscan.simnet.scenario import expected_grab_outcomes, ground_truth

PROBES_PER_SEED = 2816
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def process_env(**settings):
    """A ``python -m resiscan`` process's environment: the sources on its path and,
    unless ``settings`` say otherwise, stdout block-buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.path.join(ROOT, "src"), **settings}


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return SimpleNamespace(code=code, out=out.getvalue(), err=err.getvalue())


STAGES = ["seed-filter", "scan", "classify", "grab", "fingerprint", "report"]
# What each pipeline stage reads and writes, by the README, and every file they write.
STAGE_TABLE = readme_stage_table()
STAGE_FILES = [name for stage in STAGE_TABLE for name in cli_mod._OUTPUTS[stage]]


def run_stage(config, outdir, stage):
    """``stage`` as the pipeline runs it: ``plan`` with a preview to write."""
    argv = ["plan", "--dump", "20"] if stage == "plan" else [stage]
    return run_cli("--config", config, "--out", outdir, *argv)


def run_stages(config_path, outdir, stages=STAGES):
    return {
        stage: run_cli("--config", config_path, "--out", outdir, stage)
        for stage in stages
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated deployment driven through every stage."""
    base = str(tmp_path_factory.mktemp("pipeline"))
    gen = run_cli("--out", base, "simnet-gen")
    assert gen.code == 0, gen.err
    config = os.path.join(base, "config.json")
    results = {"simnet-gen": gen}
    for stage in STAGES:
        results[stage] = run_cli("--config", config, stage)
    for extra in [("plan", run_cli("--config", config, "plan", "--dump", "20"))]:
        results[extra[0]] = extra[1]
    scenario = load_scenario(os.path.join(base, "scenario.json"))
    return SimpleNamespace(dir=base, config=config, results=results, scenario=scenario)


@pytest.fixture()
def run_dir(pipeline, tmp_path):
    """A copy of the pipeline's outputs, every stage's among them."""
    out = str(tmp_path / "run")
    shutil.copytree(pipeline.dir, out)
    return out


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestPipelineStages:
    def test_every_stage_succeeds(self, pipeline):
        for stage, res in pipeline.results.items():
            assert res.code == 0, f"{stage}: {res.err or res.out}"

    def test_seed_filter_counts(self, pipeline):
        m = re.fullmatch(
            r"seed-filter: (\d+) in, (\d+) residential-AS, (\d+) kept\n",
            pipeline.results["seed-filter"].out,
        )
        assert m, pipeline.results["seed-filter"].out
        total, by_as, kept = map(int, m.groups())
        expected_kept = sum(
            1
            for net in pipeline.scenario.nets
            if net.category.casefold() == RESIDENTIAL_CATEGORY
            and net.connection in RESIDENTIAL_CONNECTIONS
        )
        assert total == len(pipeline.scenario.nets)
        assert total > kept  # the generator mixed in non-residential space
        assert kept == expected_kept
        assert len(read_lines(os.path.join(pipeline.dir, "seeds.txt"))) == kept
        stats = read_json(os.path.join(pipeline.dir, "seed_stats.json"))
        assert stats["input"] == total
        assert stats["after_category"] == by_as
        assert stats["after_connection"] == kept

    def test_filtered_seeds_are_the_residential_nets(self, pipeline):
        kept = {line.removesuffix("/48") for line in read_lines(os.path.join(pipeline.dir, "seeds.txt"))}
        expected = {
            format_address(net.prefix48)
            for net in pipeline.scenario.nets
            if net.category.casefold() == RESIDENTIAL_CATEGORY
            and net.connection in RESIDENTIAL_CONNECTIONS
        }
        assert kept == expected

    def test_plan_budget_line(self, pipeline):
        n_seeds = len(read_lines(os.path.join(pipeline.dir, "seeds.txt")))
        first = pipeline.results["plan"].out.splitlines()[0]
        assert first == f"plan: {n_seeds} seeds, budget {n_seeds * PROBES_PER_SEED} probes"

    def test_plan_preview_format(self, pipeline):
        lines = read_lines(os.path.join(pipeline.dir, "plan_preview.txt"))
        assert len(lines) == 20
        for line in lines:
            address, kind, prefix = line.split(",")
            parse_address(address)
            assert kind == "alias_probe" or re.fullmatch(r"low_iid_([1-9]|10)", kind)
            assert prefix.endswith("/56")

    def test_scan_announces_budget_before_sending(self, pipeline):
        lines = pipeline.results["scan"].out.splitlines()
        n_seeds = len(read_lines(os.path.join(pipeline.dir, "seeds.txt")))
        budget = n_seeds * PROBES_PER_SEED
        assert lines[0] == f"scan: {n_seeds} seeds, budget {budget} probes"
        m = re.fullmatch(
            r"scan: sent (\d+), kept (\d+) responses, dropped (\d+) spurious, complete",
            lines[1],
        )
        assert m, lines[1]
        assert int(m.group(1)) == budget
        assert int(m.group(3)) == 0

    def test_classify_matches_simulation_truth(self, pipeline):
        seeds = {
            parse_address(line.removesuffix("/48"))
            for line in read_lines(os.path.join(pipeline.dir, "seeds.txt"))
        }
        gt = ground_truth(pipeline.scenario, seeds)
        with open(os.path.join(pipeline.dir, "classified.csv")) as fh:
            classified = classify_mod.read_classification(fh)

        internal = {c.address: c.distance for c in classified if c.label == "internal"}
        assert internal == gt.internal

        external = {c.net56: (c.address, c.distance) for c in classified if c.label == "external"}
        assert external == gt.external

        stats = read_json(os.path.join(pipeline.dir, "classify_stats.json"))
        assert stats["internal"] == len(gt.internal)
        assert set(stats["aliased_nets"]) == {
            f"{format_address(n)}/56" for n in gt.aliased
        }

    def test_grab_covers_every_classified_address(self, pipeline):
        with open(os.path.join(pipeline.dir, "classified.csv")) as fh:
            classified = classify_mod.read_classification(fh)
        with open(os.path.join(pipeline.dir, "grabs.csv")) as fh:
            grabs = grab_mod.read_grab_log(fh)
        addresses = {format_address(c.address) for c in classified}
        assert len(grabs) == len(addresses) * 25
        assert {g.address for g in grabs} == addresses
        assert len({(g.address, g.service) for g in grabs}) == len(grabs)

    def test_grab_outcomes_match_simulation_truth(self, pipeline):
        seeds = {
            parse_address(line.removesuffix("/48"))
            for line in read_lines(os.path.join(pipeline.dir, "seeds.txt"))
        }
        expected = expected_grab_outcomes(pipeline.scenario, default_services(), seeds)
        with open(os.path.join(pipeline.dir, "grabs.csv"), encoding="utf-8", newline="") as fh:
            grabs = grab_mod.read_grab_log(fh)
        actual = {(parse_address(g.address), g.service): g.outcome for g in grabs}
        mismatches = {
            key: (want, actual[key])
            for key, want in expected.items()
            if key in actual and actual[key] != want
        }
        assert mismatches == {}
        # every truth address was classified, so every expectation was exercised
        assert set(expected) <= set(actual)
        # An ssh peer sends its version line and holds the connection: the
        # read ends at that line's end and keeps it whole.
        ssh = [g for g in grabs if g.service == "ssh"]
        answered = [g for g in ssh if g.outcome != grab_mod.OUTCOME_REFUSED]
        assert answered
        for g in answered:
            assert g.outcome == grab_mod.OUTCOME_RESPONDED, g
            assert g.banner.startswith(b"SSH-2.0-") and g.banner.endswith(b"\r\n"), g

    def test_fingerprint_outputs(self, pipeline):
        eui = read_lines(os.path.join(pipeline.dir, "eui64.csv"))
        assert eui[0] == "address,mac,vendor"
        mac_re = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")
        for line in eui[1:]:
            address, mac, vendor = line.split(",")
            parse_address(address)
            assert mac_re.fullmatch(mac)
        printers = read_lines(os.path.join(pipeline.dir, "hp_printers.csv"))
        assert printers[0] == "address,model,serial,build"
        serials = [line.split(",")[2] for line in printers[1:]]
        assert serials == sorted(serials)
        assert len(serials) == len(set(serials))

    def test_report_tables(self, pipeline):
        report_dir = os.path.join(pipeline.dir, "report")
        names = sorted(os.listdir(report_dir))
        assert names == sorted(
            [
                "summary.csv", "country_split.csv", "asn_split.csv", "yield_cdf.csv",
                "iid_hist.csv", "delta_hist.csv", "protocol_split.csv",
                "distinct_ports.csv", "internal_only.csv", "lockdown_versions.csv",
                "fingerprints_summary.csv",
            ]
        )
        with open(os.path.join(report_dir, "summary.csv")) as fh:
            summary = dict(list(csv.reader(fh))[1:])
        stats = read_json(os.path.join(pipeline.dir, "classify_stats.json"))
        assert int(summary["internal_addresses"]) == stats["internal"]
        assert int(summary["external_addresses"]) == stats["external"]
        n_seeds = len(read_lines(os.path.join(pipeline.dir, "seeds.txt")))
        assert int(summary["seed_total"]) == n_seeds


class TestDeterminism:
    def test_stage_outputs_byte_identical_across_runs(self, tmp_path):
        base = str(tmp_path / "base")
        gen = run_cli("--out", base, "simnet-gen", "--n48", "3")
        assert gen.code == 0, gen.err
        config = os.path.join(base, "config.json")
        run_a, run_b = str(tmp_path / "runA"), str(tmp_path / "runB")
        for outdir in (run_a, run_b):
            for stage, res in run_stages(config, outdir).items():
                assert res.code == 0, f"{stage}: {res.err or res.out}"

        files = []
        for root, _dirs, names in os.walk(run_a):
            for name in names:
                files.append(os.path.relpath(os.path.join(root, name), run_a))
        assert sorted(files) == sorted(
            [
                "seeds.txt", "seed_stats.json", "responses.csv", "classified.csv",
                "classify_stats.json", "grabs.csv", "fingerprints.csv", "eui64.csv",
                "hp_printers.csv",
            ]
            + [os.path.join("report", n) for n in (
                "summary.csv", "country_split.csv", "asn_split.csv", "yield_cdf.csv",
                "iid_hist.csv", "delta_hist.csv", "protocol_split.csv",
                "distinct_ports.csv", "internal_only.csv", "lockdown_versions.csv",
                "fingerprints_summary.csv",
            )]
        )
        match, mismatch, errors = filecmp.cmpfiles(run_a, run_b, files, shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == sorted(files)

    def test_scan_responses_known_answer(self, tmp_path):
        # Fixed deployment, fixed bytes: no change to the plan, the tokens, the
        # send loop or the simulated transport may move one response record.
        base = str(tmp_path)
        gen = run_cli("--out", base, "--seed", "3", "simnet-gen", "--n48", "10", "--subnets", "24")
        assert gen.code == 0, gen.err
        results = run_stages(os.path.join(base, "config.json"), base, ["seed-filter", "scan"])
        assert results["scan"].out.splitlines() == [
            "scan: 8 seeds, budget 22528 probes",
            "scan: sent 22528, kept 2112 responses, dropped 0 spurious, complete",
        ]
        digest = hashlib.sha256((tmp_path / "responses.csv").read_bytes()).hexdigest()
        assert digest == "76d1544a0079d6d8d70e04ef104be8b7002dbc3cd423d297b438f2e17c88b193"

    def test_generation_reproducible_and_seed_sensitive(self, tmp_path):
        outs = {}
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            outdir = str(tmp_path / name)
            res = run_cli("--out", outdir, "--seed", str(seed), "simnet-gen", "--n48", "2")
            assert res.code == 0, res.err
            outs[name] = (tmp_path / name / "scenario.json").read_bytes()
        assert outs["a"] == outs["b"]
        assert outs["a"] != outs["c"]


class TestConfigHandling:
    def test_defaults(self):
        assert load_config(None) == DEFAULT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"seed_lists": "x"}')
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(p))

    @pytest.mark.parametrize("text", ["[]", '"out"', "null"])
    def test_config_that_is_not_an_object_rejected(self, tmp_path, text):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            load_config(str(p))

    def test_transport_merge_keeps_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"transport": {"scenario": "s.json"}}')
        cfg = load_config(str(p))
        assert cfg["transport"] == {"mode": "sim", "scenario": "s.json"}

    def test_bad_transport_mode(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"transport": {"mode": "imaginary"}}')
        with pytest.raises(ConfigError, match="transport.mode"):
            load_config(str(p))

    def test_every_default_passes_its_type_check(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(DEFAULT_CONFIG))
        assert load_config(str(p)) == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rng_seed": "7"}', "rng_seed"),
            ('{"rng_seed": true}', "rng_seed"),
            ('{"rng_seed": 7.5}', "rng_seed"),
            ('{"probe_timeout_s": null}', "probe_timeout_s"),
            ('{"grab_timeout_s": "5"}', "grab_timeout_s"),
            ('{"grab_parallelism": null}', "grab_parallelism"),
            ('{"rate_pps": "100"}', "rate_pps"),
            ('{"seed_list": ["a.txt"]}', "seed_list"),
            ('{"output_dir": null}', "output_dir"),
            ('{"transport": "sim"}', "transport"),
            ('{"transport": {"scenario": 5}}', "transport.scenario"),
        ],
    )
    def test_value_of_wrong_type_rejected(self, tmp_path, text, key):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"config value '{key}' must be"):
            load_config(str(p))
        res = run_cli("--config", str(p), "scan")
        assert res.code == 2
        assert res.err.startswith("config error:") and key in res.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"transport": {"mdoe": "live"}}', "unknown config key: 'transport.mdoe'"),
            # the service catalog is fixed; a config from an older simnet-gen holds this key
            ('{"services": null}', "unknown config key: 'services'"),
            ('{"probe_timeout_s": -5}', "'probe_timeout_s' must be positive and finite, got -5"),
            ('{"probe_timeout_s": 1e999}', "'probe_timeout_s' must be positive and finite"),
            ('{"grab_timeout_s": 0}', "'grab_timeout_s' must be positive and finite, got 0"),
            ('{"grab_timeout_s": -1}', "'grab_timeout_s' must be positive and finite, got -1"),
            ('{"grab_timeout_s": NaN}', "'grab_timeout_s' must be positive and finite, got NaN"),
            ('{"grab_parallelism": 0}', "'grab_parallelism' must be positive and finite, got 0"),
            ('{"grab_parallelism": -3}', "'grab_parallelism' must be positive and finite, got -3"),
            ('{"rate_pps": 1e999}', "'rate_pps' must be finite, got Infinity"),
            ('{"rate_pps": -1e999}', "'rate_pps' must be finite, got -Infinity"),
            ('{"rate_pps": NaN}', "'rate_pps' must be finite, got NaN"),
            # longer than any socket, select() or lock can wait
            (
                '{"probe_timeout_s": 1e10}',
                "'probe_timeout_s' must be at most 9223372036, the longest wait a socket takes,"
                " got 10000000000.0",
            ),
            (
                '{"grab_timeout_s": 1e10}',
                "'grab_timeout_s' must be at most 9223372036, the longest wait a socket takes,"
                " got 10000000000.0",
            ),
        ],
    )
    def test_value_no_stage_can_use_rejected(self, tmp_path, text, message):
        p = tmp_path / "c.json"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(str(p))
        res = run_cli("--config", str(p), "scan")
        assert res.code == 2
        assert res.err.startswith("config error:") and message in res.err

    @pytest.mark.parametrize("key", ["probe_timeout_s", "grab_timeout_s"])
    def test_timeout_at_the_bound_accepted(self, tmp_path, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({key: threading.TIMEOUT_MAX}))
        assert load_config(str(p))[key] == threading.TIMEOUT_MAX
        # A socket, as a grab uses it, and select(), as a live scan polls, both take it.
        ours, theirs = socket.socketpair()
        with ours, theirs:
            ours.settimeout(threading.TIMEOUT_MAX)
            theirs.sendall(b"x")
            assert select.select([ours], [], [], threading.TIMEOUT_MAX)[0] == [ours]
            assert ours.recv(1) == b"x"

    def test_cli_exit_codes(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        res = run_cli("--config", str(p), "plan")
        assert res.code == 2
        assert res.err.startswith("config error:")

        res = run_cli("--config", str(tmp_path / "absent.json"), "plan")
        assert res.code == 2
        assert "not found" in res.err

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda p: p.write_bytes(b"\xff\xfe{}"), "is not UTF-8 text: {}: 'utf-8' codec"),
            (lambda p: p.mkdir(), "cannot be read: {}: "),
        ],
        ids=["not-utf8", "directory"],
    )
    def test_unreadable_config_is_config_error(self, tmp_path, make, message):
        path = tmp_path / "cfg"
        make(path)
        res = run_cli("--config", str(path), "plan")
        assert res.code == 2
        assert res.err.startswith("config error: config file " + message.format(path))

    def test_readme_config_block_is_the_defaults(self):
        with open(README, encoding="utf-8") as fh:
            section = fh.read().split("\n## Configuration\n", 1)[1]
        block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
        assert json.loads(re.sub(r"//.*", "", block)) == DEFAULT_CONFIG

    def test_missing_input_named_in_error(self, tmp_path):
        res = run_cli("--out", str(tmp_path), "seed-filter")
        assert res.code == 2
        assert "seed_list" in res.err

    def test_stage_order_enforced(self, tmp_path):
        res = run_cli("--out", str(tmp_path), "plan")
        assert res.code == 1
        assert "seed-filter" in res.err  # says what to run first

    def test_corrupt_grab_log_fails_stage(self, tmp_path):
        (tmp_path / "grabs.csv").write_text(
            ",".join(grab_mod._LOG_FIELDS) + "\n2001:db8::5,ssh,responded,,,,,,U1NI*LTIu\n"
        )
        res = run_cli("--config", oui_config(tmp_path), "--out", str(tmp_path), "fingerprint")
        assert res.code == 1
        assert res.err.startswith("error: grab log line 2:")

    def test_carriage_return_in_header_survives_stages(self, tmp_path):
        header = "HP HTTP Server; Evil\rModel; Serial Number: CN1"
        printer = grab_mod.GrabRecord(
            address="2001:db8::5", service="http", outcome=grab_mod.OUTCOME_RESPONDED,
            http_server_header=header,
        )
        with open(tmp_path / "grabs.csv", "w", encoding="utf-8", newline="") as fh:
            grab_mod.write_grab_log([printer], fh)
        with open(tmp_path / "classified.csv", "w", encoding="utf-8") as fh:
            classify_mod.write_classification([], fh)
        res = run_cli("--config", oui_config(tmp_path), "--out", str(tmp_path), "fingerprint")
        assert res.code == 0, res.err
        with open(tmp_path / "hp_printers.csv", encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh))[1] == ["2001:db8::5", "Evil\rModel", "CN1", ""]
        with open(tmp_path / "fingerprints.csv", encoding="utf-8", newline="") as fh:
            assert fingerprint_mod.read_fingerprints(fh)[0].evidence == header

    def test_missing_stage_file_is_runtime_error(self, tmp_path):
        (tmp_path / "seeds.txt").write_text("2001:db8::/48\n")
        res = run_cli("--out", str(tmp_path), "classify")
        assert res.code == 1
        assert res.err.startswith("error:")

    def test_readme_stage_table_matches_the_outputs_table(self):
        assert set(STAGE_TABLE) == set(cli_mod._OUTPUTS) - {"simnet-gen"}
        for stage, (reads, writes) in STAGE_TABLE.items():
            # A directory stands for the files the table lists under it.
            listed = {re.sub(r"/.*", "/", name) for name in cli_mod._OUTPUTS[stage]}
            assert set(writes) == listed, stage
            assert set(reads) <= set(STAGE_FILES), stage

    @pytest.mark.parametrize(
        "stage, missing, producer",
        [
            (stage, name, writer)
            for stage, (reads, _writes) in STAGE_TABLE.items()
            for name in reads
            for writer, (_reads, writes) in STAGE_TABLE.items()
            if name in writes
        ],
    )
    def test_missing_stage_file_names_its_stage(
        self, pipeline, run_dir, stage, missing, producer
    ):
        os.remove(os.path.join(run_dir, missing))
        res = run_stage(pipeline.config, run_dir, stage)
        path = os.path.join(run_dir, missing)
        assert (res.code, res.err) == (1, f"error: no {missing} at {path}; run {producer} first\n")
        left = _tree(run_dir)
        assert not [n for n in cli_mod._OUTPUTS[stage] if {n, f"{n}.tmp"} & left]

    @pytest.mark.parametrize("stage", list(STAGE_TABLE))
    def test_stage_needs_no_stage_file_it_does_not_read(self, pipeline, run_dir, stage):
        reads, _writes = STAGE_TABLE[stage]
        for name in set(STAGE_FILES) - set(reads):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(run_dir, name))
        res = run_stage(pipeline.config, run_dir, stage)
        assert res.code == 0, res.err
        for name in cli_mod._OUTPUTS[stage]:
            assert filecmp.cmp(
                os.path.join(run_dir, name), os.path.join(pipeline.dir, name), shallow=False
            ), name

    def test_unknown_simulated_behavior_fails_grab(self, tmp_path):
        typo = [SimService(80, "htpp", {})]
        net = make_net("2001:db8:7::", [make_subnet(1, hosts=[make_host(1, services=typo)])])
        save_scenario(make_scenario([net]), str(tmp_path / "scenario.json"))
        with open(tmp_path / "classified.csv", "w", encoding="utf-8") as fh:
            classify_mod.write_classification([], fh)
        transport = {"scenario": str(tmp_path / "scenario.json")}
        config = write_config(str(tmp_path), {"transport": transport})
        res = run_cli("--config", config, "--out", str(tmp_path), "grab")
        assert res.code == 1
        assert res.err == "error: unknown behavior 'htpp' at 2001:db8:7:100::1 port 80\n"
        assert not (tmp_path / "grabs.csv").exists()

    def test_negative_dump_count_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "seeds.txt").write_text("2001:db8::/48\n")
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "plan", "--dump", "-1"])
        assert exc.value.code == 2
        assert "--dump" in capsys.readouterr().err
        assert not (tmp_path / "plan_preview.txt").exists()


def write_config(directory: str, settings: dict) -> str:
    path = os.path.join(directory, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(settings, fh)
    return path


def oui_config(directory) -> str:
    """A config whose ``oui_db``, which ``fingerprint`` requires, is an empty table."""
    oui = os.path.join(directory, "oui.csv")
    open(oui, "w", encoding="utf-8").close()
    return write_config(str(directory), {"oui_db": oui})


LIVE = {"transport": {"mode": "live"}}


class TestLiveModeGuards:
    @pytest.fixture()
    def seeded_dir(self, tmp_path):
        (tmp_path / "seeds.txt").write_text("2001:db8::/48\n")
        return str(tmp_path)

    def test_scan_requires_contact_url(self, seeded_dir):
        res = run_cli("--config", write_config(seeded_dir, LIVE), "--out", seeded_dir, "scan")
        assert res.code == 2
        assert "operator_contact_url" in res.err

    @pytest.mark.parametrize(
        "fault, code, closed",
        [
            (None, 0, [True]),
            ("send", 1, [True]),
            ("poll", 1, [True]),
            (-1, 1, []),
            (0, 1, []),  # 0 is no rate, not an unlimited one
        ],
        ids=["complete", "aborted", "raising", "bad-rate", "zero-rate"],
    )
    def test_scan_closes_the_live_socket(self, seeded_dir, monkeypatch, fault, code, closed):
        transports = []

        class FakeLiveTransport:
            """Stands in for the raw socket; ``fault`` names the call that fails,
            or is the ``rate_pps`` to refuse."""

            monotonic = staticmethod(time.monotonic)
            sleep = staticmethod(time.sleep)

            def __init__(self, contact_url):
                self.closed = False
                transports.append(self)

            def send(self, dst, ident, seq, payload):
                if fault == "send":
                    raise OSError("no buffer space available")

            def poll(self, max_wait):
                if fault == "poll":
                    raise OSError("socket gone")
                return []

            def close(self):
                self.closed = True

        monkeypatch.setattr(probe_mod, "LiveTransport", FakeLiveTransport)
        settings = {
            **LIVE,
            "operator_contact_url": "https://example.org/optout",
            "probe_timeout_s": 0.01,
            # A live scan needs a rate cap; this one does not slow the fake socket.
            "rate_pps": fault if isinstance(fault, int) else 1_000_000,
        }
        res = run_cli("--config", write_config(seeded_dir, settings), "--out", seeded_dir, "scan")
        assert res.code == code, res.err
        assert [t.closed for t in transports] == closed

    def test_scan_requires_rate_cap(self, seeded_dir, monkeypatch):
        monkeypatch.setattr(probe_mod, "LiveTransport", None)  # no socket may be opened
        settings = {**LIVE, "operator_contact_url": "https://example.org/optout"}
        res = run_cli("--config", write_config(seeded_dir, settings), "--out", seeded_dir, "scan")
        assert (res.code, res.err) == (
            2, "config error: missing config value 'rate_pps' (live probing requires a rate cap)\n"
        )
        assert not os.path.exists(os.path.join(seeded_dir, "responses.csv"))

    def test_grab_requires_contact_url(self, seeded_dir):
        with open(os.path.join(seeded_dir, "classified.csv"), "w") as fh:
            classify_mod.write_classification([], fh)
        res = run_cli("--config", write_config(seeded_dir, LIVE), "--out", seeded_dir, "grab")
        assert res.code == 2
        assert "operator_contact_url" in res.err

    def test_sim_scan_requires_scenario(self, seeded_dir):
        res = run_cli("--out", seeded_dir, "scan")
        assert res.code == 2
        assert "transport.scenario" in res.err


class TestScanFaults:
    """The scan stage with a simulated transport that fails."""

    @pytest.fixture()
    def scan_dir(self, pipeline, tmp_path):
        with open(os.path.join(pipeline.dir, "seeds.txt"), encoding="utf-8") as src:
            (tmp_path / "seeds.txt").write_text(src.read())
        return str(tmp_path)

    def _scan(self, pipeline, scan_dir, monkeypatch, transport_cls):
        real = cli_mod.SimTransport
        monkeypatch.setattr(
            cli_mod, "SimTransport", lambda scenario: transport_cls(real(scenario))
        )
        return run_cli("--config", pipeline.config, "--out", scan_dir, "scan")

    def test_poll_failure_writes_the_partial_log(self, pipeline, scan_dir, monkeypatch):
        class FailingPoll:
            def __init__(self, inner):
                self.inner, self.send = inner, inner.send
                self.monotonic, self.sleep = inner.monotonic, inner.sleep
                self.polls = 0

            def poll(self, max_wait):
                self.polls += 1
                if self.polls >= 3:  # while sending: 3,072 of 14,080 probes are out
                    raise OSError("ENETDOWN")
                return self.inner.poll(max_wait)

        res = self._scan(pipeline, scan_dir, monkeypatch, FailingPoll)
        assert res.code == 1
        assert res.out.splitlines()[1].endswith("ABORTED (partial log)")
        with open(os.path.join(scan_dir, "responses.csv"), encoding="utf-8") as fh:
            partial = probe_mod.read_response_log(fh)
        with open(os.path.join(pipeline.dir, "responses.csv"), encoding="utf-8") as fh:
            full = probe_mod.read_response_log(fh)
        assert 0 < len(partial) < len(full)

    def test_skipped_destinations_are_counted_in_the_summary(
        self, pipeline, scan_dir, monkeypatch
    ):
        class Unreachable:
            def __init__(self, inner):
                self.inner, self.poll = inner, inner.poll
                self.monotonic, self.sleep = inner.monotonic, inner.sleep
                self.failures = 3

            def send(self, dst, ident, seq, payload):
                if self.failures:
                    self.failures -= 1
                    raise OSError(errno.EHOSTUNREACH, "No route to host")
                self.inner.send(dst, ident, seq, payload)

        res = self._scan(pipeline, scan_dir, monkeypatch, Unreachable)
        assert res.code == 0, res.err
        assert res.out.splitlines()[1].endswith(
            "dropped 0 spurious, skipped 3 (EHOSTUNREACH), complete"
        )


class TestScanRateCap:
    def test_capped_sim_scan_costs_no_wall_time(self, pipeline, tmp_path):
        # 14,080 probes at 1,000 pps: 14 s on the simulator's clock, none of it waited.
        shutil.copy(os.path.join(pipeline.dir, "seeds.txt"), tmp_path / "seeds.txt")
        config = write_config(str(tmp_path), {**read_json(pipeline.config), "rate_pps": 1_000})
        t0 = time.monotonic()
        res = run_cli("--config", config, "--out", str(tmp_path), "scan")
        assert res.code == 0, res.err
        assert time.monotonic() - t0 < 5.0
        logs = []
        for where in (pipeline.dir, tmp_path):
            with open(os.path.join(where, "responses.csv"), encoding="utf-8") as fh:
                logs.append(probe_mod.read_response_log(fh))
        free, capped = logs

        def unstamped(log):
            return [(r.probed_target, r.source, r.kind, r.hop_limit) for r in log]

        assert unstamped(capped) == unstamped(free)
        assert max(r.timestamp_us for r in capped) > 9 * max(r.timestamp_us for r in free)


class TestHostileFiles:
    def test_hp_header_cannot_inject_rows(self, tmp_path):
        header = "HP HTTP Server; Evil,Model\ninjected,row,here,x; Serial Number: CN1,2"
        printer = grab_mod.GrabRecord(
            address="2001:db8::5", service="http", outcome=grab_mod.OUTCOME_RESPONDED,
            http_server_header=header,
        )
        with open(tmp_path / "grabs.csv", "w", encoding="utf-8", newline="") as fh:
            grab_mod.write_grab_log([printer], fh)
        with open(tmp_path / "classified.csv", "w", encoding="utf-8") as fh:
            classify_mod.write_classification([], fh)
        res = run_cli("--config", oui_config(tmp_path), "--out", str(tmp_path), "fingerprint")
        assert res.code == 0, res.err
        with open(tmp_path / "hp_printers.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["address", "model", "serial", "build"],
            ["2001:db8::5", "Evil,Model\ninjected,row,here,x", "CN1,2", ""],
        ]

    @pytest.mark.parametrize(
        "loader, header",
        [
            (probe_mod.read_response_log, ""),
            (classify_mod.read_classification, ""),
            (grab_mod.read_grab_log, ",".join(grab_mod._LOG_FIELDS) + "\n"),
            (fingerprint_mod.read_fingerprints, "address,kind,evidence\n"),
        ],
        ids=["response_log", "classification", "grab_log", "fingerprints"],
    )
    @settings(deadline=None)
    @given(body=st.text())
    def test_loaders_reject_hostile_text_with_value_error(self, loader, header, body):
        # cli.main turns ValueError into "error: ..." and exit 1; anything
        # else escapes as a traceback.
        try:
            loader(io.StringIO(header + body))
        except ValueError:
            pass

    @pytest.mark.parametrize(
        "loader, bad_row, error",
        [
            (seedprep_mod.load_as_map, "2001:db8::/32,x64496,isp,de", "invalid literal"),
            (seedprep_mod.load_connection_map, "2001:db8::/129,cable_dsl", "prefix length"),
            (report_mod.load_asn_geo, "2001:db8:zz::/48,64496,Net,de", "hex digits"),
            (seedprep_mod.load_connection_map, "2001:db8::/32,fiber", "unknown connection type"),
            (report_mod.load_asn_geo, "2001:db8::1/32,64496,Net,de", "has host bits set"),
            (fingerprint_mod.load_oui_db, "00:1b:2c,Gatework,extra", "expected 2 fields"),
        ],
        ids=[
            "as_map", "conn_map", "asn_geo", "oui_db", "conn_map_type", "asn_geo_host_bits"
        ],
    )
    def test_reference_loaders_turn_csv_errors_into_value_error(
        self, tmp_path, loader, bad_row, error
    ):
        path = tmp_path / "table.csv"
        path.write_text("# comment\n" + "x" * 200_000 + ",1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: field larger than field limit"):
            loader(str(path))
        # A value that does not convert, or a bad CIDR, is reported at its line too.
        path.write_text("# comment\n" + bad_row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: .*{re.escape(error)}"):
            loader(str(path))

    def test_malformed_scenario_fails_stage_with_message(self, tmp_path):
        (tmp_path / "seeds.txt").write_text("2001:db8::/48\n")
        (tmp_path / "scenario.json").write_text('{"rng_seed": 1, "nets": [5]}')
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "transport": {"mode": "sim", "scenario": str(tmp_path / "scenario.json")},
                    "output_dir": str(tmp_path),
                }
            )
        )
        res = run_cli("--config", str(config), "scan")
        assert res.code == 1
        assert res.err.startswith("error: malformed scenario document: nets: SimNet")

    @pytest.mark.parametrize(
        "exc", [RuntimeError("can't start new thread"), MemoryError("out of memory")]
    )
    def test_resource_exhaustion_fails_stage_with_message(self, exc, tmp_path, monkeypatch):
        def exhausted(cfg, args):
            raise exc

        monkeypatch.setitem(cli_mod.COMMANDS, "grab", exhausted)
        res = run_cli("--out", str(tmp_path), "grab")
        assert (res.code, res.err) == (1, f"error: {exc}\n")

    def test_connector_failure_fails_grab(self, tmp_path, monkeypatch):
        # The simulated connector fails as a process out of threads does: grab
        # exits 1 and writes no grabs.csv, instead of rows of its own failure.
        def exhausted(self, address, port, timeout=5.0, udp=False):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr("resiscan.simnet.services.SimServices.connect", exhausted)
        telnet = [SimService(23, "telnet", {})]
        net = make_net("2001:db8:7::", [make_subnet(1, hosts=[make_host(1, services=telnet)])])
        save_scenario(make_scenario([net]), str(tmp_path / "scenario.json"))
        host = classify_mod.ClassifiedAddress(
            parse_address("2001:db8:7:100::"), parse_address("2001:db8:7:100::1"),
            classify_mod.LABEL_INTERNAL, 64, 3,
        )
        with open(tmp_path / "classified.csv", "w", encoding="utf-8") as fh:
            classify_mod.write_classification([host], fh)
        transport = {"scenario": str(tmp_path / "scenario.json")}
        config = write_config(str(tmp_path), {"transport": transport})
        res = run_cli("--config", config, "--out", str(tmp_path), "grab")
        assert (res.code, res.err) == (1, "error: can't start new thread\n")
        assert not (tmp_path / "grabs.csv").exists()

    # A byte that is not UTF-8 is reported at the line that holds it, in the
    # raw seed list (read whole) and in seeds.txt (read as a stage file) alike.
    # Lines may end in a bare "\r", as the csv reader and str.splitlines count them.
    @pytest.mark.parametrize(
        "stage, end",
        [("seed-filter", b"\n"), ("plan", b"\n"), ("seed-filter", b"\r"), ("plan", b"\r")],
        ids=["seed-filter", "plan", "seed-filter-cr", "plan-cr"],
    )
    def test_seed_text_not_utf8_names_its_file(self, tmp_path, stage, end):
        path = tmp_path / ("seeds_all.txt" if stage == "seed-filter" else "seeds.txt")
        path.write_bytes(b"2001:db8::/48" + end + b"\xff" + end)
        lists = {"seed_list": str(path), "as_map": "as.csv", "conn_map": "conn.csv"}
        res = run_cli("--config", write_config(str(tmp_path), lists), "--out", str(tmp_path), stage)
        assert res.code == 1
        assert res.err == (
            f"error: {path}: line 2: 'utf-8' codec can't decode byte 0xff in position 14: "
            "invalid start byte\n"
        )

    def test_seeds_txt_not_utf8_past_line_1(self, tmp_path):
        (tmp_path / "seeds.txt").write_bytes(b"2001:db8::/48\n2001:db8:1::/48\n\xff\n")
        res = run_cli("--out", str(tmp_path), "plan")
        assert res.code == 1
        assert res.err.startswith(f"error: {tmp_path / 'seeds.txt'}: line 3: 'utf-8' codec")

    # The text reader decodes a whole chunk of the file (8 KiB) before the csv
    # reader counts its lines: the line is counted from the bytes before the
    # bad one, in a small file and in one that spans many chunks, with lines
    # that end in "\n" or in a bare "\r", and with a chunk that ends in the
    # bare "\r" before the bad line, which the text reader holds back.
    @pytest.mark.parametrize(
        "rows, end, cr_ends_chunk",
        [(2, b"\n", False), (2001, b"\n", False), (2, b"\r", False), (2001, b"\r", False),
         (100, b"\r", True)],
        ids=["2", "2001", "2-cr", "2001-cr", "cr-ends-chunk"],
    )
    def test_stage_file_not_utf8_names_its_line(self, tmp_path, rows, end, cr_ends_chunk):
        host = classify_mod.ClassifiedAddress(
            parse_address("2001:db8:7:100::"), parse_address("2001:db8:7:100::1"),
            classify_mod.LABEL_INTERNAL, 64, 3,
        )
        path = tmp_path / "classified.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            classify_mod.write_classification([host] * rows, fh)
        assert rows != 2001 or path.stat().st_size > 8192  # many decode chunks
        text = path.read_bytes().replace(b"\n", end)
        if cr_ends_chunk:  # a comment row first, so the first 8 KiB end with the last row but one
            text = b"#" * (8192 - len(text) // rows * (rows - 1) - 1) + end + text
            rows += 1
        path.write_bytes(text[:-1] + b"\xff" + end)  # the last row ends in 0xff
        res = run_cli("--out", str(tmp_path), "grab")
        assert res.code == 1
        assert res.err.startswith(f"error: classification line {rows}: 'utf-8' codec")
        assert not (tmp_path / "grabs.csv").exists()

    def test_reference_table_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "as_map.csv"
        path.write_bytes(b"2001:db8::/32,64500,isp,de\n3fff::/20,64501,isp\xff,de\n")
        with pytest.raises(ValueError, match="^as map line 2: 'utf-8' codec"):
            seedprep_mod.load_as_map(str(path))

    @pytest.mark.parametrize(
        "stage, message",
        [("seed-filter", "not an IPv6 prefix: 'bogus'"), ("plan", "At least 3 parts expected")],
        ids=["seed-filter", "plan"],
    )
    def test_seed_line_that_does_not_parse_names_its_file(self, tmp_path, stage, message):
        path = tmp_path / ("seeds_all.txt" if stage == "seed-filter" else "seeds.txt")
        path.write_text("2001:db8::/48\nbogus\n", encoding="utf-8")
        lists = {"seed_list": str(path), "as_map": "as.csv", "conn_map": "conn.csv"}
        res = run_cli("--config", write_config(str(tmp_path), lists), "--out", str(tmp_path), stage)
        assert res.code == 1
        assert res.err.startswith(f"error: {path}: line 2: {message}")

    @pytest.mark.parametrize(
        "line2, message",
        [
            ("2001:db8::/32", "'2001:db8::/32' is not a /48 network"),
            ("2001:db8:2:100::/56", "'2001:db8:2:100::/56' is not a /48 network"),
            ("2001:db8:3::1/48", "'2001:db8:3::1/48' is not a /48 network"),
            (None, "is listed twice"),  # line 1 again
        ],
        ids=["short", "long", "host-bits", "repeated"],
    )
    @pytest.mark.parametrize(
        "argv", [["plan", "--dump", "5"], ["scan"], ["classify"], ["report"]], ids=lambda a: a[0]
    )
    def test_seeds_txt_holds_only_distinct_48s(self, pipeline, tmp_path, argv, line2, message):
        # seeds.txt follows the stage-file rules, not the raw seed list's: a
        # row that is not a /48 network, or a /48 listed twice, is refused.
        out = str(tmp_path / "run")
        shutil.copytree(pipeline.dir, out)
        path = os.path.join(out, "seeds.txt")
        line1 = read_lines(path)[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{line1}\n{line2 or line1}\n")
        res = run_cli("--config", pipeline.config, "--out", out, *argv)
        assert res.code == 1
        assert res.err.startswith(f"error: {path}: line 2: "), res.err
        assert message in res.err
        outputs = cli_mod._OUTPUTS[argv[0]]
        assert not any(os.path.exists(os.path.join(out, name)) for name in outputs)

    def test_oversized_field_fails_stage_with_message(self, tmp_path):
        gen = run_cli("--out", str(tmp_path), "simnet-gen")
        assert gen.code == 0, gen.err
        with open(tmp_path / "as_map.csv", "a", encoding="utf-8") as fh:
            fh.write("2001:db8::/32," + "9" * 200_000 + ",isp,ZZ\n")
        res = run_cli("--config", str(tmp_path / "config.json"), "seed-filter")
        assert res.code == 1
        assert res.err.startswith("error: as map line")


def _fail_on_call(real, n):
    """``real``, made to raise on its ``n``-th call."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise RuntimeError("injected fault")
        return real(*args, **kwargs)

    return wrapper


def _tree(root):
    return {
        os.path.relpath(os.path.join(d, n), root) for d, _dirs, names in os.walk(root) for n in names
    }


class TestStageOutputs:
    """An output is there only when its stage wrote it whole."""

    @pytest.mark.parametrize(
        "argv, module, name, n, outputs",
        [
            (["seed-filter"], cli_mod, "_write_json", 1, ["seeds.txt", "seed_stats.json"]),
            (["plan", "--dump", "5"], targetgen_mod.ScanPlan, "dump", 1, ["plan_preview.txt"]),
            (["scan"], probe_mod, "run_scan", 1, ["responses.csv"]),
            (["classify"], cli_mod, "_write_json", 1, ["classified.csv", "classify_stats.json"]),
            (["grab"], grab_mod, "run_grab_campaign", 1, ["grabs.csv"]),
            (
                ["fingerprint"], fingerprint_mod, "extract_eui64", 1,
                ["fingerprints.csv", "hp_printers.csv", "eui64.csv"],
            ),
            (["report"], report_mod, "write_rows", 4, ["report"]),
            (
                ["simnet-gen"], cli_mod, "_write_json", 1,
                ["scenario.json", "seeds_all.txt", "as_map.csv", "conn_map.csv",
                 "asn_geo.csv", "oui.csv", "config.json"],
            ),
        ],
        ids=["seed-filter", "plan", "scan", "classify", "grab", "fingerprint", "report", "simnet-gen"],
    )
    def test_failed_stage_leaves_none_of_its_outputs(
        self, pipeline, run_dir, monkeypatch, argv, module, name, n, outputs
    ):
        before = _tree(run_dir)
        assert {p.split(os.sep)[0] for p in before} >= set(outputs)
        monkeypatch.setattr(module, name, _fail_on_call(getattr(module, name), n))
        res = run_cli("--config", pipeline.config, "--out", run_dir, *argv)
        assert (res.code, res.err) == (1, "error: injected fault\n")
        # Only this stage's outputs are gone, and no .tmp is left.
        assert _tree(run_dir) == {p for p in before if p.split(os.sep)[0] not in outputs}

    def test_outputs_table_lists_every_file_a_stage_writes(self, pipeline):
        listed = {os.path.normpath(n) for names in cli_mod._OUTPUTS.values() for n in names}
        assert _tree(pipeline.dir) == listed

    def test_an_unlisted_name_is_refused(self, tmp_path):
        cfg = {"output_dir": str(tmp_path)}
        with pytest.raises(RuntimeError, match="seeds.txt is not among the outputs of grab"):
            cli_mod._write_stage(cfg, "grab", "seeds.txt")
        with pytest.raises(RuntimeError, match="seed.txt is not among the outputs of any stage"):
            cli_mod._read_stage(cfg, "seed.txt", None)
        assert os.listdir(tmp_path) == []

    def test_report_leaves_other_files_under_its_directory(self, pipeline, run_dir, monkeypatch):
        foreign = os.path.join(run_dir, "report", "notes.txt")
        with open(foreign, "w", encoding="utf-8") as fh:
            fh.write("kept\n")
        monkeypatch.setattr(report_mod, "write_rows", _fail_on_call(report_mod.write_rows, 4))
        res = run_cli("--config", pipeline.config, "--out", run_dir, "report")
        assert (res.code, res.err) == (1, "error: injected fault\n")
        assert os.listdir(os.path.dirname(foreign)) == ["notes.txt"]
        monkeypatch.undo()
        res = run_cli("--config", pipeline.config, "--out", run_dir, "report")
        assert res.code == 0, res.err
        assert len(os.listdir(os.path.dirname(foreign))) == 12
        with open(foreign, encoding="utf-8") as fh:
            assert fh.read() == "kept\n"

    def test_writer_raising_after_n_rows_leaves_no_output(self, pipeline, run_dir, monkeypatch):
        real = grab_mod.write_grab_log

        def torn(records, fh):
            real(records[:10], fh)
            fh.flush()
            assert fh.name.endswith("grabs.csv.tmp") and os.path.getsize(fh.name) > 0
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(grab_mod, "write_grab_log", torn)
        res = run_cli("--config", pipeline.config, "--out", run_dir, "grab")
        assert (res.code, res.err) == (1, "error: [Errno 28] No space left on device\n")
        assert not [n for n in os.listdir(run_dir) if n.startswith("grabs.csv")]

    def test_stage_removes_its_outputs_when_it_starts(self, pipeline, run_dir, monkeypatch):
        # A .tmp left by a run that was killed goes too.
        with open(os.path.join(run_dir, "grabs.csv.tmp"), "w", encoding="utf-8") as fh:
            fh.write("address\n")
        seen = []
        real = grab_mod.run_grab_campaign

        def campaign(*args, **kwargs):
            seen.append([n for n in os.listdir(run_dir) if n.startswith("grabs.csv")])
            return real(*args, **kwargs)

        monkeypatch.setattr(grab_mod, "run_grab_campaign", campaign)
        res = run_cli("--config", pipeline.config, "--out", run_dir, "grab")
        assert res.code == 0, res.err
        assert seen == [[]]
        assert filecmp.cmp(
            os.path.join(run_dir, "grabs.csv"), os.path.join(pipeline.dir, "grabs.csv"),
            shallow=False,
        )
        assert not os.path.exists(os.path.join(run_dir, "grabs.csv.tmp"))

    def test_fingerprint_after_a_failed_grab_asks_for_grab(self, tmp_path, run_dir):
        missing = {
            "transport": {"mode": "sim", "scenario": str(tmp_path / "missing.json")},
            "oui_db": os.path.join(run_dir, "oui.csv"),
        }
        config = write_config(str(tmp_path), missing)
        res = run_cli("--config", config, "--out", run_dir, "grab")
        assert res.code == 1 and res.err.startswith("error: ")
        assert not os.path.exists(os.path.join(run_dir, "grabs.csv"))
        res = run_cli("--config", config, "--out", run_dir, "fingerprint")
        path = os.path.join(run_dir, "grabs.csv")
        assert (res.code, res.err) == (1, f"error: no grabs.csv at {path}; run grab first\n")

    @pytest.mark.parametrize(
        "stage, key, missing",
        [("fingerprint", "oui_db", "fingerprints.csv"), ("seed-filter", "seed_list", "seeds.txt")],
        ids=["fingerprint", "seed-filter"],
    )
    def test_report_after_a_failed_stage_asks_for_it(
        self, pipeline, tmp_path, run_dir, stage, key, missing
    ):
        # The device table must not read "no devices" because fingerprint failed.
        config = read_json(pipeline.config)
        config[key] = str(tmp_path / "absent.csv")
        config = write_config(str(tmp_path), config)
        res = run_cli("--config", config, "--out", run_dir, stage)
        assert res.code == 1 and res.err.startswith("error: ")
        res = run_cli("--config", config, "--out", run_dir, "report")
        path = os.path.join(run_dir, missing)
        assert (res.code, res.err) == (1, f"error: no {missing} at {path}; run {stage} first\n")
        assert not os.path.exists(os.path.join(run_dir, "report"))


class TestEntryPoints:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["defragment"])
        assert exc.value.code == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "resiscan", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "seed-filter" in proc.stdout

    def test_console_script_is_the_module_entry(self):
        import resiscan.__main__ as entry

        with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
            [target] = re.findall(r'^resiscan = "([\w.]+):(\w+)"$', fh.read(), re.M)
        assert getattr(sys.modules[target[0]], target[1]) is entry.run is cli_mod.run
        with open(entry.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        assert [n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call)] == ["run"]

    @pytest.fixture(scope="class")
    def in_process(self, tmp_path_factory):
        """A small deployment, and each stage run on it by ``main`` in this process."""
        base = tmp_path_factory.mktemp("entry")
        gen = run_cli("--out", str(base / "gen"), "simnet-gen", "--n48", "2", "--subnets", "2")
        assert gen.code == 0, gen.err
        config = str(base / "gen" / "config.json")
        results = run_stages(config, str(base / "in-process"))
        assert all(res.code == 0 for res in results.values())
        return config, results, base / "in-process"

    @pytest.mark.parametrize("stdout", ["pipe", "file"])
    def test_stage_process_ends_as_main_returns(self, in_process, tmp_path, stdout):
        # Block-buffered either way: the summary must be flushed before the process ends.
        config, expected, expected_dir = in_process
        env = process_env()

        def process(*argv):
            cmd = [sys.executable, "-m", "resiscan", *argv]
            if stdout == "pipe":
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
                return SimpleNamespace(code=proc.returncode, out=proc.stdout, err=proc.stderr)
            with open(tmp_path / "stdout", "w+", encoding="utf-8") as out:
                proc = subprocess.run(
                    cmd, stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=60
                )
                out.seek(0)
                return SimpleNamespace(code=proc.returncode, out=out.read(), err=proc.stderr)

        outdir = str(tmp_path / "process")
        for stage in STAGES:
            want = vars(expected[stage])
            want = want | {"out": want["out"].replace(str(expected_dir), outdir)}
            assert vars(process("--config", config, "--out", outdir, stage)) == want
        assert want["out"] == f"report: 11 tables under {outdir}/report\n"
        assert _tree(outdir) == _tree(expected_dir)
        for name in _tree(outdir):
            assert filecmp.cmp(os.path.join(outdir, name), os.path.join(expected_dir, name), False)
        # A missing input fails scan after its plan line, which must not be lost.
        absent = str(tmp_path / "absent.json")
        no_scenario = write_config(
            str(tmp_path), {**read_json(config), "transport": {"mode": "sim", "scenario": absent}}
        )
        plan_line = expected["scan"].out.splitlines(keepends=True)[0]
        for argv, code, out, err in (
            (["--config", no_scenario, "--out", outdir, "scan"], 1, plan_line, "error: "),
            (["--config", absent, "scan"], 2, "", "config error: "),
        ):
            res = process(*argv)
            assert res == run_cli(*argv)
            assert (res.code, res.out) == (code, out) and res.err.startswith(err)

    @pytest.mark.parametrize(
        "settings", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"]
    )
    def test_closed_stdout_fails_the_stage(self, in_process, tmp_path, settings):
        config, _expected, _dir = in_process
        outdir = str(tmp_path)
        for stage in ("seed-filter", "scan"):
            assert run_cli("--config", config, "--out", outdir, stage).code == 0
        reader, writer = os.pipe()
        os.close(reader)  # the reader is gone before the stage prints
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "resiscan", "--config", config, "--out", outdir, "classify"],
                stdout=writer, stderr=subprocess.PIPE, text=True, env=process_env(**settings),
                timeout=60,
            )
        finally:
            os.close(writer)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")
        assert _tree(outdir) == {"seeds.txt", "seed_stats.json", "responses.csv"}
