import contextlib
import csv
import filecmp
import io
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resiscan import classify as classify_mod
from resiscan import fingerprint as fingerprint_mod
from resiscan import grab as grab_mod
from resiscan import probe as probe_mod
from resiscan import report as report_mod
from resiscan import seedprep as seedprep_mod
from resiscan import services as services_mod
from resiscan.addrs import format_address, parse_address
from resiscan.cli import CONFIG_TYPES, DEFAULT_CONFIG, ConfigError, load_config, main
from resiscan.seedprep import RESIDENTIAL_CATEGORY, RESIDENTIAL_CONNECTIONS
from resiscan.services import default_services
from resiscan.simnet import load_scenario
from resiscan.simnet.scenario import expected_grab_outcomes, ground_truth

PROBES_PER_SEED = 2816


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return SimpleNamespace(code=code, out=out.getvalue(), err=err.getvalue())


STAGES = ["seed-filter", "scan", "classify", "grab", "fingerprint", "report"]


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
        with open(os.path.join(pipeline.dir, "grabs.csv")) as fh:
            actual = {
                (parse_address(g.address), g.service): g.outcome
                for g in grab_mod.read_grab_log(fh)
            }
        mismatches = {
            key: (want, actual[key])
            for key, want in expected.items()
            if key in actual and actual[key] != want
        }
        assert mismatches == {}
        # every truth address was classified, so every expectation was exercised
        assert set(expected) <= set(actual)

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
        assert CONFIG_TYPES.keys() == DEFAULT_CONFIG.keys()
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

    def test_cli_exit_codes(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        res = run_cli("--config", str(p), "plan")
        assert res.code == 2
        assert res.err.startswith("config error:")

        res = run_cli("--config", str(tmp_path / "absent.json"), "plan")
        assert res.code == 2
        assert "not found" in res.err

    def test_missing_input_named_in_error(self, tmp_path):
        res = run_cli("--out", str(tmp_path), "seed-filter")
        assert res.code == 2
        assert "seed_list" in res.err

    def test_stage_order_enforced(self, tmp_path):
        res = run_cli("--out", str(tmp_path), "plan")
        assert res.code == 2
        assert "seed-filter" in res.err  # says what to run first

    def test_corrupt_grab_log_fails_stage(self, tmp_path):
        (tmp_path / "grabs.csv").write_text(
            ",".join(grab_mod._LOG_FIELDS) + "\n2001:db8::5,ssh,responded,,,,,,U1NI*LTIu\n"
        )
        res = run_cli("--out", str(tmp_path), "fingerprint")
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
        res = run_cli("--out", str(tmp_path), "fingerprint")
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


class TestLiveModeGuards:
    @pytest.fixture()
    def seeded_dir(self, tmp_path):
        (tmp_path / "seeds.txt").write_text("2001:db8::/48\n")
        return str(tmp_path)

    def test_scan_requires_contact_url(self, seeded_dir):
        res = run_cli("--out", seeded_dir, "--transport", "live", "scan")
        assert res.code == 2
        assert "operator_contact_url" in res.err

    def test_grab_requires_contact_url(self, seeded_dir):
        with open(os.path.join(seeded_dir, "classified.csv"), "w") as fh:
            classify_mod.write_classification([], fh)
        res = run_cli("--out", seeded_dir, "--transport", "live", "grab")
        assert res.code == 2
        assert "operator_contact_url" in res.err

    def test_sim_scan_requires_scenario(self, seeded_dir):
        res = run_cli("--out", seeded_dir, "scan")
        assert res.code == 2
        assert "transport.scenario" in res.err


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
        res = run_cli("--out", str(tmp_path), "fingerprint")
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
            (seedprep_mod.load_connection_map, "2001:db8::/129,cable_dsl", "netmask"),
            (report_mod.load_asn_geo, "2001:db8:zz::/48,64496,Net,de", "hex digits"),
            (fingerprint_mod.load_oui_db, "00:1b:2c,Gatework,extra", "expected 2 fields"),
            (services_mod.load_services, "ssh,22,tcp", "expected 4 or 5 fields, got 3"),
        ],
        ids=["as_map", "conn_map", "asn_geo", "oui_db", "services"],
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

    def test_oversized_field_fails_stage_with_message(self, tmp_path):
        gen = run_cli("--out", str(tmp_path), "simnet-gen")
        assert gen.code == 0, gen.err
        with open(tmp_path / "as_map.csv", "a", encoding="utf-8") as fh:
            fh.write("2001:db8::/32," + "9" * 200_000 + ",isp,ZZ\n")
        res = run_cli("--config", str(tmp_path / "config.json"), "seed-filter")
        assert res.code == 1
        assert res.err.startswith("error: as map line")


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
