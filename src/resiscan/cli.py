"""Command-line pipeline driver.

Each subcommand is one file-to-file stage, so a campaign can be stopped,
inspected, and resumed between stages:

    seed-filter -> plan -> scan -> classify -> grab -> fingerprint -> report

``simnet-gen`` fabricates a simulated deployment (scenario plus companion
seed/AS/connection/registry/OUI files) so the full pipeline can run
end-to-end with no network access and fully reproducible output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify as classify_mod
from . import fingerprint as fingerprint_mod
from . import grab as grab_mod
from . import probe, report, seedprep, services, targetgen
from .addrs import format_address
from .csvio import write_rows
from .simnet import (
    ScenarioParams,
    SimServices,
    SimTransport,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .simnet.scenario import (
    as_map_lines,
    asn_geo_lines,
    connection_map_lines,
    oui_lines,
    seed_lines,
)

DEFAULT_CONFIG = {
    "seed_list": None,
    "as_map": None,
    "conn_map": None,
    "oui_db": None,
    "asn_geo": None,
    "services": None,
    "rng_seed": 1,
    "rate_pps": None,
    "probe_timeout_s": 8.0,
    "grab_timeout_s": 5.0,
    "grab_parallelism": 256,
    "transport": {"mode": "sim", "scenario": None},
    "output_dir": "out",
    "operator_contact_url": None,
}

# The JSON type each config key takes, and its name in errors. A bool is
# not a number here, although Python counts it as an int.
_OPTIONAL_TEXT = ((str, type(None)), "a string or null")
CONFIG_TYPES = {
    **dict.fromkeys(
        ("seed_list", "as_map", "conn_map", "oui_db", "asn_geo", "services", "operator_contact_url"),
        _OPTIONAL_TEXT,
    ),
    **dict.fromkeys(("rng_seed", "grab_parallelism"), ((int,), "an integer")),
    **dict.fromkeys(("probe_timeout_s", "grab_timeout_s"), ((int, float), "a number")),
    "rate_pps": ((int, float, type(None)), "a number or null"),
    "transport": ((dict,), "an object"),
    "output_dir": ((str,), "a string"),
}

# Stage outputs, all under output_dir.
SEEDS_FILE = "seeds.txt"
SEED_STATS_FILE = "seed_stats.json"
RESPONSES_FILE = "responses.csv"
CLASSIFIED_FILE = "classified.csv"
CLASSIFY_STATS_FILE = "classify_stats.json"
GRABS_FILE = "grabs.csv"
FINGERPRINTS_FILE = "fingerprints.csv"
EUI64_FILE = "eui64.csv"
HP_PRINTERS_FILE = "hp_printers.csv"
REPORT_DIR = "report"


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in CONFIG_TYPES:
                raise ConfigError(f"unknown config key: {key!r}")
            _check_type(key, value, *CONFIG_TYPES[key])
            if key == "transport":
                cfg["transport"].update(value)
            else:
                cfg[key] = value
    mode = cfg["transport"].get("mode")
    if mode not in ("sim", "live"):
        raise ConfigError(f"transport.mode must be 'sim' or 'live', got {mode!r}")
    _check_type("transport.scenario", cfg["transport"].get("scenario"), *_OPTIONAL_TEXT)
    return cfg


def _check_type(key: str, value, types: tuple, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config value {key!r} must be {what}, got {json.dumps(value)}")


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    if getattr(args, "seed", None) is not None:
        cfg["rng_seed"] = args.seed
    if getattr(args, "rate", None) is not None:
        cfg["rate_pps"] = args.rate
    if getattr(args, "transport", None) is not None:
        cfg["transport"]["mode"] = args.transport
    if getattr(args, "scenario", None) is not None:
        cfg["transport"]["scenario"] = args.scenario
    if getattr(args, "out", None) is not None:
        cfg["output_dir"] = args.out


def _require(cfg: dict, key: str, what: str) -> str:
    value = cfg.get(key)
    if not value:
        raise ConfigError(f"missing config value {key!r} ({what})")
    return value


def _require_operator_contact(cfg: dict) -> str:
    """Live probing and grabbing need a reachable opt-out/contact URL."""
    return _require(
        cfg, "operator_contact_url", "live probing requires a reachable opt-out/contact URL"
    )


def _outpath(cfg: dict, name: str) -> str:
    outdir = cfg["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _read_stage(cfg: dict, name: str, reader):
    """Records of a CSV stage file under output_dir, read by ``reader``."""
    with open(os.path.join(cfg["output_dir"], name), encoding="utf-8", newline="") as fh:
        return reader(fh)


def _write_stage(cfg: dict, name: str):
    """A CSV stage file under output_dir, opened for writing."""
    return open(_outpath(cfg, name), "w", encoding="utf-8", newline="")


def _load_filtered_seeds(cfg: dict) -> seedprep.SeedSet:
    path = os.path.join(cfg["output_dir"], SEEDS_FILE)
    if not os.path.exists(path):
        raise ConfigError(f"no filtered seed list at {path}; run seed-filter first")
    with open(path, encoding="utf-8") as fh:
        return seedprep.parse_prefix_list(fh.read())


def _service_catalog(cfg: dict) -> tuple[services.ServiceSpec, ...]:
    if cfg.get("services"):
        return services.load_services(cfg["services"])
    return services.default_services()


def _sim_scenario(cfg: dict):
    scenario_path = cfg["transport"].get("scenario")
    if not scenario_path:
        raise ConfigError("missing config value 'transport.scenario' (scenario file for sim mode)")
    return load_scenario(scenario_path)


# ---------------------------------------------------------------- commands


def cmd_seed_filter(cfg: dict, args: argparse.Namespace) -> int:
    seed_path = _require(cfg, "seed_list", "path to the /48 seed list")
    as_path = _require(cfg, "as_map", "prefix-to-AS category map")
    conn_path = _require(cfg, "conn_map", "prefix-to-connection-type map")
    with open(seed_path, encoding="utf-8") as fh:
        seeds = seedprep.parse_prefix_list(fh.read())
    filtered = seedprep.filter_seeds(
        seeds, seedprep.load_as_map(as_path), seedprep.load_connection_map(conn_path)
    )
    with open(_outpath(cfg, SEEDS_FILE), "w", encoding="utf-8") as fh:
        for p48 in filtered.prefixes:
            fh.write(f"{format_address(p48)}/48\n")
    stats = dict(seeds.provenance)
    stats.update(filtered.provenance)
    with open(_outpath(cfg, SEED_STATS_FILE), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"seed-filter: {stats['input']} in, {stats['after_category']} residential-AS, "
        f"{stats['after_connection']} kept"
    )
    return 0


def cmd_plan(cfg: dict, args: argparse.Namespace) -> int:
    seeds = _load_filtered_seeds(cfg)
    plan = targetgen.build_plan(seeds, cfg["rng_seed"])
    print(f"plan: {len(plan.seeds)} seeds, budget {plan.budget} probes")
    if args.dump:
        with open(_outpath(cfg, "plan_preview.txt"), "w", encoding="utf-8") as fh:
            count = plan.dump(fh, args.dump)
        print(f"plan: wrote first {count} targets to plan_preview.txt")
    return 0


def cmd_scan(cfg: dict, args: argparse.Namespace) -> int:
    seeds = _load_filtered_seeds(cfg)
    plan = targetgen.build_plan(seeds, cfg["rng_seed"])
    print(f"scan: {len(plan.seeds)} seeds, budget {plan.budget} probes")

    mode = cfg["transport"]["mode"]
    if mode == "live":
        transport = probe.LiveTransport(_require_operator_contact(cfg))
    else:
        transport = SimTransport(_sim_scenario(cfg))

    rate = None
    if cfg.get("rate_pps"):
        rate = probe.RateLimiter(int(cfg["rate_pps"]))
    log = probe.run_scan(
        plan,
        transport,
        os.urandom(16),  # per-scan token key, never stored: replies cannot be forged
        rate=rate,
        quiescence_s=float(cfg["probe_timeout_s"]),
    )
    with _write_stage(cfg, RESPONSES_FILE) as fh:
        probe.write_response_log(sorted(log.records, key=lambda r: (r.probed_target, r.source)), fh)
    status = "complete" if log.complete else "ABORTED (partial log)"
    print(
        f"scan: sent {log.sent}, kept {len(log.records)} responses, "
        f"dropped {log.spurious} spurious, {status}"
    )
    return 0 if log.complete else 1


def cmd_classify(cfg: dict, args: argparse.Namespace) -> int:
    seeds = _load_filtered_seeds(cfg)
    records = _read_stage(cfg, RESPONSES_FILE, probe.read_response_log)
    result = classify_mod.classify_log(
        records, seeds=seeds.prefixes, rng_seed=cfg["rng_seed"]
    )
    with _write_stage(cfg, CLASSIFIED_FILE) as fh:
        classify_mod.write_classification(result.classified, fh)
    stats = {
        "internal": len(result.by_label(classify_mod.LABEL_INTERNAL)),
        "external": len(result.by_label(classify_mod.LABEL_EXTERNAL)),
        "aliased_nets": sorted(f"{format_address(n)}/56" for n in result.aliased_nets),
        "missing_alias_nets": sorted(
            f"{format_address(n)}/56" for n in result.missing_alias_nets
        ),
        "anomalous": len(result.anomalous),
    }
    with open(_outpath(cfg, CLASSIFY_STATS_FILE), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"classify: {stats['internal']} internal, {stats['external']} external, "
        f"{len(result.aliased_nets)} aliased /56s, {stats['anomalous']} anomalous"
    )
    return 0


def cmd_grab(cfg: dict, args: argparse.Namespace) -> int:
    classified = _read_stage(cfg, CLASSIFIED_FILE, classify_mod.read_classification)
    specs = _service_catalog(cfg)
    addresses = [format_address(c.address) for c in classified]
    label = grab_mod.USER_AGENT
    if cfg["transport"]["mode"] == "live":
        label = f"{grab_mod.USER_AGENT} (+{_require_operator_contact(cfg)})"
        connector = grab_mod.live_connector
    else:
        connector = SimServices(_sim_scenario(cfg)).connector()
    records = grab_mod.run_grab_campaign(
        addresses,
        specs,
        connector=connector,
        parallelism=int(cfg["grab_parallelism"]),
        timeout=float(cfg["grab_timeout_s"]),
        label=label,
    )
    with _write_stage(cfg, GRABS_FILE) as fh:
        grab_mod.write_grab_log(records, fh)
    responded = sum(1 for r in records if r.outcome == grab_mod.OUTCOME_RESPONDED)
    print(f"grab: {len(records)} attempts over {len(addresses)} addresses, {responded} responded")
    return 0


def cmd_fingerprint(cfg: dict, args: argparse.Namespace) -> int:
    grabs = _read_stage(cfg, GRABS_FILE, grab_mod.read_grab_log)
    hits = fingerprint_mod.fingerprint_records(grabs)
    with _write_stage(cfg, FINGERPRINTS_FILE) as fh:
        fingerprint_mod.write_fingerprints(hits, fh)

    printers = sorted(
        fingerprint_mod.dedupe_printers(fingerprint_mod.collect_hp_printers(grabs)),
        key=lambda p: (p.serial, p.address),
    )
    with _write_stage(cfg, HP_PRINTERS_FILE) as fh:
        write_rows(
            fh,
            ((p.address, p.model, p.serial, p.build or "") for p in printers),
            header=("address", "model", "serial", "build"),
        )

    oui_db = fingerprint_mod.load_oui_db(cfg["oui_db"]) if cfg.get("oui_db") else {}
    classified = _read_stage(cfg, CLASSIFIED_FILE, classify_mod.read_classification)
    rows = []
    for c in classified:
        mac = fingerprint_mod.extract_eui64(c.address)
        if mac is None:
            continue
        vendor = fingerprint_mod.oui_vendor(mac, oui_db) or ""
        rows.append((format_address(c.address), mac, vendor))
    with _write_stage(cfg, EUI64_FILE) as fh:
        write_rows(fh, sorted(set(rows)), header=("address", "mac", "vendor"))
    print(
        f"fingerprint: {len(hits)} device hits, {len(printers)} distinct printers, "
        f"{len(rows)} embedded MACs"
    )
    return 0


def cmd_report(cfg: dict, args: argparse.Namespace) -> int:
    geo_path = _require(cfg, "asn_geo", "prefix/ASN/name/country registry table")
    classified = _read_stage(cfg, CLASSIFIED_FILE, classify_mod.read_classification)
    grabs = _read_stage(cfg, GRABS_FILE, grab_mod.read_grab_log)
    hits = []
    if os.path.exists(os.path.join(cfg["output_dir"], FINGERPRINTS_FILE)):
        hits = _read_stage(cfg, FINGERPRINTS_FILE, fingerprint_mod.read_fingerprints)
    seed_total = None
    try:
        seed_total = len(_load_filtered_seeds(cfg))
    except ConfigError:
        pass
    bundle = report.aggregate(
        classified,
        grabs,
        hits,
        report.load_asn_geo(geo_path),
        services=_service_catalog(cfg),
        seed_total=seed_total,
    )
    outdir = _outpath(cfg, REPORT_DIR)
    files = report.emit(bundle, outdir)
    print(f"report: {len(files)} tables under {outdir}")
    return 0


def cmd_simnet_gen(cfg: dict, args: argparse.Namespace) -> int:
    params = ScenarioParams(
        n48=args.n48,
        subnets_per_48=args.subnets,
        hosts_per_subnet=(1.0, 2.0),
        aliased_fraction=args.aliased_fraction,
        deny_fraction=args.deny_fraction,
        slaac_fraction=0.3,
        extra_hops_weights={0: 0.83, 1: 0.10, 2: 0.05, 3: 0.02},
        host_profile_weights={64: 0.5, 128: 0.3, 255: 0.2},
        cpe_profile_weights={64: 0.3, 255: 0.7},
        wan_mode_weights={"eui64": 0.4, "random_iid": 0.4, "low_iid": 0.2},
        host_service_probability={
            "telnet": 0.30,
            "ssh": 0.20,
            "http": 0.35,
            "hp_printer_http": 0.10,
            "mqtt_broker": 0.15,
            "lockdown": 0.10,
        },
        cpe_service_probability=0.5,
        nonresidential_fraction=args.nonresidential_fraction,
    )
    scenario = generate_scenario(params, cfg["rng_seed"])
    outdir = cfg["output_dir"]
    os.makedirs(outdir, exist_ok=True)
    save_scenario(scenario, os.path.join(outdir, "scenario.json"))
    emitted = {
        "seeds_all.txt": seed_lines(scenario),
        "as_map.csv": as_map_lines(scenario),
        "conn_map.csv": connection_map_lines(scenario),
        "asn_geo.csv": asn_geo_lines(scenario),
        "oui.csv": oui_lines(),
    }
    for name, text in emitted.items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    config = dict(DEFAULT_CONFIG)
    config.update(
        {
            "seed_list": os.path.join(outdir, "seeds_all.txt"),
            "as_map": os.path.join(outdir, "as_map.csv"),
            "conn_map": os.path.join(outdir, "conn_map.csv"),
            "oui_db": os.path.join(outdir, "oui.csv"),
            "asn_geo": os.path.join(outdir, "asn_geo.csv"),
            "rng_seed": cfg["rng_seed"],
            "transport": {"mode": "sim", "scenario": os.path.join(outdir, "scenario.json")},
            "output_dir": outdir,
        }
    )
    with open(os.path.join(outdir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n_hosts = sum(len(sub.hosts) for net in scenario.nets for sub in net.subnets)
    print(
        f"simnet-gen: {len(scenario.nets)} /48s, {n_hosts} hosts; "
        f"scenario + input files + config.json under {outdir}"
    )
    return 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resiscan",
        description="Low-rate IPv6 residential scanning pipeline (file-to-file stages).",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override rng_seed")
    parser.add_argument("--rate", type=int, help="override probe rate (pps)")
    parser.add_argument("--transport", choices=["sim", "live"], help="override transport mode")
    parser.add_argument("--scenario", help="override sim scenario file")
    parser.add_argument("--out", help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("seed-filter", help="filter the raw seed list down to residential /48s")
    p_plan = sub.add_parser("plan", help="show the probe budget for the filtered seeds")
    p_plan.add_argument("--dump", type=int, default=0, metavar="N", help="preview first N targets")
    sub.add_parser("scan", help="probe every planned target and log responses")
    sub.add_parser("classify", help="label logged responders internal/external")
    sub.add_parser("grab", help="attempt the service catalog against classified addresses")
    sub.add_parser("fingerprint", help="extract device models, serials and embedded MACs")
    sub.add_parser("report", help="aggregate classified+grabbed data into report tables")
    p_gen = sub.add_parser("simnet-gen", help="generate a simulated deployment for testing")
    p_gen.add_argument("--n48", type=int, default=6, help="number of /48 networks")
    p_gen.add_argument("--subnets", type=int, default=8, help="populated /56s per /48")
    p_gen.add_argument("--aliased-fraction", type=float, default=0.1)
    p_gen.add_argument("--deny-fraction", type=float, default=0.3)
    p_gen.add_argument("--nonresidential-fraction", type=float, default=0.2)
    return parser


COMMANDS = {
    "seed-filter": cmd_seed_filter,
    "plan": cmd_plan,
    "scan": cmd_scan,
    "classify": cmd_classify,
    "grab": cmd_grab,
    "fingerprint": cmd_fingerprint,
    "report": cmd_report,
    "simnet-gen": cmd_simnet_gen,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
