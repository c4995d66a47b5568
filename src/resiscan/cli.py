"""Command-line pipeline driver.

Each subcommand is one file-to-file stage, so a campaign can be stopped,
inspected, and resumed between stages:

    seed-filter -> plan -> scan -> classify -> grab -> fingerprint -> report

``simnet-gen`` fabricates a simulated deployment (scenario plus companion
seed/AS/connection/registry/OUI files) so the full pipeline can run
end-to-end with no network access and fully reproducible output.

Each ``cmd_*`` imports the modules of its own stage, the simulator's
included, so that a stage process loads only what it runs.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import sys
import threading
from typing import NoReturn

from .addrs import format_address, parse_prefix
from .csvio import open_output, read_rows, undecodable_line, write_rows

# Each config key once: its default, the JSON types it takes with their name
# in errors, and for a number, its bounds: it must be finite, above the first
# and at most the second. A bool is not a number here, although Python counts
# it as an int.
_TEXT = ((str, type(None)), "a string or null")
_NUMBER = ((int, float), "a number")
_INTEGER = ((int,), "an integer")
_FINITE = (-float("inf"), float("inf"))
_POSITIVE = (0, float("inf"))
# A socket, select() and a lock each refuse to wait longer than this.
_TIMEOUT = (0, threading.TIMEOUT_MAX)
_CONFIG = {
    "seed_list": (None, _TEXT, None),
    "as_map": (None, _TEXT, None),
    "conn_map": (None, _TEXT, None),
    "oui_db": (None, _TEXT, None),
    "asn_geo": (None, _TEXT, None),
    "rng_seed": (1, _INTEGER, None),
    # The rate limiter refuses a rate below 1/s; a rate no number can hold fails here.
    "rate_pps": (None, ((int, float, type(None)), "a number or null"), _FINITE),
    "probe_timeout_s": (8.0, _NUMBER, _TIMEOUT),
    "grab_timeout_s": (5.0, _NUMBER, _TIMEOUT),
    "grab_parallelism": (256, _INTEGER, _POSITIVE),
    "transport": ({"mode": "sim", "scenario": None}, ((dict,), "an object"), None),
    "output_dir": ("out", ((str,), "a string"), None),
    "operator_contact_url": (None, _TEXT, None),
}
DEFAULT_CONFIG = {key: default for key, (default, _types, _bound) in _CONFIG.items()}

# What each stage writes under output_dir. A stage removes its own outputs
# when it starts and when it fails, and a missing input names its writer.
_OUTPUTS = {
    "seed-filter": ("seeds.txt", "seed_stats.json"),
    "plan": ("plan_preview.txt",),
    "scan": ("responses.csv",),
    "classify": ("classified.csv", "classify_stats.json"),
    "grab": ("grabs.csv",),
    "fingerprint": ("fingerprints.csv", "hp_printers.csv", "eui64.csv"),
    "report": tuple(
        f"report/{name}"
        for name in (
            "summary.csv", "country_split.csv", "asn_split.csv", "yield_cdf.csv",
            "iid_hist.csv", "delta_hist.csv", "protocol_split.csv", "distinct_ports.csv",
            "internal_only.csv", "lockdown_versions.csv", "fingerprints_summary.csv",
        )
    ),
    "simnet-gen": (
        "scenario.json", "seeds_all.txt", "as_map.csv", "conn_map.csv", "asn_geo.csv", "oui.csv",
        "config.json",
    ),
}


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
        except OSError as exc:  # a directory, say
            raise ConfigError(f"config file cannot be read: {path}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in _CONFIG:
                raise ConfigError(f"unknown config key: {key!r}")
            _check_type(key, value, *_CONFIG[key][1])
            if key == "transport":
                for name in value:
                    if name not in DEFAULT_CONFIG["transport"]:
                        raise ConfigError(f"unknown config key: 'transport.{name}'")
                cfg["transport"].update(value)
            else:
                cfg[key] = value
    mode = cfg["transport"]["mode"]
    if mode not in ("sim", "live"):
        raise ConfigError(f"transport.mode must be 'sim' or 'live', got {mode!r}")
    _check_type("transport.scenario", cfg["transport"]["scenario"], *_TEXT)
    for key, (_default, _types, bounds) in _CONFIG.items():
        value = cfg[key]
        if bounds is None or value is None:
            continue
        low, most = bounds
        if not low < value < float("inf"):  # NaN too
            what = "positive and finite" if low == 0 else "finite"
            raise ConfigError(f"config value {key!r} must be {what}, got {json.dumps(value)}")
        if value > most:
            raise ConfigError(
                f"config value {key!r} must be at most {most:.0f}, the longest wait a socket"
                f" takes, got {json.dumps(value)}"
            )
    return cfg


def _check_type(key: str, value, types: tuple, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config value {key!r} must be {what}, got {json.dumps(value)}")


def _require(cfg: dict, key: str, what: str):
    value = cfg.get(key)
    if value is None or value == "":
        raise ConfigError(f"missing config value {key!r} ({what})")
    return value


def _require_operator_contact(cfg: dict) -> str:
    """Live probing and grabbing need a reachable opt-out/contact URL."""
    return _require(
        cfg, "operator_contact_url", "live probing requires a reachable opt-out/contact URL"
    )


def _read_stage(cfg: dict, name: str, reader):
    """Records of a stage file under output_dir, read by ``reader``."""
    writer = next((stage for stage, names in _OUTPUTS.items() if name in names), None)
    path = _stage_path(cfg, writer, name)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except FileNotFoundError:
        raise FileNotFoundError(f"no {name} at {path}; run {writer} first") from None
    with fh:
        return reader(fh)


def _read_seeds(fh) -> tuple[int, ...]:
    """The /48s of seeds.txt, a network per row, each listed once."""
    seen: set[int] = set()

    def parse(row: list[str]) -> int:
        p48 = parse_prefix(row[0], 48)
        if p48 in seen:
            raise ValueError(f"{row[0]!r} is listed twice")
        seen.add(p48)
        return p48

    return tuple(read_rows(fh, f"{fh.name}:", 1, parse=parse))


def _stage_path(cfg: dict, stage: str | None, name: str) -> str:
    """Where ``name`` lies under output_dir; ``stage`` must list it in ``_OUTPUTS``."""
    if name not in _OUTPUTS.get(stage, ()):
        raise RuntimeError(f"{name} is not among the outputs of {stage or 'any stage'}")
    return os.path.join(cfg["output_dir"], name)


def _write_stage(cfg: dict, stage: str, name: str):
    """An output of ``stage`` under output_dir, opened for writing by ``open_output``."""
    return open_output(_stage_path(cfg, stage, name))


def _write_json(cfg: dict, stage: str, name: str, obj) -> None:
    with _write_stage(cfg, stage, name) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _remove_outputs(cfg: dict, stage: str) -> None:
    """Remove the files ``stage`` writes under output_dir, any ``.tmp`` left of
    them, and a directory of them that holds nothing else."""
    dirs = set()
    for name in _OUTPUTS[stage]:
        path = os.path.join(cfg["output_dir"], name)
        for target in (path, f"{path}.tmp"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(target)
        if os.path.dirname(name):
            dirs.add(os.path.dirname(path))
    for path in dirs:
        with contextlib.suppress(OSError):  # missing, or not empty
            os.rmdir(path)


# The stages reach the simulator through these two; perfbench's tracer wraps them.
def SimTransport(scenario):
    from .simnet import transport

    return transport.SimTransport(scenario)


def load_scenario(path: str):
    from .simnet import scenario

    return scenario.load_scenario(path)


def _sim_scenario(cfg: dict):
    scenario_path = cfg["transport"].get("scenario")
    if not scenario_path:
        raise ConfigError("missing config value 'transport.scenario' (scenario file for sim mode)")
    return load_scenario(scenario_path)


# ---------------------------------------------------------------- commands


def cmd_seed_filter(cfg: dict, args: argparse.Namespace) -> int:
    from . import seedprep

    seed_path = _require(cfg, "seed_list", "path to the /48 seed list")
    as_path = _require(cfg, "as_map", "prefix-to-AS category map")
    conn_path = _require(cfg, "conn_map", "prefix-to-connection-type map")
    with open(seed_path, encoding="utf-8") as fh:
        try:
            seeds = seedprep.parse_prefix_list(fh.read())
        except UnicodeDecodeError as exc:
            raise ValueError(f"{seed_path}: line {undecodable_line(fh, exc)}: {exc}") from None
        except ValueError as exc:  # a line that does not parse
            raise ValueError(f"{seed_path}: {exc}") from None
    filtered = seedprep.filter_seeds(
        seeds, seedprep.load_as_map(as_path), seedprep.load_connection_map(conn_path)
    )
    with _write_stage(cfg, "seed-filter", "seeds.txt") as fh:
        write_rows(fh, ((f"{format_address(p48)}/48",) for p48 in filtered.prefixes))
    stats = dict(seeds.provenance)
    stats.update(filtered.provenance)
    _write_json(cfg, "seed-filter", "seed_stats.json", stats)
    print(
        f"seed-filter: {stats['input']} in, {stats['after_category']} residential-AS, "
        f"{stats['after_connection']} kept"
    )
    return 0


def cmd_plan(cfg: dict, args: argparse.Namespace) -> int:
    from . import targetgen

    seeds = _read_stage(cfg, "seeds.txt", _read_seeds)
    plan = targetgen.build_plan(seeds, cfg["rng_seed"])
    print(f"plan: {len(plan.seeds)} seeds, budget {plan.budget} probes")
    if args.dump:
        with _write_stage(cfg, "plan", "plan_preview.txt") as fh:
            count = plan.dump(fh, args.dump)
        print(f"plan: wrote first {count} targets to plan_preview.txt")
    return 0


def cmd_scan(cfg: dict, args: argparse.Namespace) -> int:
    from . import probe, targetgen

    seeds = _read_stage(cfg, "seeds.txt", _read_seeds)
    plan = targetgen.build_plan(seeds, cfg["rng_seed"])
    print(f"scan: {len(plan.seeds)} seeds, budget {plan.budget} probes")

    mode = cfg["transport"]["mode"]
    if mode == "live":
        contact = _require_operator_contact(cfg)
        _require(cfg, "rate_pps", "live probing requires a rate cap")
        clock = probe.LiveTransport  # real time: a bad rate_pps then opens no socket
    else:
        transport = clock = SimTransport(_sim_scenario(cfg))
    rate = None if cfg["rate_pps"] is None else probe.RateLimiter(int(cfg["rate_pps"]), clock)
    if mode == "live":
        transport = probe.LiveTransport(contact)
    try:
        log = probe.run_scan(
            plan.addresses(),
            transport,
            os.urandom(16),  # per-scan token key, never stored: replies cannot be forged
            rate=rate,
            quiescence_s=float(cfg["probe_timeout_s"]),
        )
    finally:
        if mode == "live":
            transport.close()  # the raw socket
    with _write_stage(cfg, "scan", "responses.csv") as fh:
        probe.write_response_log(sorted(log.records, key=lambda r: (r.probed_target, r.source)), fh)
    status = "complete" if log.complete else "ABORTED (partial log)"
    skipped = "".join(
        f"skipped {n} ({name}), " for name, n in sorted(log.send_errors.items())
    )
    print(
        f"scan: sent {log.sent}, kept {len(log.records)} responses, "
        f"dropped {log.spurious} spurious, {skipped}{status}"
    )
    return 0 if log.complete else 1


def cmd_classify(cfg: dict, args: argparse.Namespace) -> int:
    from . import classify, probe

    seeds = _read_stage(cfg, "seeds.txt", _read_seeds)
    records = _read_stage(cfg, "responses.csv", probe.read_response_log)
    result = classify.classify_log(records, seeds=seeds, rng_seed=cfg["rng_seed"])
    with _write_stage(cfg, "classify", "classified.csv") as fh:
        classify.write_classification(result.classified, fh)
    labels = collections.Counter(c.label for c in result.classified)
    stats = {
        "internal": labels[classify.LABEL_INTERNAL],
        "external": labels[classify.LABEL_EXTERNAL],
        "aliased_nets": sorted(f"{format_address(n)}/56" for n in result.aliased_nets),
        "missing_alias_nets": sorted(
            f"{format_address(n)}/56" for n in result.missing_alias_nets
        ),
        "anomalous": len(result.anomalous),
    }
    _write_json(cfg, "classify", "classify_stats.json", stats)
    print(
        f"classify: {stats['internal']} internal, {stats['external']} external, "
        f"{len(result.aliased_nets)} aliased /56s, {stats['anomalous']} anomalous"
    )
    return 0


def cmd_grab(cfg: dict, args: argparse.Namespace) -> int:
    from . import classify, grab, services

    classified = _read_stage(cfg, "classified.csv", classify.read_classification)
    addresses = [format_address(c.address) for c in classified]
    label = grab.USER_AGENT
    if cfg["transport"]["mode"] == "live":
        label = f"{grab.USER_AGENT} (+{_require_operator_contact(cfg)})"
        connector = grab.live_connector
    else:
        from .simnet.services import SimServices

        connector = SimServices(_sim_scenario(cfg)).connector()
    records = grab.run_grab_campaign(
        addresses,
        services.default_services(),
        connector=connector,
        parallelism=int(cfg["grab_parallelism"]),
        timeout=float(cfg["grab_timeout_s"]),
        label=label,
    )
    with _write_stage(cfg, "grab", "grabs.csv") as fh:
        grab.write_grab_log(records, fh)
    responded = sum(1 for r in records if r.outcome == grab.OUTCOME_RESPONDED)
    print(f"grab: {len(records)} attempts over {len(addresses)} addresses, {responded} responded")
    return 0


def cmd_fingerprint(cfg: dict, args: argparse.Namespace) -> int:
    from . import classify, fingerprint, grab

    oui_path = _require(cfg, "oui_db", "OUI-to-vendor table")
    grabs = _read_stage(cfg, "grabs.csv", grab.read_grab_log)
    classified = _read_stage(cfg, "classified.csv", classify.read_classification)
    oui_db = fingerprint.load_oui_db(oui_path)
    hits = fingerprint.fingerprint_records(grabs)
    with _write_stage(cfg, "fingerprint", "fingerprints.csv") as fh:
        fingerprint.write_fingerprints(hits, fh)

    printers = sorted(
        fingerprint.dedupe_printers(fingerprint.collect_hp_printers(grabs)),
        key=lambda p: (p.serial, p.address),
    )
    with _write_stage(cfg, "fingerprint", "hp_printers.csv") as fh:
        write_rows(
            fh,
            ((p.address, p.model, p.serial, p.build or "") for p in printers),
            header=("address", "model", "serial", "build"),
        )

    rows = []
    for c in classified:
        mac = fingerprint.extract_eui64(c.address)
        if mac is None:
            continue
        vendor = fingerprint.oui_vendor(mac, oui_db) or ""
        rows.append((format_address(c.address), mac, vendor))
    with _write_stage(cfg, "fingerprint", "eui64.csv") as fh:
        write_rows(fh, sorted(set(rows)), header=("address", "mac", "vendor"))
    print(
        f"fingerprint: {len(hits)} device hits, {len(printers)} distinct printers, "
        f"{len(rows)} embedded MACs"
    )
    return 0


def cmd_report(cfg: dict, args: argparse.Namespace) -> int:
    from . import classify, fingerprint, grab, report

    geo_path = _require(cfg, "asn_geo", "prefix/ASN/name/country registry table")
    classified = _read_stage(cfg, "classified.csv", classify.read_classification)
    grabs = _read_stage(cfg, "grabs.csv", grab.read_grab_log)
    hits = _read_stage(cfg, "fingerprints.csv", fingerprint.read_fingerprints)
    seeds = _read_stage(cfg, "seeds.txt", _read_seeds)
    tables = report.aggregate(
        classified, grabs, hits, report.load_asn_geo(geo_path), seed_total=len(seeds)
    )
    for name in tables:
        _stage_path(cfg, "report", f"report/{name}")
    outdir = os.path.join(cfg["output_dir"], "report")
    files = report.emit(tables, outdir)
    print(f"report: {len(files)} tables under {outdir}")
    return 0


def cmd_simnet_gen(cfg: dict, args: argparse.Namespace) -> int:
    from .simnet import scenario as sim

    params = sim.ScenarioParams(n48=args.n48, subnets_per_48=args.subnets)
    scenario = sim.generate_scenario(params, cfg["rng_seed"])
    outdir = cfg["output_dir"]
    scenario_json, seeds_all, as_map, conn_map, asn_geo, oui, _config = (
        os.path.join(outdir, name) for name in _OUTPUTS["simnet-gen"]
    )
    os.makedirs(outdir, exist_ok=True)
    sim.save_scenario(scenario, scenario_json)
    for path, text in (
        (seeds_all, sim.seed_lines(scenario)),
        (as_map, sim.as_map_lines(scenario)),
        (conn_map, sim.connection_map_lines(scenario)),
        (asn_geo, sim.asn_geo_lines(scenario)),
        (oui, sim.oui_lines()),
    ):
        with open_output(path) as fh:
            fh.write(text)
    config = {
        **DEFAULT_CONFIG,
        "seed_list": seeds_all,
        "as_map": as_map,
        "conn_map": conn_map,
        "oui_db": oui,
        "asn_geo": asn_geo,
        "rng_seed": cfg["rng_seed"],
        "transport": {"mode": "sim", "scenario": scenario_json},
        "output_dir": outdir,
    }
    _write_json(cfg, "simnet-gen", "config.json", config)
    n_hosts = sum(len(sub.hosts) for net in scenario.nets for sub in net.subnets)
    print(
        f"simnet-gen: {len(scenario.nets)} /48s, {n_hosts} hosts; "
        f"scenario + input files + config.json under {outdir}"
    )
    return 0


# ---------------------------------------------------------------- wiring


def _count(text: str) -> int:
    """A command-line count: decimal digits, so 0 or more."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a count of 0 or more, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resiscan",
        description="Low-rate IPv6 residential scanning pipeline (file-to-file stages).",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override rng_seed")
    parser.add_argument("--out", help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("seed-filter", help="filter the raw seed list down to residential /48s")
    p_plan = sub.add_parser("plan", help="show the probe budget for the filtered seeds")
    p_plan.add_argument("--dump", type=_count, default=0, metavar="N", help="preview first N targets")
    sub.add_parser("scan", help="probe every planned target and log responses")
    sub.add_parser("classify", help="label logged responders internal/external")
    sub.add_parser("grab", help="attempt the service catalog against classified addresses")
    sub.add_parser("fingerprint", help="extract device models, serials and embedded MACs")
    sub.add_parser("report", help="aggregate classified+grabbed data into report tables")
    p_gen = sub.add_parser("simnet-gen", help="generate a simulated deployment for testing")
    p_gen.add_argument("--n48", type=int, default=6, help="number of /48 networks")
    p_gen.add_argument("--subnets", type=int, default=8, help="populated /56s per /48")
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
        if args.seed is not None:
            cfg["rng_seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        _remove_outputs(cfg, args.command)
        try:
            code = COMMANDS[args.command](cfg, args)
            # The summary is part of the stage, buffered or not: if the reader closed
            # stdout, the stage fails here. (print skips a process with no stdout.)
            print(end="", flush=True)
            return code
        except BaseException:
            _remove_outputs(cfg, args.command)
            raise
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry of ``python -m resiscan`` and the ``resiscan`` script.

    Once ``main`` returns, every output is written, fsynced and renamed and
    every grab worker joined, so the process skips the interpreter's teardown
    (as mypy's ``hard_exit`` does). An argparse exit or an exception out of
    ``main`` ends it the usual way.
    """
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        with contextlib.suppress(OSError):  # a closed reader: main has failed the stage
            stream.flush()
    os._exit(code)
