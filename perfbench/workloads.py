"""Benchmark workloads: seeded simulated deployments and their input files.

Each workload is a ``ScenarioParams`` mix at two scales (``full`` for
measurement, ``smoke`` for the seconds-scale self-check). The workload seed
is the scenario seed and the campaign ``rng_seed``, so one seed fixes every
input byte. Set-up writes exactly what ``resiscan simnet-gen`` writes: the
scenario, the seed/AS/connection/registry/OUI files and a ``config.json``
with the generator's defaults (``probe_timeout_s`` 8.0, ``grab_parallelism``
256), plus the scenario augmentation below for ``service-rich``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from resiscan.cli import DEFAULT_CONFIG
from resiscan.simnet import ScenarioParams, SimService, generate_scenario, save_scenario
from resiscan.simnet.scenario import (
    FIREWALL_ALLOW,
    IID_DHCP_LOW,
    as_map_lines,
    asn_geo_lines,
    connection_map_lines,
    oui_lines,
    seed_lines,
)

# The mixes simnet-gen uses for hop counts, hop-limit profiles and WAN modes.
_EXTRA_HOPS = {0: 0.83, 1: 0.10, 2: 0.05, 3: 0.02}
_HOST_PROFILES = {64: 0.5, 128: 0.3, 255: 0.2}
_CPE_PROFILES = {64: 0.3, 255: 0.7}
_WAN_MODES = {"eui64": 0.4, "random_iid": 0.4, "low_iid": 0.2}

# service-rich augmentation: paths generated scenarios never contain.
SILENT_PORT = 21  # catalog "ftp", a banner read: a silent peer times out
SILENT_SHARE = 0.04
TLS_PORT = 443  # catalog "https", a TLS handshake then HTTP
TLS_SHARE = 0.10
TLS_COMMON_NAMES = ("gw.home.example", "nas.home.example", "cam.home.example")


@dataclass(frozen=True)
class Workload:
    name: str
    n48: dict  # scale -> number of /48s
    params: dict  # ScenarioParams keywords besides n48
    augment: bool = False  # add silent and TLS endpoints


WORKLOADS = {
    w.name: w
    for w in (
        # Many /48s with two populated /56s each: ~99% of probes hit silent
        # space, so the plan, tokens, the send loop and the transport's miss
        # path do the work, and classify and grab have little to do.
        Workload(
            name="sparse-scan",
            n48={"full": 64, "smoke": 4},
            params=dict(
                subnets_per_48=2,
                hosts_per_subnet=(1.0,),
                aliased_fraction=0.0,
                deny_fraction=0.3,
                slaac_fraction=0.0,
                host_service_probability={"ssh": 0.05, "http": 0.10},
                cpe_service_probability=0.1,
                nonresidential_fraction=0.1,
            ),
        ),
        # Every /56 populated and every probe answered: the transport's hit
        # path, token validation on receipt, log I/O, classify's error and
        # alias checks, and a grab made only of refusals.
        Workload(
            name="dense-net",
            n48={"full": 1, "smoke": 1},
            params=dict(
                subnets_per_48=256,
                hosts_per_subnet=(1.0, 2.0),
                aliased_fraction=0.1,
                deny_fraction=0.4,
                slaac_fraction=0.3,
                host_service_probability={},
                cpe_service_probability=0.0,
                nonresidential_fraction=0.0,
            ),
        ),
        # Open firewalls, four DHCPv6 hosts per /56, many services and a cwmp
        # endpoint on every CPE, plus silent and TLS endpoints: grab's
        # responded, timeout and TLS paths, then fingerprint and report.
        Workload(
            name="service-rich",
            n48={"full": 2, "smoke": 1},
            params=dict(
                subnets_per_48=16,
                hosts_per_subnet=(0.0, 0.0, 0.0, 1.0),
                aliased_fraction=0.0,
                deny_fraction=0.0,
                slaac_fraction=0.0,
                host_service_probability={
                    "telnet": 0.15,
                    "ssh": 0.15,
                    "http": 0.40,
                    "hp_printer_http": 0.25,
                    "mqtt_broker": 0.30,
                    "lockdown": 0.25,
                },
                cpe_service_probability=1.0,
                nonresidential_fraction=0.0,
            ),
            augment=True,
        ),
    )
}


def scenario_params(workload: Workload, scale: str) -> ScenarioParams:
    return ScenarioParams(
        n48=workload.n48[scale],
        extra_hops_weights=dict(_EXTRA_HOPS),
        host_profile_weights=dict(_HOST_PROFILES),
        cpe_profile_weights=dict(_CPE_PROFILES),
        wan_mode_weights=dict(_WAN_MODES),
        **workload.params,
    )


def add_silent_and_tls(scenario, seed: int) -> tuple[int, int]:
    """Give a fixed share of reachable hosts a silent and a TLS endpoint.

    Reachable means DHCPv6-addressed behind an allow firewall: the hosts the
    pipeline classifies and grabs. Silent endpoints sit at evenly spaced
    positions in address order, so where the grab campaign meets its
    timeouts does not depend on the seed; TLS hosts are an exact quota drawn
    with the workload seed from the rest. Returns (silent, TLS) endpoints added.
    """
    reachable = [
        host
        for net in scenario.nets
        for sub in net.subnets
        if not sub.aliased and sub.cpe.firewall == FIREWALL_ALLOW
        for host in sub.hosts
        if host.iid_mode == IID_DHCP_LOW
    ]
    n = len(reachable)
    n_silent = max(1, round(SILENT_SHARE * n))
    silent = {int((i + 0.5) * n / n_silent) for i in range(n_silent)}
    rest = [h for i, h in enumerate(reachable) if i not in silent]
    tls = random.Random(seed).sample(rest, min(len(rest), max(1, round(TLS_SHARE * n))))
    for i in sorted(silent):
        reachable[i].services.append(SimService(SILENT_PORT, "silent", {}))
    for i, host in enumerate(tls):
        name = TLS_COMMON_NAMES[i % len(TLS_COMMON_NAMES)]
        host.services.append(
            SimService(TLS_PORT, "tls_http", {"common_name": name, "server": "mini_httpd/1.30"})
        )
    scenario.finalize()
    return len(silent), len(tls)


def build_scenario(workload: Workload, scale: str, seed: int):
    scenario = generate_scenario(scenario_params(workload, scale), seed)
    if workload.augment:
        add_silent_and_tls(scenario, seed)
    return scenario


def write_inputs(scenario, seed: int, outdir: str, overrides: dict | None = None) -> str:
    """Write the scenario and companion files as simnet-gen does; returns the config path.

    ``overrides`` replaces config values; only the smoke check uses it, to
    shorten the timeouts.
    """
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
            "rng_seed": seed,
            "transport": {"mode": "sim", "scenario": os.path.join(outdir, "scenario.json")},
            "output_dir": os.path.join(outdir, "out"),
        }
    )
    config.update(overrides or {})
    path = os.path.join(outdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
