"""Shared fixtures: hand-built simulated deployments with exact, known layouts.

Tests that need precise ground truth build scenarios host by host instead of
using the randomized generator, so every expected value in an assertion is
readable right next to the topology that produces it.
"""

from __future__ import annotations

import os
import re
import threading

import pytest

from resiscan.addrs import parse_address
from resiscan.simnet import Scenario
from resiscan.simnet.scenario import (
    FIREWALL_ALLOW,
    FIREWALL_DENY,
    IID_DHCP_LOW,
    IID_SLAAC_RANDOM,
    SimCpe,
    SimHost,
    SimNet,
    SimService,
    SimSubnet,
    WAN_RANDOM,
)


def make_host(iid, *, mode=IID_DHCP_LOW, extra=0, hop=64, services=None):
    return SimHost(
        iid_mode=mode,
        iid=iid,
        extra_hops=extra,
        initial_hop_limit=hop,
        services=list(services or []),
    )


def make_subnet(
    index,
    *,
    hosts=None,
    firewall=FIREWALL_ALLOW,
    aliased=False,
    base_distance=3,
    cpe_hop=255,
    wan_mode=WAN_RANDOM,
    wan_mac=None,
    wan_iid=None,
    cpe_services=None,
):
    cpe = SimCpe(
        wan_mode=wan_mode,
        firewall=firewall,
        base_distance=base_distance,
        initial_hop_limit=cpe_hop,
        wan_mac=wan_mac,
        wan_iid=wan_iid,
        services=list(cpe_services or []),
    )
    return SimSubnet(
        index=index,
        cpe=cpe,
        aliased=aliased,
        hosts=list(hosts or []),
    )


def make_net(prefix48_text, subnets, *, asn=64500, as_name="Example Net", country="de", **kw):
    return SimNet(
        prefix48=parse_address(prefix48_text),
        asn=asn,
        as_name=as_name,
        country=country,
        subnets=list(subnets),
        **kw,
    )


def make_scenario(nets, rng_seed=11):
    s = Scenario(rng_seed=rng_seed, nets=list(nets))
    s.finalize()
    return s


@pytest.fixture
def tiny_scenario():
    """One /48, three /56s: allow with 2 hosts, deny with 1 host, aliased."""
    net = make_net(
        "2001:db8:10::",
        [
            make_subnet(
                0x05,
                hosts=[make_host(1, hop=64), make_host(2, extra=1, hop=128)],
                base_distance=4,
            ),
            make_subnet(0x11, hosts=[make_host(1)], firewall=FIREWALL_DENY, base_distance=6),
            make_subnet(0x20, aliased=True),
        ],
    )
    return make_scenario([net])


# One endpoint of each simulated behavior, each on a catalog port whose grab it answers.
EVERY_BEHAVIOR = [
    SimService(21, "banner", {"data_hex": b"220 ready\r\n".hex()}),
    SimService(22, "ssh", {"version": "dropbear_2022.83"}),
    SimService(23, "telnet", {"banner": "router login: "}),
    SimService(25, "silent", {}),
    SimService(80, "hp_printer_http", {"model": "HP Smart Tank 580", "serial": "CN12345678"}),
    SimService(123, "ntp", {}),
    SimService(443, "tls_http", {"common_name": "gw.example", "server": "tls-ui"}),
    SimService(1883, "mqtt_broker", {"return_code": 5}),
    SimService(5000, "dahua_http", {}),
    SimService(8000, "nanoleaf_http", {}),
    SimService(8080, "http", {"server": "lighttpd/1.4.59", "body": "<html>ok</html>"}),
    SimService(62078, "lockdown", {"product_version": "17.5"}),
]


def every_behavior_scenario():
    """A host serving EVERY_BEHAVIOR, a CPE serving HTTP, and a host behind a
    default-deny CPE, whose telnet is refused."""
    net = make_net(
        "2001:db8:5::",
        [
            make_subnet(
                1,
                hosts=[make_host(1, services=EVERY_BEHAVIOR)],
                cpe_services=[SimService(7547, "http", {"server": "cwmp-agent/2.1"})],
            ),
            make_subnet(
                2,
                firewall=FIREWALL_DENY,
                hosts=[make_host(1, services=[SimService(23, "telnet", {})])],
            ),
        ],
    )
    return make_scenario([net])


@pytest.fixture
def no_threads(monkeypatch):
    """No thread can start: each ``Thread.start`` raises as an exhausted
    process's does. No real thread or memory is exhausted."""

    def start(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_stage_table() -> dict[str, tuple[list[str], list[str]]]:
    """The README's stage table: each stage with the files its ``reads`` and
    ``writes`` cells name. A file is a backticked word; the rest of a cell is
    prose or names a reference table, which the config gives."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Pipeline stages\n", 1)[1]
    rows = section.strip().split("\n\n", 1)[0].splitlines()[2:]  # after the header
    table = {}
    for row in rows:
        stage, reads, writes = (re.findall(r"`([^`\s]+)`", c) for c in row.strip("|").split("|"))
        table[stage[0]] = (reads, writes)
    return table


__all__ = [
    "EVERY_BEHAVIOR",
    "FIREWALL_ALLOW",
    "FIREWALL_DENY",
    "IID_DHCP_LOW",
    "IID_SLAAC_RANDOM",
    "SimService",
    "every_behavior_scenario",
    "make_host",
    "make_net",
    "make_scenario",
    "make_subnet",
    "readme_stage_table",
]
