"""The live grab client over real ``::1`` sockets against the simulator's own
behaviors: each campaign must give the records of the same campaign over the
in-memory pipes.

Nothing here is simulated on the client's side: ``grab.live_connector``
opens real TCP and UDP sockets, and every wait runs in real time. So the
grab timeout is 1 s, with enough workers that the silent peers' timeouts
overlap, and no peer waits within a moment of a client's deadline.
"""

from pathlib import Path

import pytest

from conftest import every_behavior_scenario
from loopback import LoopbackServer
from resiscan.addrs import format_address
from resiscan.grab import run_grab_campaign
from resiscan.services import default_services
from resiscan.simnet import ScenarioParams, SimServices, generate_scenario, load_scenario

EXAMPLE = Path(__file__).resolve().parent.parent / "scenarios" / "example.json"
EXTRA = "2001:db8:5:100::9"  # a host added to a scenario, for the pairs below
# Endpoints that answer their catalog grab wrongly or not at all.
MISMATCHES = [
    (21, "telnet", {}),  # a quiet telnet greeting on the ftp port: cut after IDLE_READ_S
    (25, "silent", {"hold_s": 0.3}),  # hangs up long before the client's timeout
    (110, "ssh", {}),  # an ssh greeting read as pop3's first line
    (143, "lockdown", {}),  # each end waits for the other: the read times out
    (443, "http", {}),  # a plaintext server under a TLS handshake
    (631, "tls_http", {"common_name": "ipp.example"}),  # TLS on a plaintext port: one retry
    (1883, "mqtt_broker", {"close_immediately": True}),  # hangs up on an unread CONNECT
    (3306, "banner", {"data_hex": "00"}),  # a one-byte banner, then a close
    (8008, "banner", {"data_hex": b"NOT HTTP".hex()}),  # closes on an unread request
    (8081, "lockdown", {}),  # "GET " read as a plist length over 1 MiB: it hangs up
    (62078, "lockdown", {"mode": "hostile_length"}),
    (8443, "silent", {}),  # no handshake answer within the timeout
    (8883, "mqtt_broker", {"return_code": 0}),
]


def _backend(case):
    if case == "example":
        return SimServices(load_scenario(str(EXAMPLE)))
    if case == "generated":
        params = ScenarioParams(
            n48=1, subnets_per_48=3, aliased_fraction=0.0, deny_fraction=0.0, slaac_fraction=0.0,
            cpe_service_probability=1.0,
        )
        params.host_service_probability = dict.fromkeys(params.host_service_probability, 0.7)
        backend = SimServices(generate_scenario(params, 5))
        # As the service-rich workload does: silent and TLS endpoints on generated hosts.
        first, second, *_ = sorted({format_address(key) for key, _port in backend._endpoints})
        backend.add_endpoint(first, 21, "silent")
        backend.add_endpoint(second, 443, "tls_http", {"common_name": "nas.home.example"})
        return backend
    backend = SimServices(every_behavior_scenario())
    for port, behavior, params in MISMATCHES:
        backend.add_endpoint(EXTRA, port, behavior, params)
    return backend


@pytest.mark.parametrize("case", ["every-behavior", "generated", "example"])
def test_live_client_over_loopback_gives_the_simulated_records(case):
    backend = _backend(case)
    addresses = sorted({format_address(key) for key, _port in backend._endpoints})
    addresses.append("2001:db8:ffff::1")  # serves nothing: every pair is refused
    specs = default_services()
    simulated = run_grab_campaign(
        addresses, specs, connector=backend.connector(), parallelism=1, timeout=1.0
    )
    with LoopbackServer(backend._endpoints) as server:
        live = run_grab_campaign(
            addresses, specs, connector=server.connector, parallelism=64, timeout=1.0
        )
    assert live == simulated
    if case == "every-behavior":
        details = {(r.outcome, r.detail) for r in simulated}
        assert {("timeout", ""), ("error", "connection_closed"), ("error", "bounds")} <= details
        assert ("responded", "tls_on_plain_port") in details
