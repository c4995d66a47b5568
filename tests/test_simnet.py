import dataclasses
import hashlib
import json

import pytest

from conftest import (
    FIREWALL_DENY,
    IID_SLAAC_RANDOM,
    SimService,
    make_host,
    make_net,
    make_scenario,
    make_subnet,
)
from resiscan.addrs import SUBNET_SHIFT, format_address, parse_address
from resiscan.fingerprint import extract_eui64
from resiscan.probe import ICMP6_DEST_UNREACH, ICMP6_ECHO_REPLY
from resiscan.seedprep import load_as_map, load_connection_map, parse_prefix_list
from resiscan.simnet import (
    Scenario,
    ScenarioError,
    ScenarioParams,
    SimServices,
    SimTransport,
    expected_grab_outcomes,
    generate_scenario,
    ground_truth,
    load_scenario,
    save_scenario,
)
from resiscan.simnet.scenario import (
    _FIELD_TABLES,
    as_map_lines,
    asn_geo_lines,
    connection_map_lines,
    derived_iid,
    eui64_iid,
    oui_lines,
    scenario_from_dict,
    scenario_to_dict,
    seed_lines,
)
from resiscan.services import ServiceSpec


def minimal_doc():
    """A valid scenario document holding only required keys."""
    return {
        "rng_seed": 1,
        "nets": [
            {
                "prefix48": "2001:db8:1::/48",
                "asn": 1,
                "subnets": [
                    {
                        "index": 3,
                        "cpe": {
                            "wan_mode": "random_iid",
                            "firewall": "default_allow",
                            "base_distance": 2,
                        },
                        "hosts": [
                            {
                                "iid_mode": "dhcp_low",
                                "iid": 1,
                                "services": [{"port": 23, "behavior": "telnet"}],
                            }
                        ],
                    }
                ],
            }
        ],
    }


def net(doc):
    return doc["nets"][0]


def subnet(doc):
    return net(doc)["subnets"][0]


def host(doc):
    return subnet(doc)["hosts"][0]


def wan_addresses(scenario):
    """The CPE WAN address of every subnet, in file order."""
    return [wan for _net, _sub, _net56, wan in scenario.iter_subnets()]


class TestEui64:
    def test_known_example(self):
        # 00:1b:2c:aa:bb:cc -> flip U/L bit of first octet, insert ff:fe.
        assert eui64_iid("00:1b:2c:aa:bb:cc") == 0x021B2CFFFEAABBCC

    def test_another_example(self):
        assert eui64_iid("6c:55:c3:01:02:03") == 0x6E55C3FFFE010203

    def test_bad_mac_rejected(self):
        with pytest.raises(ScenarioError):
            eui64_iid("00:1b:2c:aa:bb")
        with pytest.raises(ScenarioError):
            eui64_iid("00:1b:2c:aa:bb:zz")


class TestDerivedIid:
    def test_deterministic(self):
        assert derived_iid(1, b"wan-iid", 5) == derived_iid(1, b"wan-iid", 5)
        assert derived_iid(1, b"wan-iid", 5) != derived_iid(2, b"wan-iid", 5)
        assert derived_iid(1, b"wan-iid", 5) != derived_iid(1, b"slaac", 5)

    def test_never_low_or_eui64_shaped(self):
        for counter in range(2000):
            iid = derived_iid(3, b"slaac", counter)
            assert iid >> 63 == 1  # top bit forced
            raw = iid.to_bytes(8, "big")
            assert not (raw[3] == 0xFF and raw[4] == 0xFE)

    def test_eui64_infix_cleared(self):
        # This digest carries ff:fe at bytes 3-4; the IID keeps it with byte 3 zeroed.
        key = (1).to_bytes(8, "big")
        digest = hashlib.blake2b(b"slaac" + (75425).to_bytes(8, "big"), key=key, digest_size=8)
        assert digest.hexdigest() == "f5afe2fffe9f972f"
        assert derived_iid(1, b"slaac", 75425) == 0xF5AFE200FE9F972F
        assert extract_eui64(derived_iid(1, b"slaac", 75425)) is None


class TestValidation:
    def test_bits_below_48_rejected(self):
        # The file decoder refuses such a prefix first; a scenario built in code is checked too.
        net = make_net("2001:db8:1:1::", [make_subnet(0, hosts=[make_host(1)])])
        with pytest.raises(ScenarioError, match="bits below /48"):
            make_scenario([net])

    def test_duplicate_48_rejected(self):
        net = make_net("2001:db8:1::", [make_subnet(0, hosts=[make_host(1)])])
        dup = make_net("2001:db8:1::", [make_subnet(1, hosts=[make_host(1)])])
        with pytest.raises(ScenarioError, match="/48"):
            make_scenario([net, dup])

    def test_duplicate_subnet_index_rejected(self):
        net = make_net(
            "2001:db8:1::",
            [make_subnet(4, hosts=[make_host(1)]), make_subnet(4, hosts=[make_host(2)])],
        )
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_dhcp_iid_range_enforced(self):
        net = make_net("2001:db8:1::", [make_subnet(0, hosts=[make_host(11)])])
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_slaac_iid_must_be_high(self):
        net = make_net(
            "2001:db8:1::",
            [make_subnet(0, hosts=[make_host(40, mode=IID_SLAAC_RANDOM)])],
        )
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_base_distance_bounds(self):
        net = make_net("2001:db8:1::", [make_subnet(0, hosts=[make_host(1)], base_distance=0)])
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_extra_hops_bounds(self):
        net = make_net("2001:db8:1::", [make_subnet(0, hosts=[make_host(1, extra=9)])])
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_eui64_needs_mac(self):
        net = make_net(
            "2001:db8:1::", [make_subnet(0, hosts=[make_host(1)], wan_mode="eui64")]
        )
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_bad_hop_profile_rejected(self):
        net = make_net("2001:db8:1::", [make_subnet(0, hosts=[make_host(1, hop=100)])])
        with pytest.raises(ScenarioError):
            make_scenario([net])

    def test_duplicate_host_iids_rejected(self):
        net = make_net(
            "2001:db8:1::", [make_subnet(0, hosts=[make_host(1), make_host(1)])]
        )
        with pytest.raises(ScenarioError):
            make_scenario([net])


class TestScenarioFile:
    def test_json_roundtrip(self, tiny_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(tiny_scenario, str(path))
        loaded = load_scenario(str(path))
        assert scenario_to_dict(loaded) == scenario_to_dict(tiny_scenario)
        # WAN addresses are derived identically on load.
        assert wan_addresses(loaded) == wan_addresses(tiny_scenario)

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"rng_seed": 1})
        with pytest.raises(ScenarioError):
            scenario_from_dict({"rng_seed": 1, "nets": [{"bogus": True}]})
        scenario_from_dict(minimal_doc())  # the base every case below breaks

        def broken(change):
            doc = minimal_doc()
            change(doc)
            return doc

        cases = [
            # a record that is not an object
            5,
            [],
            broken(lambda d: d.update(nets=[5])),
            broken(lambda d: d.update(nets=5)),
            broken(lambda d: net(d).update(subnets=["x"])),
            broken(lambda d: subnet(d).update(cpe=[])),
            broken(lambda d: subnet(d).update(hosts=[None])),
            broken(lambda d: host(d).update(services=[[23, "telnet"]])),
            # a required key missing
            broken(lambda d: d.pop("rng_seed")),
            broken(lambda d: net(d).pop("asn")),
            broken(lambda d: subnet(d).pop("cpe")),
            broken(lambda d: subnet(d)["cpe"].pop("firewall")),
            broken(lambda d: host(d).pop("iid")),
            broken(lambda d: host(d)["services"][0].pop("port")),
            # a text field of the wrong JSON type
            broken(lambda d: d.update(wan_base=5)),
            broken(lambda d: net(d).update(prefix48=5)),
            broken(lambda d: net(d).update(as_name=5)),
            broken(lambda d: net(d).update(country=None)),
            broken(lambda d: subnet(d)["cpe"].update(wan_mode=1)),
            broken(lambda d: subnet(d)["cpe"].update(wan_mac=5)),
            broken(lambda d: host(d).update(iid_mode=["dhcp_low"])),
            broken(lambda d: host(d)["services"][0].update(behavior=23)),
            # a number or flag field of the wrong JSON type
            broken(lambda d: subnet(d).update(aliased="false")),
            broken(lambda d: host(d)["services"][0].update(port="80")),
            broken(lambda d: subnet(d)["cpe"].update(base_distance=3.7)),
            broken(lambda d: host(d).update(iid=True)),
            # service parameters that are not a JSON object
            broken(lambda d: host(d)["services"][0].update(params=[["banner", "x"]])),
            broken(lambda d: host(d)["services"][0].update(params=[])),
            broken(lambda d: host(d)["services"][0].update(params="")),
            broken(lambda d: host(d)["services"][0].update(params="ab")),
        ]
        for doc in cases:
            try:
                scenario_from_dict(doc)
            except ScenarioError as exc:
                assert str(exc).startswith("malformed scenario document: "), doc
            else:
                pytest.fail(f"accepted {doc}")

        # a document that decodes but that the scenario refuses, by its message
        low_iid_wan = {"wan_mode": "low_iid", "wan_iid": 11}
        refused = [
            (broken(lambda d: d.update(nets=[])), "no networks"),
            (broken(lambda d: d.update(wan_base="2001:db8::")), "overlaps the WAN"),
            (broken(lambda d: subnet(d).update(index=256)), "subnet index 256 out of range"),
            (broken(lambda d: subnet(d).update(index=-1)), "subnet index -1 out of range"),
            (broken(lambda d: subnet(d)["cpe"].update(firewall="open")), "bad firewall 'open'"),
            (broken(lambda d: subnet(d)["cpe"].update(wan_mode="dhcp")), "bad wan mode 'dhcp'"),
            (broken(lambda d: subnet(d)["cpe"].update(low_iid_wan)), "wan_iid in 1..10"),
            (broken(lambda d: subnet(d)["cpe"].update(initial_hop_limit=100)), "cpe initial_hop"),
            (broken(lambda d: host(d).update(iid_mode="static")), "bad iid_mode 'static'"),
        ]
        for doc, message in refused:
            with pytest.raises(ScenarioError, match=message):
                scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "record",
        [lambda d: d, net, subnet, lambda d: subnet(d)["cpe"], host, lambda d: host(d)["services"][0]],
        ids=["scenario", "net", "subnet", "cpe", "host", "service"],
    )
    def test_unknown_key_refused(self, record):
        doc = minimal_doc()
        record(doc)["aliassed"] = True
        with pytest.raises(ScenarioError, match="malformed scenario document: .*unknown key 'aliassed'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "prefix48", ["2001:db8:4100::/32", "2001:db8:1::/garbage", "2001:db8:1::", "2001:db8:1::/49"]
    )
    def test_prefix48_must_be_a_48(self, prefix48):
        doc = minimal_doc()
        net(doc)["prefix48"] = prefix48
        with pytest.raises(ScenarioError, match="malformed scenario document: .*prefix48"):
            scenario_from_dict(doc)

    def test_omitted_keys_take_the_defaults(self):
        spelled_out = minimal_doc()
        spelled_out["wan_base"] = "3fff:64::"
        net(spelled_out).update(
            as_name="", country="zz", category="Internet Service Provider", connection="cable_dsl"
        )
        subnet(spelled_out).update(aliased=False)
        subnet(spelled_out)["cpe"].update(
            initial_hop_limit=255, wan_mac=None, wan_iid=None, services=[]
        )
        host(spelled_out).update(extra_hops=0, initial_hop_limit=64)
        host(spelled_out)["services"][0]["params"] = {}
        spelled_out["nets"].append({"prefix48": "2001:db8:2::/48", "asn": 2, "subnets": []})
        minimal = minimal_doc()
        minimal["nets"].append({"prefix48": "2001:db8:2::/48", "asn": 2})
        assert scenario_from_dict(minimal) == scenario_from_dict(spelled_out)

    def test_saved_bytes_known_answer(self, tmp_path):
        # The document pin is the SHA-256 of the file re-indented with sorted
        # keys, so it holds across layouts; the bytes pin is the compact
        # one-line file save_scenario writes.
        params = ScenarioParams(
            n48=3,
            subnets_per_48=6,
            aliased_fraction=0.15,
            slaac_fraction=0.4,
            hosts_per_subnet=(1.0, 1.0),
            host_service_probability={
                "telnet": 0.5,
                "ssh": 0.3,
                "http": 0.3,
                "hp_printer_http": 0.3,
                "mqtt_broker": 0.3,
                "lockdown": 0.3,
            },
            cpe_service_probability=0.5,
            nonresidential_fraction=0.34,
            # Set here, so the pin does not follow ScenarioParams' defaults.
            deny_fraction=0.2,
            extra_hops_weights={0: 1.0},
            wan_mode_weights={"eui64": 0.4, "random_iid": 0.5, "low_iid": 0.1},
        )
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(params, 19), str(path))
        raw = path.read_bytes()
        indented = json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(indented.encode()).hexdigest() == (
            "9ae53fc83050f2e95281f3799b5d826c9fc03cf1ad11947ecc35856325022252"
        )
        assert raw.count(b"\n") == 1 and raw.endswith(b"\n")
        assert hashlib.sha256(raw).hexdigest() == (
            "2b29db11b6987880740ee2b02338962899d3479c1fed588d3459d57d772ec01d"
        )

    def test_field_tables_cover_every_field(self):
        for cls, table in _FIELD_TABLES.items():
            assert list(table) == [f.name for f in dataclasses.fields(cls)], cls.__name__


class TestTransportRules:
    def test_allow_host_echo_reply_hop_arithmetic(self, tiny_scenario):
        t = SimTransport(tiny_scenario)
        net = tiny_scenario.nets[0]
        base = net.prefix48 | (0x05 << SUBNET_SHIFT)
        t.send(base | 1, 7, 8, b"x")
        (ev,) = t.poll(0)
        assert ev.icmp_type == ICMP6_ECHO_REPLY
        assert ev.source == base | 1
        assert ev.hop_limit == 64 - 4  # initial 64, base distance 4
        assert (ev.ident, ev.seq, ev.payload) == (7, 8, b"x")
        # Second host: initial 128, distance 4+1.
        t.send(base | 2, 1, 1, b"y")
        (ev2,) = t.poll(0)
        assert ev2.hop_limit == 128 - 5

    def test_unassigned_address_unreachable_from_wan(self, tiny_scenario):
        t = SimTransport(tiny_scenario)
        net = tiny_scenario.nets[0]
        base = net.prefix48 | (0x05 << SUBNET_SHIFT)
        t.send(base | 9, 1, 1, b"z")
        (ev,) = t.poll(0)
        assert ev.icmp_type == ICMP6_DEST_UNREACH
        assert ev.icmp_code == 3
        assert ev.source == wan_addresses(tiny_scenario)[0]
        assert ev.quoted_target == base | 9
        assert ev.hop_limit == 255 - 4  # CPE initial 255 at base distance

    def test_deny_firewall_admin_prohibited(self, tiny_scenario):
        t = SimTransport(tiny_scenario)
        net = tiny_scenario.nets[0]
        base = net.prefix48 | (0x11 << SUBNET_SHIFT)
        t.send(base | 1, 1, 1, b"q")  # host exists but the firewall drops it
        (ev,) = t.poll(0)
        assert ev.icmp_type == ICMP6_DEST_UNREACH
        assert ev.icmp_code == 1
        assert ev.source == wan_addresses(tiny_scenario)[1]

    def test_deny_firewall_refuses_connections(self):
        # The same service answers behind an open CPE and is refused behind a closed one.
        telnet = [SimService(23, "telnet", {})]
        net = make_net(
            "2001:db8:7::",
            [
                make_subnet(1, hosts=[make_host(1, services=telnet)]),
                make_subnet(2, hosts=[make_host(1, services=telnet)], firewall=FIREWALL_DENY),
            ],
        )
        backend = SimServices(make_scenario([net]))
        with backend.connect("2001:db8:7:100::1", 23, timeout=2.0) as sock:
            assert sock.recv(64)
        with pytest.raises(ConnectionRefusedError):
            backend.connect("2001:db8:7:200::1", 23)

    def test_aliased_net_answers_everything(self, tiny_scenario):
        t = SimTransport(tiny_scenario)
        net = tiny_scenario.nets[0]
        base = net.prefix48 | (0x20 << SUBNET_SHIFT)
        for offset in (1, 0xDEAD, (0x42 << 64) | 0xFFFF_FFFF):
            t.send(base | offset, 1, 1, b"a")
            (ev,) = t.poll(0)
            assert ev.icmp_type == ICMP6_ECHO_REPLY
            assert ev.source == base | offset

    def test_unpopulated_and_foreign_space_silent(self, tiny_scenario):
        t = SimTransport(tiny_scenario)
        net = tiny_scenario.nets[0]
        t.send(net.prefix48 | (0x77 << SUBNET_SHIFT) | 1, 1, 1, b"s")
        t.send(parse_address("2001:db8:9999::1"), 1, 1, b"s")
        assert t.poll(0) == []
        before = t.monotonic()
        assert t.poll(0.25) == []  # nothing in flight: an empty poll moves the clock by its wait
        assert t.monotonic() == before + 0.25

    def test_host_outside_first_64_not_reachable(self, tiny_scenario):
        # Hosts live in the /56's selector-0 /64 only.
        t = SimTransport(tiny_scenario)
        net = tiny_scenario.nets[0]
        base = net.prefix48 | (0x05 << SUBNET_SHIFT)
        t.send(base | (1 << 64) | 1, 1, 1, b"w")
        (ev,) = t.poll(0)
        assert ev.icmp_type == ICMP6_DEST_UNREACH

    def test_virtual_timestamps_reproducible(self, tiny_scenario):
        def run():
            t = SimTransport(tiny_scenario)
            net = tiny_scenario.nets[0]
            base = net.prefix48 | (0x05 << SUBNET_SHIFT)
            out = []
            for n in (1, 2, 9):
                t.send(base | n, 0, 0, b"")
                out.extend((e.source, e.timestamp_us) for e in t.poll(0))
            return out

        assert run() == run()


class TestServiceLookup:
    """Connector address text in any form reaches the endpoint registered for it."""

    GREETING = {"data_hex": b"hello\r\n".hex()}

    @staticmethod
    def backend():
        telnet = [SimService(23, "telnet", {"banner": "x"})]
        net = make_net("2001:db8:7::", [make_subnet(1, hosts=[make_host(1, services=telnet)])])
        return SimServices(make_scenario([net]))

    @staticmethod
    def greeting(backend, address):
        with backend.connect(address, 21, timeout=2.0) as sock:
            return sock.recv(64)

    @pytest.mark.parametrize(
        "registered, asked",
        [
            ("2001:db8:9:100::1", "2001:DB8:9:100::1"),
            ("2001:db8:9:100::1", "2001:0db8:0009:0100:0000:0000:0000:0001"),
            ("2001:DB8:9:100::1", "2001:db8:9:100::1"),
        ],
    )
    def test_text_forms_reach_the_endpoint(self, registered, asked):
        backend = self.backend()
        backend.add_endpoint(registered, 21, "banner", self.GREETING)
        assert self.greeting(backend, asked) == b"hello\r\n"
        assert len(backend.transcripts_for(registered, 21)) == 1

    def test_scenario_hosts_reach_by_text(self):
        backend = self.backend()
        for text in ("2001:db8:7:100::1", "2001:DB8:7:100:0:0:0:1"):
            with backend.connect(text, 23, timeout=2.0) as sock:
                assert sock.recv(64).endswith(b"x")

    @pytest.mark.parametrize(
        "text",
        [
            "2001:db8::zz", "", "[]", "192.0.2", "192.0.2.017", "fe80::1%eth0", "::1\x00", "é",
            "192.0.2.17", "[2001:db8:9:100::1]", " 2001:db8:9:100::1 ",
        ],
    )
    def test_unparsable_text_refused(self, text):
        backend = self.backend()
        with pytest.raises(ConnectionRefusedError, match="unparsable"):
            backend.connect(text, 21)

    TYPO = [SimService(80, "htpp", {})]  # no such behavior

    @pytest.mark.parametrize(
        "subnet, where",
        [
            (make_subnet(1, hosts=[make_host(1, services=TYPO)]), "2001:db8:7:100::1"),
            (make_subnet(3, cpe_services=TYPO), "3fff:"),
            # Endpoints that nothing serves still name a behavior that must exist.
            (
                make_subnet(1, aliased=True, hosts=[make_host(1, services=TYPO)]),
                "2001:db8:7:100::1",
            ),
            (make_subnet(3, aliased=True, cpe_services=TYPO), "3fff:"),
            (
                make_subnet(4, firewall=FIREWALL_DENY, hosts=[make_host(2, services=TYPO)]),
                "2001:db8:7:400::2",
            ),
        ],
        ids=["host", "cpe", "aliased-host", "aliased-cpe", "denied-host"],
    )
    def test_unknown_behavior_fails_the_load(self, subnet, where):
        scenario = make_scenario([make_net("2001:db8:7::", [subnet])])
        with pytest.raises(ScenarioError, match="unknown behavior 'htpp' at ") as exc:
            SimServices(scenario)
        assert where in str(exc.value) and str(exc.value).endswith(" port 80")

    def test_unknown_behavior_added_fails(self):
        backend = self.backend()
        with pytest.raises(ScenarioError, match="unknown behavior 'htpp' at 2001:db8:9::1 port 80"):
            backend.add_endpoint("2001:db8:9::1", 80, "htpp")
        with pytest.raises(ConnectionRefusedError):
            backend.connect("2001:db8:9::1", 80)

    def test_aliased_net_refuses_every_connection(self, tiny_scenario):
        # An aliased /56 echoes every probe, but no address in it serves a port.
        backend = SimServices(tiny_scenario)
        base = tiny_scenario.nets[0].prefix48 | (0x20 << SUBNET_SHIFT)
        for offset in (1, 0xDEAD, (0xFF << 64) | 0xFFFF_FFFF_FFFF_FFFF):
            with pytest.raises(ConnectionRefusedError, match="closed"):
                backend.connect(format_address(base | offset), 23)
        assert backend.transcripts == []


class TestGroundTruth:
    def test_tiny_scenario_truth(self, tiny_scenario):
        gt = ground_truth(tiny_scenario)
        net = tiny_scenario.nets[0]
        sub5 = net.prefix48 | (0x05 << SUBNET_SHIFT)
        sub11 = net.prefix48 | (0x11 << SUBNET_SHIFT)
        sub20 = net.prefix48 | (0x20 << SUBNET_SHIFT)
        assert gt.aliased == {sub20}
        assert gt.populated == {sub5, sub11, sub20}
        assert gt.internal == {sub5 | 1: 4, sub5 | 2: 5}
        assert gt.external == {
            sub5: (wan_addresses(tiny_scenario)[0], 4),
            sub11: (wan_addresses(tiny_scenario)[1], 6),
        }
        assert sorted(gt.deltas) == [0, 1]

    def test_wan_numbering_counts_aliased_and_filtered_subnets(self):
        first = make_net(
            "2001:db8:1::", [make_subnet(1, aliased=True), make_subnet(2, hosts=[make_host(1)])]
        )
        second = make_net("2001:db8:2::", [make_subnet(3, hosts=[make_host(1)])])
        scenario = make_scenario([first, second])
        wans = wan_addresses(scenario)
        assert [wan >> 64 for wan in wans] == [(scenario.wan_base >> 64) | n for n in (1, 2, 3)]
        gt = ground_truth(scenario, seeds={second.prefix48})
        assert gt.external == {second.prefix48 | (3 << SUBNET_SHIFT): (wans[2], 3)}

    def test_expected_grab_outcomes(self):
        host_services = [SimService(23, "telnet", {}), SimService(21, "silent", {})]
        net = make_net(
            "2001:db8:1::",
            [
                make_subnet(
                    1,
                    hosts=[make_host(1, services=host_services)],
                    cpe_services=[SimService(7547, "http", {})],
                ),
                make_subnet(
                    2,
                    hosts=[make_host(1, services=[SimService(23, "telnet", {})])],
                    firewall=FIREWALL_DENY,
                ),
                make_subnet(3, aliased=True),
            ],
        )
        scenario = make_scenario([net])
        specs = [
            ServiceSpec("telnet", 23, "tcp", "banner_read"),
            ServiceSpec("ftp", 21, "tcp", "banner_read"),
            ServiceSpec("cwmp", 7547, "tcp", "http_get"),
        ]
        open_wan, deny_wan, _alias_wan = wan_addresses(scenario)
        host = net.prefix48 | (1 << SUBNET_SHIFT) | 1
        assert expected_grab_outcomes(scenario, specs) == {
            (open_wan, "telnet"): "refused",
            (open_wan, "ftp"): "refused",
            (open_wan, "cwmp"): "responded",
            (host, "telnet"): "responded",
            (host, "ftp"): "timeout",
            (host, "cwmp"): "refused",
            (deny_wan, "telnet"): "refused",
            (deny_wan, "ftp"): "refused",
            (deny_wan, "cwmp"): "refused",
        }
        assert expected_grab_outcomes(scenario, specs, seeds=set()) == {}

    def test_seed_restriction(self, tiny_scenario):
        gt = ground_truth(tiny_scenario, seeds=set())
        assert not gt.internal and not gt.external and not gt.populated

    def test_slaac_hosts_not_internal_truth(self):
        net = make_net(
            "2001:db8:3::",
            [
                make_subnet(
                    0,
                    hosts=[
                        make_host(1),
                        make_host(derived_iid(9, b"slaac", 1), mode=IID_SLAAC_RANDOM),
                    ],
                )
            ],
        )
        gt = ground_truth(make_scenario([net]))
        assert list(gt.internal) == [net.prefix48 | 1]


class TestGenerator:
    def test_deterministic(self):
        params = ScenarioParams(n48=5, subnets_per_48=10, aliased_fraction=0.2)
        a = generate_scenario(params, 42)
        b = generate_scenario(params, 42)
        assert scenario_to_dict(a) == scenario_to_dict(b)
        c = generate_scenario(params, 43)
        assert scenario_to_dict(a) != scenario_to_dict(c)

    def test_quota_realization_exact(self):
        params = ScenarioParams(
            n48=4, subnets_per_48=12, aliased_fraction=0.25, deny_fraction=0.25
        )
        scenario = generate_scenario(params, 7)
        subs = [sub for net in scenario.nets for sub in net.subnets]
        assert len(subs) == 48
        assert sum(1 for s in subs if s.aliased) == 12
        plain = [s for s in subs if not s.aliased]
        # deny quota is drawn over the non-aliased population.
        assert sum(1 for s in plain if s.cpe.firewall == FIREWALL_DENY) == 12

    def test_all_aliased(self):
        params = ScenarioParams(n48=2, subnets_per_48=4, aliased_fraction=1.0, deny_fraction=0.0)
        scenario = generate_scenario(params, 3)
        assert all(sub.aliased for net in scenario.nets for sub in net.subnets)
        assert not ground_truth(scenario).internal

    def test_extra_hops_quota(self):
        params = ScenarioParams(
            n48=2,
            subnets_per_48=10,
            deny_fraction=0.0,
            extra_hops_weights={0: 0.5, 2: 0.5},
            # Set here, so the scenario does not follow ScenarioParams' defaults.
            hosts_per_subnet=(1.0,),
            aliased_fraction=0.0,
            slaac_fraction=0.0,
            wan_mode_weights={"eui64": 0.4, "random_iid": 0.5, "low_iid": 0.1},
            host_service_probability={},
            cpe_service_probability=0.0,
            nonresidential_fraction=0.0,
        )
        scenario = generate_scenario(params, 11)
        extras = [h.extra_hops for net in scenario.nets for s in net.subnets for h in s.hosts]
        assert len(extras) == 20
        assert extras.count(0) == 10 and extras.count(2) == 10

    def test_nonresidential_nets_marked(self):
        params = ScenarioParams(n48=4, nonresidential_fraction=0.5)
        scenario = generate_scenario(params, 5)
        cats = [net.category for net in scenario.nets]
        assert cats.count("Internet Service Provider") == 2

    def test_generated_scenario_validates_and_roundtrips(self, tmp_path):
        params = ScenarioParams(
            n48=3,
            subnets_per_48=6,
            aliased_fraction=0.15,
            slaac_fraction=0.4,
            hosts_per_subnet=(1.0, 1.0),
            host_service_probability={"telnet": 0.5, "hp_printer_http": 0.3},
            cpe_service_probability=0.5,
        )
        scenario = generate_scenario(params, 19)
        path = tmp_path / "s.json"
        save_scenario(scenario, str(path))
        assert scenario_to_dict(load_scenario(str(path))) == scenario_to_dict(scenario)

    def test_aliased_subnets_carry_no_cpe_service(self):
        # Nothing serves or checks an aliased /56's CPE, so the generator gives it none.
        params = ScenarioParams(n48=20, subnets_per_48=16, aliased_fraction=0.1, cpe_service_probability=0.5)
        scenario = generate_scenario(params, 1)
        subnets = [s for net in scenario.nets for s in net.subnets]
        assert any(s.aliased for s in subnets)
        assert not any(s.cpe.services for s in subnets if s.aliased)
        assert any(s.cpe.services for s in subnets if not s.aliased)

    def test_invalid_params_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioParams(n48=0).validate()
        with pytest.raises(ScenarioError):
            ScenarioParams(aliased_fraction=0.7, deny_fraction=0.7).validate()
        with pytest.raises(ScenarioError):
            ScenarioParams(hosts_per_subnet=tuple([1.0] * 11)).validate()
        refused = [
            (dict(subnets_per_48=0), "subnets_per_48 must be in 1..256"),
            (dict(subnets_per_48=257), "subnets_per_48 must be in 1..256"),
            (dict(slaac_fraction=-0.1), "slaac_fraction must be in"),
            (dict(nonresidential_fraction=1.5), "nonresidential_fraction must be in"),
            (dict(hosts_per_subnet=(0.0, 0.0)), "hosts_per_subnet needs positive weight"),
            (dict(hosts_per_subnet=()), "hosts_per_subnet needs positive weight"),
        ]
        for change, message in refused:
            with pytest.raises(ScenarioError, match=message):
                ScenarioParams(**change).validate()

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(wan_mode_weights={"eui64": 0.0, "random_iid": 0.0}), "weights must sum"),
            (dict(host_profile_weights={64: 0.0}), "weights must sum"),
            (dict(n48=(1 << 16) + 1, subnets_per_48=1), "n48 exceeds the generator's /32"),
        ],
        ids=["wan_mode_mix", "host_profile_mix", "n48"],
    )
    def test_generator_refuses_params(self, change, message):
        with pytest.raises(ScenarioError, match=message):
            generate_scenario(ScenarioParams(**change), 1)


class TestCompanionFiles:
    def test_seed_and_maps_drive_seedprep(self, tmp_path):
        params = ScenarioParams(n48=4, nonresidential_fraction=0.25)
        scenario = generate_scenario(params, 23)
        (tmp_path / "as.csv").write_text(as_map_lines(scenario))
        (tmp_path / "conn.csv").write_text(connection_map_lines(scenario))
        seeds = parse_prefix_list(seed_lines(scenario))
        assert len(seeds.prefixes) == 4
        from resiscan.seedprep import filter_seeds

        kept = filter_seeds(
            seeds,
            load_as_map(str(tmp_path / "as.csv")),
            load_connection_map(str(tmp_path / "conn.csv")),
        )
        residential = [n.prefix48 for n in scenario.nets if n.category == "Internet Service Provider"]
        assert list(kept.prefixes) == residential

    def test_asn_geo_covers_wan_space(self, tiny_scenario):
        text = asn_geo_lines(tiny_scenario)
        wan = wan_addresses(tiny_scenario)[0]
        wan64 = format_address(wan & ~((1 << 64) - 1))
        assert f"{wan64}/64" in text
        assert f"{format_address(tiny_scenario.nets[0].prefix48)}/48" in text

    def test_oui_lines_parse(self, tmp_path):
        from resiscan.fingerprint import load_oui_db, oui_vendor

        (tmp_path / "oui.csv").write_text(oui_lines())
        db = load_oui_db(str(tmp_path / "oui.csv"))
        assert oui_vendor("00:1b:2c:12:34:56", db) == "Gatework Systems"
