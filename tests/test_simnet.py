import dataclasses
import hashlib

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
from resiscan.probe import ICMP6_DEST_UNREACH, ICMP6_ECHO_REPLY
from resiscan.seedprep import load_as_map, load_connection_map, parse_prefix_list
from resiscan.simnet import (
    Scenario,
    ScenarioError,
    ScenarioParams,
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


class TestValidation:
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
            broken(lambda d: subnet(d).update(stub_services=[7])),
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
        ]
        for doc in cases:
            try:
                scenario_from_dict(doc)
            except ScenarioError as exc:
                assert str(exc).startswith("malformed scenario document: "), doc
            else:
                pytest.fail(f"accepted {doc}")

    def test_omitted_keys_take_the_defaults(self):
        spelled_out = minimal_doc()
        spelled_out["wan_base"] = "3fff:64::"
        net(spelled_out).update(
            as_name="", country="zz", category="Internet Service Provider", connection="cable_dsl"
        )
        subnet(spelled_out).update(aliased=False, stub_services=[])
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
        # SHA-256 of the file the hand-written encoder wrote for this scenario.
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
        )
        path = tmp_path / "scenario.json"
        save_scenario(generate_scenario(params, 19), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "83ab10bf4692a26c4f3cb225e6f0b5d6bec0c14fbe9035a7970aded9b5e3b2a9"
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
        assert t.drained()

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
                make_subnet(3, aliased=True, stub_services=[SimService(23, "telnet", {})]),
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

    def test_invalid_params_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioParams(n48=0).validate()
        with pytest.raises(ScenarioError):
            ScenarioParams(aliased_fraction=0.7, deny_fraction=0.7).validate()
        with pytest.raises(ScenarioError):
            ScenarioParams(hosts_per_subnet=tuple([1.0] * 11)).validate()
        with pytest.raises(ScenarioError):
            ScenarioParams(base_distance_range=(0, 5)).validate()


class TestCompanionFiles:
    def test_seed_and_maps_drive_seedprep(self, tmp_path):
        params = ScenarioParams(n48=4, nonresidential_fraction=0.25)
        scenario = generate_scenario(params, 23)
        (tmp_path / "as.csv").write_text(as_map_lines(scenario))
        (tmp_path / "conn.csv").write_text(connection_map_lines(scenario))
        seeds = parse_prefix_list(seed_lines(scenario))
        assert len(seeds) == 4
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
