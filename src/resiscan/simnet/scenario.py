"""Deterministic scenario model for the simulated residential network.

A scenario describes seed /48s, their /56 customer delegations, the CPE
router guarding each delegation (WAN addressing mode, firewall posture,
distance from the scanner), the hosts inside (interface-ID mode, extra hops
behind the gateway, application services), and which delegations are aliased.
Everything downstream - the simulated ICMPv6 transport, the connectable
service endpoints, and the ground-truth oracle used by the tests - is derived
from this one structure, so a scenario plus the campaign seed fully
determines every byte the pipeline produces.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Iterator

from ..addrs import PREFIX48_MASK, SUBNET_SHIFT, format_address, parse_address, parse_prefix

FIREWALL_DENY = "default_deny"
FIREWALL_ALLOW = "default_allow"
WAN_EUI64 = "eui64"
WAN_RANDOM = "random_iid"
WAN_LOW_IID = "low_iid"
IID_DHCP_LOW = "dhcp_low"
IID_SLAAC_RANDOM = "slaac_random"

HOP_LIMIT_PROFILES = (64, 128, 255)
DEFAULT_WAN_BASE = "3fff:64::"  # reserved documentation space, never probed

# Fixture OUI registrations (universally administered) used for CPE MACs.
OUI_FIXTURES = (
    ("00:1b:2c", "Gatework Systems"),
    ("0c:9d:77", "Lumetra Devices"),
    ("24:fa:01", "Piranha Broadband"),
    ("6c:55:c3", "Ostrea Networks"),
)


class ScenarioError(ValueError):
    pass


@dataclass(slots=True)
class SimService:
    port: int
    behavior: str
    params: dict = field(default_factory=dict)


@dataclass(slots=True)
class SimHost:
    iid_mode: str
    iid: int
    extra_hops: int = 0
    initial_hop_limit: int = 64
    services: list[SimService] = field(default_factory=list)


@dataclass(slots=True)
class SimCpe:
    wan_mode: str
    firewall: str
    base_distance: int
    initial_hop_limit: int = 255
    wan_mac: str | None = None  # eui64 mode
    wan_iid: int | None = None  # low_iid mode
    services: list[SimService] = field(default_factory=list)


@dataclass(slots=True)
class SimSubnet:
    index: int
    cpe: SimCpe
    aliased: bool = False
    hosts: list[SimHost] = field(default_factory=list)


@dataclass(slots=True)
class SimNet:
    prefix48: int
    asn: int
    as_name: str = ""
    country: str = "zz"
    category: str = "Internet Service Provider"
    connection: str = "cable_dsl"
    subnets: list[SimSubnet] = field(default_factory=list)


@dataclass(slots=True)
class Scenario:
    rng_seed: int
    nets: list[SimNet]
    wan_base: int = parse_address(DEFAULT_WAN_BASE)

    def net56(self, net: SimNet, sub: SimSubnet) -> int:
        return net.prefix48 | (sub.index << SUBNET_SHIFT)

    def host_address(self, net: SimNet, sub: SimSubnet, host: SimHost) -> int:
        return self.net56(net, sub) | host.iid

    def iter_subnets(self) -> Iterator[tuple[SimNet, SimSubnet, int, int]]:
        """``(net, subnet, net56, CPE WAN address)`` for every subnet, in file order.

        Each CPE's WAN address sits on its own infrastructure /64, numbered
        1, 2, ... over all subnets, aliased ones included, so an address
        never depends on which subnets a caller goes on to skip.
        """
        counter = 0
        for net in self.nets:
            for sub in net.subnets:
                counter += 1
                net64 = self.wan_base | (counter << 64)
                cpe = sub.cpe
                if cpe.wan_mode == WAN_EUI64:
                    wan = net64 | eui64_iid(cpe.wan_mac)
                elif cpe.wan_mode == WAN_LOW_IID:
                    wan = net64 | cpe.wan_iid
                else:
                    wan = net64 | derived_iid(self.rng_seed, b"wan-iid", counter)
                yield net, sub, self.net56(net, sub), wan

    def finalize(self) -> None:
        """Validate; call after any mutation."""
        if not self.nets:
            raise ScenarioError("scenario has no networks")
        wan_top = self.wan_base >> 96
        seen48: set[int] = set()
        for net in self.nets:
            if net.prefix48 & ~PREFIX48_MASK:
                raise ScenarioError("net prefix has bits below /48")
            if net.prefix48 in seen48:
                raise ScenarioError(f"duplicate /48 {format_address(net.prefix48)}")
            seen48.add(net.prefix48)
            if (net.prefix48 >> 96) == wan_top:
                raise ScenarioError("seed /48 overlaps the WAN infrastructure range")
            indexes: set[int] = set()
            for sub in net.subnets:
                if not 0 <= sub.index <= 255:
                    raise ScenarioError(f"subnet index {sub.index} out of range")
                if sub.index in indexes:
                    raise ScenarioError(f"duplicate subnet index {sub.index}")
                indexes.add(sub.index)
                cpe = sub.cpe
                if cpe.firewall not in (FIREWALL_ALLOW, FIREWALL_DENY):
                    raise ScenarioError(f"bad firewall {cpe.firewall!r}")
                if cpe.wan_mode not in (WAN_EUI64, WAN_RANDOM, WAN_LOW_IID):
                    raise ScenarioError(f"bad wan mode {cpe.wan_mode!r}")
                if cpe.wan_mode == WAN_EUI64 and not cpe.wan_mac:
                    raise ScenarioError("eui64 wan mode needs wan_mac")
                if cpe.wan_mode == WAN_LOW_IID and not (cpe.wan_iid and 1 <= cpe.wan_iid <= 10):
                    raise ScenarioError("low_iid wan mode needs wan_iid in 1..10")
                if not 1 <= cpe.base_distance <= 50:
                    raise ScenarioError("base_distance must be in 1..50")
                if cpe.initial_hop_limit not in HOP_LIMIT_PROFILES:
                    raise ScenarioError("cpe initial_hop_limit must be 64, 128, or 255")
                iids: set[int] = set()
                for host in sub.hosts:
                    if host.iid_mode == IID_DHCP_LOW:
                        if not 1 <= host.iid <= 10:
                            raise ScenarioError("dhcp_low host IID must be in 1..10")
                    elif host.iid_mode == IID_SLAAC_RANDOM:
                        if host.iid < (1 << 32):
                            raise ScenarioError("slaac_random host IID must be >= 2^32")
                    else:
                        raise ScenarioError(f"bad iid_mode {host.iid_mode!r}")
                    if host.iid in iids:
                        raise ScenarioError(f"duplicate host IID {host.iid}")
                    iids.add(host.iid)
                    if not 0 <= host.extra_hops <= 8:
                        raise ScenarioError("extra_hops must be in 0..8")
                    if host.initial_hop_limit not in HOP_LIMIT_PROFILES:
                        raise ScenarioError("host initial_hop_limit must be 64, 128, or 255")


def eui64_iid(mac: str) -> int:
    """Modified EUI-64 interface ID for a MAC: ff:fe infix, U/L bit flipped."""
    try:
        parts = [int(p, 16) for p in mac.split(":")]
    except ValueError:
        raise ScenarioError(f"bad MAC address {mac!r}") from None
    if len(parts) != 6 or any(not 0 <= p <= 255 for p in parts):
        raise ScenarioError(f"bad MAC address {mac!r}")
    iid = bytes([parts[0] ^ 0x02, parts[1], parts[2], 0xFF, 0xFE, parts[3], parts[4], parts[5]])
    return int.from_bytes(iid, "big")


def derived_iid(rng_seed: int, tag: bytes, counter: int) -> int:
    """Deterministic 'random-looking' IID that can't collide with other modes.

    Top bit forced on (clears the low-IID range) and the EUI-64 ff:fe infix
    is patched out so mode boundaries stay crisp in expectations.
    """
    key = (rng_seed & ((1 << 64) - 1)).to_bytes(8, "big")
    digest = hashlib.blake2b(tag + counter.to_bytes(8, "big"), key=key, digest_size=8).digest()
    raw = bytearray(digest)
    raw[0] |= 0x80
    if raw[3] == 0xFF and raw[4] == 0xFE:
        raw[3] = 0x00
    return int.from_bytes(raw, "big")


# ---------------------------------------------------------------------------
# Serialization. The scenario file is a single JSON document mirroring the
# dataclass tree. Each record type has one field table keyed by attribute
# name, which is also the JSON key. An entry is the decoder that checks and
# converts the JSON value, or an (encode, decode) pair where the JSON form
# differs from the attribute. A key a document omits takes the dataclass
# default; a field without one is required. A key no table names is refused.


def _exactly(kind: type, what: str):
    """A decoder that passes only a value of exactly ``kind``, so no bool is an int."""

    def decode(value):
        if type(value) is not kind:
            raise ScenarioError(f"expected {what}, got {value!r}")
        return value

    return decode


_text = _exactly(str, "text")
_int = _exactly(int, "an integer")
_bool = _exactly(bool, "true or false")


def _optional(decode):
    return lambda value: None if value is None else decode(value)


def _records(cls) -> tuple:
    return (
        lambda records: [_encode(r) for r in records],
        lambda docs: [_decode(cls, doc) for doc in docs],
    )


def _encode(record) -> dict:
    return {
        key: spec[0](getattr(record, key)) if type(spec) is tuple else getattr(record, key)
        for key, spec in _FIELD_TABLES[type(record)].items()
    }


def _decode(cls, doc):
    """``cls`` from a JSON object; a missing required key raises ``TypeError``."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    if unknown := doc.keys() - _FIELD_TABLES[cls]:
        raise ScenarioError(f"unknown key {', '.join(sorted(map(repr, unknown)))}")
    values = {}
    for key, spec in _FIELD_TABLES[cls].items():
        if key in doc:
            try:
                values[key] = (spec[1] if type(spec) is tuple else spec)(doc[key])
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"{key}: {exc}") from None
    return cls(**values)


_FIELD_TABLES = {
    SimService: {"port": _int, "behavior": _text, "params": _exactly(dict, "an object")},
    SimHost: {
        "iid_mode": _text,
        "iid": _int,
        "extra_hops": _int,
        "initial_hop_limit": _int,
        "services": _records(SimService),
    },
    SimCpe: {
        "wan_mode": _text,
        "firewall": _text,
        "base_distance": _int,
        "initial_hop_limit": _int,
        "wan_mac": _optional(_text),
        "wan_iid": _optional(_int),
        "services": _records(SimService),
    },
    SimSubnet: {
        "index": _int,
        "cpe": (_encode, lambda doc: _decode(SimCpe, doc)),
        "aliased": _bool,
        "hosts": _records(SimHost),
    },
    SimNet: {
        "prefix48": (
            lambda prefix: f"{format_address(prefix)}/48",
            lambda text: parse_prefix(_text(text), 48),
        ),
        "asn": _int,
        "as_name": _text,
        "country": _text,
        "category": _text,
        "connection": _text,
        "subnets": _records(SimSubnet),
    },
    Scenario: {
        "rng_seed": _int,
        "nets": _records(SimNet),
        "wan_base": (format_address, lambda text: parse_address(_text(text))),
    },
}


def scenario_to_dict(s: Scenario) -> dict:
    return _encode(s)


def scenario_from_dict(doc) -> Scenario:
    try:
        scenario = _decode(Scenario, doc)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from None
    scenario.finalize()
    return scenario


def save_scenario(s: Scenario, path: str) -> None:
    """Write ``s`` as one compact line of JSON, keys sorted.

    Any ``indent`` sends ``json.dumps`` to its pure-Python encoder, which took
    about 80% of the save time and wrote 2.3 times the bytes; without one it
    uses the C encoder. ``python -m json.tool`` pretty-prints the file.
    """
    text = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Scenario generation.


@dataclass(slots=True)
class ScenarioParams:
    """Knobs for the scenario generator, defaulting to the mix ``simnet-gen`` deploys.

    Fractions are turned into exact counts with largest-remainder rounding
    and then shuffled into place with the scenario seed, so a requested mix
    is met within one unit rather than merely in expectation.
    """

    n48: int = 4
    subnets_per_48: int = 8
    hosts_per_subnet: tuple[float, ...] = (1.0, 2.0)  # weights for 1, 2, ... hosts
    aliased_fraction: float = 0.1
    deny_fraction: float = 0.3
    slaac_fraction: float = 0.3
    extra_hops_weights: dict[int, float] = field(
        default_factory=lambda: {0: 0.83, 1: 0.10, 2: 0.05, 3: 0.02}
    )
    host_profile_weights: dict[int, float] = field(
        default_factory=lambda: {64: 0.5, 128: 0.3, 255: 0.2}
    )
    cpe_profile_weights: dict[int, float] = field(
        default_factory=lambda: {64: 0.3, 255: 0.7}
    )
    wan_mode_weights: dict[str, float] = field(
        default_factory=lambda: {WAN_EUI64: 0.4, WAN_RANDOM: 0.4, WAN_LOW_IID: 0.2}
    )
    host_service_probability: dict[str, float] = field(
        default_factory=lambda: {
            "telnet": 0.30,
            "ssh": 0.20,
            "http": 0.35,
            "hp_printer_http": 0.10,
            "mqtt_broker": 0.15,
            "lockdown": 0.10,
        }
    )
    cpe_service_probability: float = 0.5
    nonresidential_fraction: float = 0.2

    def validate(self) -> None:
        if self.n48 < 1:
            raise ScenarioError("n48 must be >= 1")
        if not 1 <= self.subnets_per_48 <= 256:
            raise ScenarioError("subnets_per_48 must be in 1..256")
        for name, frac in (
            ("aliased_fraction", self.aliased_fraction),
            ("deny_fraction", self.deny_fraction),
            ("slaac_fraction", self.slaac_fraction),
            ("nonresidential_fraction", self.nonresidential_fraction),
        ):
            if not 0.0 <= frac <= 1.0:
                raise ScenarioError(f"{name} must be in [0, 1]")
        if self.aliased_fraction + self.deny_fraction > 1.0:
            raise ScenarioError("aliased and deny fractions exceed the subnet population")
        if not self.hosts_per_subnet or sum(self.hosts_per_subnet) <= 0:
            raise ScenarioError("hosts_per_subnet needs positive weight")
        if len(self.hosts_per_subnet) > 10:
            raise ScenarioError("at most 10 hosts per subnet (DHCPv6 pool is ::1..::a)")


def _quota_counts(n: int, weights: dict) -> dict:
    """Largest-remainder apportionment of n items across weighted keys."""
    total = sum(weights.values())
    if total <= 0:
        raise ScenarioError("weights must sum to a positive value")
    raw = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    remainder = n - sum(counts.values())
    order = sorted(raw, key=lambda k: (-(raw[k] - int(raw[k])), str(k)))
    for k in order[:remainder]:
        counts[k] += 1
    return counts


def _quota_pool(n: int, weights: dict, rng: random.Random) -> list:
    pool = []
    for k, c in _quota_counts(n, weights).items():
        pool.extend([k] * c)
    rng.shuffle(pool)
    return pool


def _share(n: int, fraction: float, rng: random.Random) -> list[bool]:
    """``n`` shuffled flags, ``fraction`` of them true by quota."""
    return _quota_pool(n, {True: fraction, False: 1 - fraction}, rng)


_SEED_BASE = parse_address("2001:db8::")  # generated /48s count up from here
_BASE_DISTANCE_RANGE = (2, 12)  # scanner-to-CPE hops, drawn uniformly per CPE

# Default service fixtures attached by behavior name during generation.
_GENERATED_SERVICE_PORTS = {
    "telnet": (23, {"banner": "login: "}),
    "ssh": (22, {"version": "OpenSSH_9.6"}),
    "http": (8080, {"server": "lighttpd/1.4.59", "body": "<html>ok</html>"}),
    "hp_printer_http": (80, {}),
    "mqtt_broker": (1883, {"return_code": 0}),
    "lockdown": (62078, {"product_version": "18.2"}),
}

_COUNTRIES = ("br", "de", "jp", "us", "fr", "pl", "in", "mx")
_HP_BUILDS = (
    "Wed May 25 10:31:05 2022",
    "Thu Feb 09 14:22:41 2023",
    "Mon Oct 17 08:03:56 2022",
)
_HP_MODELS = (
    "HP DeskJet 2700 series",
    "HP Ink Tank Wireless 410 series",
    "HP Smart Tank 580",
    "HP DeskJet 2600 series",
    "HP DeskJet 2800 series",
)


def generate_scenario(params: ScenarioParams, rng_seed: int) -> Scenario:
    """Build a scenario realizing the requested mixes; fully seed-determined."""
    params.validate()
    rng = random.Random(rng_seed)
    if params.n48 > (1 << 16):
        raise ScenarioError("n48 exceeds the generator's /32 seed region")

    n_sub = params.n48 * params.subnets_per_48
    aliased_pool = _share(n_sub, params.aliased_fraction, rng)
    # Firewall quota applies to the non-aliased population.
    n_plain = sum(1 for a in aliased_pool if not a)
    deny_frac = params.deny_fraction / (1 - params.aliased_fraction or 1.0)
    deny_frac = min(deny_frac, 1.0)
    deny_pool = _share(n_plain, deny_frac, rng)
    hosts_pool = _quota_pool(
        n_sub,
        {i + 1: w for i, w in enumerate(params.hosts_per_subnet)},
        rng,
    )
    n_hosts = sum(hosts_pool)
    extra_pool = _quota_pool(n_hosts, params.extra_hops_weights, rng)
    slaac_pool = _share(n_hosts, params.slaac_fraction, rng)
    host_profile_pool = _quota_pool(n_hosts, params.host_profile_weights, rng)
    cpe_profile_pool = _quota_pool(n_sub, params.cpe_profile_weights, rng)
    wan_mode_pool = _quota_pool(n_sub, params.wan_mode_weights, rng)
    nonres_pool = _share(params.n48, params.nonresidential_fraction, rng)

    nets: list[SimNet] = []
    mac_counter = 0
    slaac_counter = 0
    for i in range(params.n48):
        prefix48 = _SEED_BASE | (i << 80)
        subnet_indexes = sorted(rng.sample(range(256), params.subnets_per_48))
        subnets: list[SimSubnet] = []
        for idx in subnet_indexes:
            aliased = aliased_pool.pop()
            firewall = FIREWALL_ALLOW
            if not aliased:
                firewall = FIREWALL_DENY if deny_pool.pop() else FIREWALL_ALLOW
            wan_mode = wan_mode_pool.pop()
            wan_mac = None
            wan_iid = None
            if wan_mode == WAN_EUI64:
                oui, _vendor = OUI_FIXTURES[rng.randrange(len(OUI_FIXTURES))]
                wan_mac = f"{oui}:{(mac_counter >> 16) & 0xFF:02x}:{(mac_counter >> 8) & 0xFF:02x}:{mac_counter & 0xFF:02x}"
                mac_counter += 1
            elif wan_mode == WAN_LOW_IID:
                wan_iid = rng.randrange(1, 11)
            cpe_services: list[SimService] = []
            # Drawn for every subnet so later draws stay put; nothing serves an aliased CPE.
            if rng.random() < params.cpe_service_probability and not aliased:
                cpe_services.append(
                    SimService(7547, "http", {"server": "cwmp-agent/2.1", "body": "ok"})
                )
            cpe = SimCpe(
                wan_mode=wan_mode,
                firewall=firewall,
                base_distance=rng.randint(*_BASE_DISTANCE_RANGE),
                initial_hop_limit=cpe_profile_pool.pop(),
                wan_mac=wan_mac,
                wan_iid=wan_iid,
                services=cpe_services,
            )
            hosts: list[SimHost] = []
            if not aliased:
                next_dhcp = 1
                for _ in range(hosts_pool.pop()):
                    services: list[SimService] = []
                    for behavior, prob in params.host_service_probability.items():
                        if rng.random() < prob:
                            port, svc_params = _GENERATED_SERVICE_PORTS[behavior]
                            svc_params = dict(svc_params)
                            if behavior == "hp_printer_http":
                                svc_params = {
                                    "model": _HP_MODELS[rng.randrange(len(_HP_MODELS))],
                                    "serial": f"CN{rng.randrange(10**8):08d}",
                                }
                                if rng.random() < 0.8:
                                    svc_params["built"] = _HP_BUILDS[
                                        rng.randrange(len(_HP_BUILDS))
                                    ]
                            services.append(SimService(port, behavior, svc_params))
                    if slaac_pool.pop():
                        slaac_counter += 1
                        iid_mode, iid = IID_SLAAC_RANDOM, derived_iid(
                            rng_seed, b"slaac", slaac_counter
                        )
                    else:
                        iid_mode, iid = IID_DHCP_LOW, next_dhcp
                        next_dhcp += 1
                    hosts.append(
                        SimHost(
                            iid_mode=iid_mode,
                            iid=iid,
                            extra_hops=extra_pool.pop(),
                            initial_hop_limit=host_profile_pool.pop(),
                            services=services,
                        )
                    )
            else:
                hosts_pool.pop()  # keep pool sizes aligned across subnets
            subnets.append(SimSubnet(index=idx, aliased=aliased, cpe=cpe, hosts=hosts))
        category = "Internet Service Provider"
        if nonres_pool.pop():
            category = "Content Delivery"
        nets.append(
            SimNet(
                prefix48=prefix48,
                asn=64496 + i,
                as_name=f"Residential Net {i}",
                country=_COUNTRIES[i % len(_COUNTRIES)],
                category=category,
                subnets=subnets,
            )
        )
    scenario = Scenario(rng_seed=rng_seed, nets=nets)
    scenario.finalize()
    return scenario


# ---------------------------------------------------------------------------
# Ground truth: what a perfect pipeline must recover from a scenario.


@dataclass(slots=True)
class GroundTruth:
    aliased: set[int]  # /56 network addresses
    internal: dict[int, int]  # reachable internal address -> true distance
    external: dict[int, tuple[int, int]]  # net56 -> (wan address, distance)
    deltas: list[int]  # one per (internal, external) pair
    populated: set[int]  # net56s with a CPE
    ports: dict[int, dict[int, str]]  # internal or WAN address -> port -> behavior


def ground_truth(scenario: Scenario, seeds: set[int] | None = None) -> GroundTruth:
    """Derive expected pipeline results (optionally restricted to some /48s)."""
    gt = GroundTruth(set(), {}, {}, [], set(), {})
    for net, sub, net56, wan in scenario.iter_subnets():
        if seeds is not None and net.prefix48 not in seeds:
            continue
        gt.populated.add(net56)
        if sub.aliased:
            gt.aliased.add(net56)
            continue
        gt.external[net56] = (wan, sub.cpe.base_distance)
        gt.ports[wan] = {svc.port: svc.behavior for svc in sub.cpe.services}
        if sub.cpe.firewall != FIREWALL_ALLOW:
            continue
        for host in sub.hosts:
            if host.iid_mode != IID_DHCP_LOW:
                continue
            address = scenario.host_address(net, sub, host)
            gt.internal[address] = sub.cpe.base_distance + host.extra_hops
            gt.ports[address] = {svc.port: svc.behavior for svc in host.services}
            gt.deltas.append(host.extra_hops)
    return gt


def expected_grab_outcomes(
    scenario: Scenario, specs, seeds: set[int] | None = None
) -> dict[tuple[int, str], str]:
    """(address, service name) -> expected campaign outcome for truth addresses.

    A test oracle: no stage calls it; the tests and the campaign benchmark
    check grab outcomes against it.
    """
    out: dict[tuple[int, str], str] = {}
    for address, ports in ground_truth(scenario, seeds).ports.items():
        for spec in specs:
            behavior = ports.get(spec.port)
            if behavior is None:
                outcome = "refused"
            elif behavior == "silent":
                outcome = "timeout"
            else:
                outcome = "responded"
            out[(address, spec.name)] = outcome
    return out


# ---------------------------------------------------------------------------
# Companion datasets so a scenario can drive the whole pipeline end to end.


def seed_lines(scenario: Scenario) -> str:
    return "".join(f"{format_address(net.prefix48)}/48\n" for net in scenario.nets)


def as_map_lines(scenario: Scenario) -> str:
    return "".join(
        f"{format_address(net.prefix48)}/48,{net.asn},{net.category},{net.country}\n"
        for net in scenario.nets
    )


def connection_map_lines(scenario: Scenario) -> str:
    return "".join(
        f"{format_address(net.prefix48)}/48,{net.connection}\n" for net in scenario.nets
    )


def asn_geo_lines(scenario: Scenario) -> str:
    """Registry rows covering both seed space and the WAN infrastructure /64s."""
    rows = [
        f"{format_address(net.prefix48)}/48,{net.asn},{net.as_name},{net.country}\n"
        for net in scenario.nets
    ]
    for net, _sub, _net56, wan in scenario.iter_subnets():
        wan64 = wan & ~((1 << 64) - 1)
        rows.append(f"{format_address(wan64)}/64,{net.asn},{net.as_name},{net.country}\n")
    return "".join(rows)


def oui_lines() -> str:
    return "".join(f"{oui},{vendor}\n" for oui, vendor in OUI_FIXTURES)
