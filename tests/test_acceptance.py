"""Acceptance gate: the twelve properties the pipeline must deliver.

Each test exercises one property end to end, prints a single
``acceptance NN <name>: PASS|FAIL`` verdict line, and fails loudly with the
measured values if the property does not hold. Scale-dependent properties
run against generated simulated deployments where exact ground truth is
known by construction; arithmetic properties are checked exactly.
"""

import contextlib
import filecmp
import io
import itertools
import os
import random
import struct
import time
from collections import Counter

from conftest import SimService, make_host, make_net, make_scenario, make_subnet
from resiscan.classify import (
    LABEL_EXTERNAL,
    LABEL_INTERNAL,
    classify_log,
    hop_distance,
    infer_initial_hop_limit,
    pair_deltas,
)
from resiscan.cli import main as cli_main
from resiscan.fingerprint import (
    collect_hp_printers,
    dedupe_printers,
    extract_eui64,
    parse_hp_header,
)
from resiscan.grab import OUTCOME_ERROR, OUTCOME_RESPONDED, GrabRecord, grab, run_grab_campaign
from resiscan.probe import RateLimiter, run_scan
from resiscan.report import internal_only_exposures
from resiscan.services import default_services
from resiscan.simnet import ScenarioParams, SimServices, SimTransport, generate_scenario
from resiscan.simnet.scenario import ground_truth
from resiscan.targetgen import alias_target_for, build_plan

SECRET = b"\x00" * 7 + b"\x01"


def _verdict(n: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {n:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {n} ({name}) failed: {detail}"


def _spec(name: str):
    return next(s for s in default_services() if s.name == name)


def _scan_and_classify(scenario, rng_seed: int):
    seeds = sorted(net.prefix48 for net in scenario.nets)
    plan = build_plan(seeds, rng_seed)
    log = run_scan(plan.addresses(), SimTransport(scenario), SECRET, quiescence_s=0.0)
    assert log.complete and log.sent == plan.budget
    return classify_log(log.records, seeds=seeds, rng_seed=rng_seed)


def test_01_probe_budget_arithmetic():
    """A national-registry-sized seed list costs exactly seeds x 2816 probes,
    reported instantly and without materializing a single target."""
    n = 2_515_372
    base = 0x2001 << 112
    seeds = [base | (i << 80) for i in range(n)]
    t0 = time.perf_counter()
    plan = build_plan(seeds, 1)
    budget = plan.budget
    elapsed = time.perf_counter() - t0
    ok = budget == 7_083_287_552 and elapsed < 1.0
    _verdict(1, "probe budget arithmetic", ok, f"budget={budget}, {elapsed:.3f}s")


def test_02_internal_detection_equals_ground_truth():
    """On a 100-network deployment with mixed firewalls, 10% aliased prefixes
    and every address-assignment mode, the classified internal set matches
    the simulation's ground truth exactly."""
    params = ScenarioParams(
        n48=100,
        subnets_per_48=8,
        hosts_per_subnet=(1.0, 2.0),
        aliased_fraction=0.10,
        deny_fraction=0.30,
        slaac_fraction=0.30,
        extra_hops_weights={0: 0.83, 1: 0.10, 2: 0.05, 3: 0.02},
        host_profile_weights={64: 0.5, 128: 0.3, 255: 0.2},
        cpe_profile_weights={64: 0.3, 255: 0.7},
        wan_mode_weights={"eui64": 0.4, "random_iid": 0.4, "low_iid": 0.2},
        host_service_probability={},
        cpe_service_probability=0.0,
        nonresidential_fraction=0.0,
    )
    scenario = generate_scenario(params, 42)
    t0 = time.perf_counter()
    result = _scan_and_classify(scenario, rng_seed=7)
    elapsed = time.perf_counter() - t0

    gt = ground_truth(scenario)
    found = {c.address: c.distance for c in result.classified if c.label == LABEL_INTERNAL}
    truth = gt.internal
    tp = sum(1 for a in found if a in truth)
    precision = tp / len(found) if found else 0.0
    recall = tp / len(truth) if truth else 0.0
    aliased_contrib = [c for c in result.classified if c.net56 in gt.aliased]
    distances_ok = found == truth

    ok = (
        precision == 1.0
        and recall == 1.0
        and distances_ok
        and not aliased_contrib
        and len(gt.aliased) > 0
        and elapsed < 60.0
    )
    _verdict(
        2,
        "internal detection equals ground truth",
        ok,
        f"precision={precision:.4f}, recall={recall:.4f}, "
        f"{len(found)} internal, {len(gt.aliased)} aliased prefixes excluded, "
        f"{elapsed:.1f}s",
    )


def test_03_hop_limit_rule_exact():
    """Distance inference rounds every received hop limit up to the nearest
    common initial value; the 118 -> 128 -> 10 worked example holds."""
    def oracle(received: int) -> int:
        return min(v for v in (64, 128, 255) if v >= received)

    table_ok = all(infer_initial_hop_limit(r) == oracle(r) for r in range(256))
    example_ok = hop_distance(118) == (128, 10)
    _verdict(3, "hop-limit distance rule", table_ok and example_ok,
             "256/256 values, example 118->(128,10)")


def test_04_delta_distribution():
    """Pairing internal devices with their network's outside address recovers
    the configured same-device / one-hop-behind proportions."""
    params = ScenarioParams(
        n48=40,
        subnets_per_48=250,
        hosts_per_subnet=(1.0, 1.0),
        aliased_fraction=0.0,
        deny_fraction=0.0,
        slaac_fraction=0.0,
        extra_hops_weights={0: 0.83, 1: 0.10, 2: 0.05, 3: 0.02},
        host_profile_weights={64: 0.5, 128: 0.3, 255: 0.2},
        cpe_profile_weights={64: 0.3, 255: 0.7},
        wan_mode_weights={"eui64": 0.4, "random_iid": 0.4, "low_iid": 0.2},
        host_service_probability={},
        cpe_service_probability=0.0,
        nonresidential_fraction=0.0,
    )
    scenario = generate_scenario(params, 11)
    result = _scan_and_classify(scenario, rng_seed=3)
    deltas = [p.delta for p in pair_deltas(result.classified)]
    n = len(deltas)
    hist = Counter(deltas)
    frac0 = hist[0] / n
    frac1 = hist[1] / n
    ok = n >= 10_000 and abs(frac0 - 0.83) <= 0.03 and abs(frac1 - 0.10) <= 0.03
    _verdict(4, "distance-delta distribution", ok,
             f"{n} pairs, delta0={frac0:.4f}, delta1={frac1:.4f}")


def test_05_permutation_is_exact():
    """For every plan size up to ten seed networks, the emitted probe order
    is a permutation of the full target set: each target exactly once."""
    base = 0x20010DB8 << 96
    all_seeds = [base | (k << 80) for k in range(10)]
    rng_seed = 5
    ok = True
    detail = ""
    for n in range(1, 11):
        seeds = all_seeds[:n]
        expected: Counter = Counter()
        for seed in seeds:
            for j in range(256):
                net56 = seed | (j << 72)
                for i in range(1, 11):
                    expected[net56 | i] += 1
                expected[alias_target_for(net56, rng_seed)] += 1
        plan = build_plan(seeds, rng_seed)
        emitted = Counter(t.address for t in plan)
        if emitted != expected or len(emitted) != n * 2816:
            ok = False
            detail = f"mismatch at {n} seeds"
            break
    if ok:
        detail = "sizes 1..10, up to 28160 targets, multiset-equal"
    _verdict(5, "streaming permutation covers target set", ok, detail)


def test_06_rate_compliance():
    """Fifty thousand probes at 10,000 pps occupy a five-second send phase."""
    scenario = make_scenario([make_net("2001:db8:fe::", [make_subnet(1)])])
    base = 0x3FFD << 112
    seeds = [base | (k << 80) for k in range(18)]  # 18 x 2816 > 50,000
    plan = build_plan(seeds, 1)
    targets = itertools.islice(plan.addresses(), 50_000)
    log = run_scan(
        targets,
        SimTransport(scenario),
        SECRET,
        rate=RateLimiter(10_000),
        quiescence_s=0.0,
    )
    ok = log.sent == 50_000 and 4.5 <= log.send_duration_s <= 5.5
    _verdict(6, "probe rate compliance", ok,
             f"sent={log.sent}, send phase {log.send_duration_s:.2f}s")


def test_07_hp_header_parsing():
    """Printer Server headers parse to exact model/serial/build, and serial
    numbers collapse multiple addresses onto distinct physical devices."""
    golden = [
        (
            "HP HTTP Server; HP Deskjet 3520 series; Serial Number: CN2AQ1B2G305RM; "
            "Built: Mon Feb 25 08:58:38 2013 {MVM2FN1311AR}",
            ("HP Deskjet 3520 series", "CN2AQ1B2G305RM",
             "Mon Feb 25 08:58:38 2013 {MVM2FN1311AR}"),
        ),
        (
            "HP HTTP Server; HP OfficeJet Pro 8710; Serial Number: TH6CM2N0Y5; "
            "Built: Thu Jun 08 09:10:11 2017 {OJP8710_1717A}",
            ("HP OfficeJet Pro 8710", "TH6CM2N0Y5", "Thu Jun 08 09:10:11 2017 {OJP8710_1717A}"),
        ),
        (
            "HP HTTP Server; HP ENVY 4520 series; Serial Number: CN5C91D2HY06PG",
            ("HP ENVY 4520 series", "CN5C91D2HY06PG", None),
        ),
        (
            "HP HTTP Server; HP LaserJet Pro M148dw; Serial Number: VNC3K12345",
            ("HP LaserJet Pro M148dw", "VNC3K12345", None),
        ),
        (
            "HP HTTP Server; HP Photosmart 6520 series; Serial Number: CN41T2F30705MJ; "
            "Built: Wed May 25 10:31:05 2022 {PSM652X_2222B}",
            ("HP Photosmart 6520 series", "CN41T2F30705MJ",
             "Wed May 25 10:31:05 2022 {PSM652X_2222B}"),
        ),
    ]
    parses_ok = all(
        (lambda p: p is not None and (p.model, p.serial, p.build) == want)(parse_hp_header(header))
        for header, want in golden
    )
    rejects_ok = all(
        parse_hp_header(h) is None
        for h in ("Apache/2.4.41", "HP HTTP Server", "HP HTTP Server; HP ENVY 4520 series")
    )

    def printer_grab(address, serial):
        return GrabRecord(
            address=address, service="http", outcome=OUTCOME_RESPONDED,
            http_server_header=f"HP HTTP Server; HP ENVY 4520 series; Serial Number: {serial}",
        )

    five_addresses = [
        printer_grab("2001:db8::1", "SER-A"),
        printer_grab("2001:db8::2", "SER-B"),
        printer_grab("2001:db8::3", "SER-A"),
        printer_grab("2001:db8::4", "SER-C"),
        printer_grab("2001:db8::5", "SER-B"),
    ]
    devices = dedupe_printers(collect_hp_printers(five_addresses))
    dedupe_ok = len(devices) == 3 and [d.serial for d in devices] == ["SER-A", "SER-B", "SER-C"]

    ok = parses_ok and rejects_ok and dedupe_ok
    _verdict(7, "printer header parsing and dedupe", ok,
             f"{len(golden)} goldens, 5 addresses -> {len(devices)} devices")


def test_08_eui64_roundtrip_and_no_false_positives():
    """MAC addresses embedded the standard way always come back out, and
    random interface IDs without a genuine embedding never do."""
    def embed(mac: bytes) -> int:
        iid = bytes([mac[0] ^ 0x02, mac[1], mac[2], 0xFF, 0xFE, mac[3], mac[4], mac[5]])
        return int.from_bytes(iid, "big")

    prefix = 0x20010DB8 << 96
    rng = random.Random(20260817)
    roundtrips = 0
    for _ in range(10_000):
        mac = bytes(rng.randrange(256) for _ in range(6))
        text = ":".join(f"{b:02x}" for b in mac)
        if extract_eui64(prefix | embed(mac)) == text:
            roundtrips += 1

    false_hits = 0
    checked = 0
    while checked < 1_000_000:
        iid = rng.getrandbits(64)
        if (iid >> 24) & 0xFFFF == 0xFFFE:  # a genuine embedding; not a negative case
            continue
        if extract_eui64(iid) is not None:
            false_hits += 1
        checked += 1

    ok = roundtrips == 10_000 and false_hits == 0
    _verdict(8, "embedded MAC recovery", ok,
             f"{roundtrips}/10000 roundtrips, {false_hits}/1000000 false extractions")


def test_09_lockdown_exchange():
    """The device-info service yields its version string from exactly one
    length-framed query, and hostile reply lengths are rejected outright."""
    sim = SimServices(make_scenario([make_net("2001:db8:99::", [make_subnet(1)])]))
    well_behaved = "2001:db8:99:100::10"
    hostile = "2001:db8:99:100::66"
    sim.add_endpoint(well_behaved, 62078, "lockdown", {"product_version": "18.2"})
    sim.add_endpoint(hostile, 62078, "lockdown", {"mode": "hostile_length"})
    spec = _spec("lockdown")

    rec = grab(well_behaved, spec, connector=sim.connector(), timeout=2.0)
    (transcript,) = sim.transcripts_for(well_behaved, 62078)
    (frame_len,) = struct.unpack(">I", transcript.data[:4])
    one_request = (
        transcript.data.count(b"<plist") == 1 and frame_len == len(transcript.data) - 4
    )
    version_ok = rec.outcome == OUTCOME_RESPONDED and rec.lockdown_product_version == "18.2"

    hostile_rec = grab(hostile, spec, connector=sim.connector(), timeout=2.0)
    hostile_ok = hostile_rec.outcome == OUTCOME_ERROR and hostile_rec.detail == "bounds"

    ok = version_ok and one_request and hostile_ok
    _verdict(9, "lockdown exchange", ok,
             f"version={rec.lockdown_product_version!r}, one framed request={one_request}, "
             f"hostile->{hostile_rec.detail!r}")


def test_10_mqtt_return_codes():
    """Broker CONNACK return codes 0 and 5 surface as accepted and
    not-authorized connection outcomes."""
    sim = SimServices(make_scenario([make_net("2001:db8:98::", [make_subnet(1)])]))
    open_broker = "2001:db8:98:100::1"
    closed_broker = "2001:db8:98:100::2"
    sim.add_endpoint(open_broker, 1883, "mqtt_broker", {"return_code": 0})
    sim.add_endpoint(closed_broker, 1883, "mqtt_broker", {"return_code": 5})
    spec = _spec("mqtt")

    accepted = grab(open_broker, spec, connector=sim.connector(), timeout=2.0)
    unauthorized = grab(closed_broker, spec, connector=sim.connector(), timeout=2.0)
    ok = (
        accepted.outcome == OUTCOME_RESPONDED
        and accepted.mqtt_return_code == 0
        and unauthorized.outcome == OUTCOME_RESPONDED
        and unauthorized.mqtt_return_code == 5
    )
    _verdict(10, "mqtt connection posture", ok,
             f"codes {accepted.mqtt_return_code}/{unauthorized.mqtt_return_code}")


def test_11_internal_only_exposure():
    """Networks whose outside address answers nothing, but whose inside
    devices answer Telnet, are flagged - and only those networks."""
    nets = []
    for k in range(20):  # exposed: telnet inside, outside address silent
        nets.append(
            make_net(
                f"2001:db8:{0x100 + k:x}::",
                [
                    make_subnet(
                        1,
                        hosts=[make_host(1, services=[SimService(23, "telnet", {})])],
                        cpe_services=[SimService(23, "silent", {"hold_s": 5.0})],
                    )
                ],
            )
        )
    for k in range(20):  # covered: outside address answers a web service
        nets.append(
            make_net(
                f"2001:db8:{0x200 + k:x}::",
                [
                    make_subnet(
                        1,
                        hosts=[make_host(1, services=[SimService(23, "telnet", {})])],
                        cpe_services=[SimService(80, "http", {})],
                    )
                ],
            )
        )
    scenario = make_scenario(nets)
    result = _scan_and_classify(scenario, rng_seed=9)

    from resiscan.addrs import format_address

    sim = SimServices(scenario)
    addresses = [format_address(c.address) for c in result.classified]
    grabs = run_grab_campaign(
        addresses, default_services(), connector=sim.connector(),
        parallelism=256, timeout=0.4,
    )
    exposures = internal_only_exposures(result.classified, grabs)

    expected = set()
    for i in range(20):
        net = scenario.nets[i]
        sub = net.subnets[0]
        expected.add((scenario.net56(net, sub), scenario.host_address(net, sub, sub.hosts[0])))

    found = {(net56, address) for net56, address, _services in exposures}
    services_ok = all(services == ("telnet",) for _n, _a, services in exposures)
    ok = found == expected and len(exposures) == 20 and services_ok
    _verdict(11, "internal-only exposure list", ok,
             f"{len(exposures)} exposed devices, expected 20")


def test_12_pipeline_determinism(tmp_path):
    """Two complete pipeline runs from one config produce byte-identical
    output trees."""
    def run_cli(*argv) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return cli_main(list(argv))

    base = str(tmp_path / "base")
    assert run_cli("--out", base, "simnet-gen", "--n48", "2") == 0
    config = os.path.join(base, "config.json")

    stages = ["seed-filter", "scan", "classify", "grab", "fingerprint", "report"]
    runs = [str(tmp_path / "runA"), str(tmp_path / "runB")]
    for outdir in runs:
        for stage in stages:
            code = run_cli("--config", config, "--out", outdir, stage)
            assert code == 0, f"{stage} failed in {outdir}"

    files = []
    for root, _dirs, names in os.walk(runs[0]):
        for name in names:
            files.append(os.path.relpath(os.path.join(root, name), runs[0]))
    match, mismatch, errors = filecmp.cmpfiles(runs[0], runs[1], files, shallow=False)
    ok = len(files) >= 20 and not mismatch and not errors and sorted(match) == sorted(files)
    _verdict(12, "pipeline determinism", ok,
             f"{len(files)} files compared, {len(mismatch)} differ, {len(errors)} unreadable")
