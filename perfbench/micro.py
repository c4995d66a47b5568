"""Per-operation microbenchmarks and per-attempt grab samples for one workload.

Every figure is a median over repeated timed batches, so one slow batch
(a scheduler hiccup, a GC pass) does not move it. Inputs come from the
workload's own scenario and plan.
"""

from __future__ import annotations

import itertools
import statistics
import time

from resiscan import grab as grab_mod
from resiscan import targetgen
from resiscan.addrs import PREFIX56_MASK, format_address, parse_address
from resiscan.probe import encode_token, validate_token
from resiscan.report import load_asn_geo
from resiscan.services import default_services
from resiscan.simnet import SimServices, SimTransport, expected_grab_outcomes

SECRET = (1).to_bytes(8, "big")
BATCHES = 5
FALLBACK_MISS_48 = parse_address("3fff:ffff:ffff::")  # no scenario owns this /48
FALLBACK_ENDPOINT = "2001:db8:ffff:ff00::1"  # outside every generated /48


def _per_op(fn, items, batches: int = BATCHES) -> float:
    """Median over batches of (batch time / batch size), in seconds per operation."""
    per = []
    for _ in range(batches):
        t0 = time.perf_counter()
        fn(items)
        per.append((time.perf_counter() - t0) / len(items))
    return statistics.median(per)


def plan_iteration(seeds, rng_seed: int, limit: int) -> float:
    """Targets per second when iterating a plan with no send."""
    plan = targetgen.build_plan(seeds, rng_seed)
    n = min(limit, plan.budget)

    def walk(_):
        for _target in itertools.islice(plan, n):
            pass

    return 1.0 / _per_op(walk, range(n), batches=3)


def token_ops(targets: list[int]) -> dict[str, float]:
    tokens = [encode_token(t, SECRET) for t in targets]

    def enc(items):
        for t in items:
            encode_token(t, SECRET)

    def val(items):
        for ident, seq, payload in items:
            validate_token(ident, seq, payload, SECRET)

    return {
        "probe.encode_token_us": _per_op(enc, targets) * 1e6,
        "probe.validate_token_us": _per_op(val, tokens) * 1e6,
    }


def transport_ops(scenario, targets: list[int]) -> dict[str, float]:
    """SimTransport.send per op, split by whether the probed /56 answers."""
    populated = {
        scenario.net56(net, sub) for net in scenario.nets for sub in net.subnets
    }
    hits = [t for t in targets if t & PREFIX56_MASK in populated]
    misses = [t for t in targets if t & PREFIX56_MASK not in populated]
    if not misses:  # every /56 answers: miss at the /48 lookup instead
        misses = [FALLBACK_MISS_48 | n for n in range(1, len(targets) + 1)]
    hits = _cycled(hits, len(targets))
    misses = _cycled(misses, len(targets))
    transport = SimTransport(scenario)
    tokens = {t: encode_token(t, SECRET) for t in hits + misses}

    def send(items):
        for t in items:
            ident, seq, payload = tokens[t]
            transport.send(t, ident, seq, payload)
        transport.poll(0)

    return {
        "simnet.transport.send_hit_us": _per_op(send, hits) * 1e6,
        "simnet.transport.send_miss_us": _per_op(send, misses) * 1e6,
    }


def address_ops(addresses: list[int], n: int, asn_geo_path: str) -> dict[str, float]:
    """Parse, format and registry longest-prefix lookup over the given addresses."""
    addresses = _cycled(addresses, n)
    texts = [format_address(a) for a in addresses]
    table = load_asn_geo(asn_geo_path)

    def parse(items):
        for t in items:
            parse_address(t)

    def fmt(items):
        for a in items:
            format_address(a)

    def lpm(items):
        for a in items:
            table.lookup(a)

    return {
        "addrs.parse_us": _per_op(parse, texts) * 1e6,
        "addrs.format_us": _per_op(fmt, addresses) * 1e6,
        "addrs.lpm_lookup_us": _per_op(lpm, addresses) * 1e6,
    }


def _cycled(items: list, n: int) -> list:
    """items repeated to length n, so a short list still gets n operations."""
    return [items[i % len(items)] for i in range(n)]


def _evenly(items: list, k: int) -> list:
    if len(items) <= k:
        return list(items)
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def grab_samples(scenario, seeds, timeout: float, sizes: dict[str, int]):
    """Sequential ``grab()`` calls on a fixed, evenly spaced sample of each outcome class.

    A class the workload lacks is sampled from one fallback endpoint added
    outside the scenario's address space, so every class is always timed.
    Returns the per-class medians, the grabs made and how many of them came
    out other than expected.
    """
    services = SimServices(scenario)
    services.add_endpoint(FALLBACK_ENDPOINT, 80, "http", {"server": "fallback", "body": "ok"})
    services.add_endpoint(FALLBACK_ENDPOINT, 21, "silent", {})
    specs = {s.name: s for s in default_services()}
    expected = expected_grab_outcomes(scenario, specs.values(), set(seeds))
    by_class: dict[str, list] = {"refused": [], "responded": [], "timeout": []}
    for key in sorted(expected):
        by_class[expected[key]].append(key)
    fallback_address = parse_address(FALLBACK_ENDPOINT)
    fallback = {
        "refused": (fallback_address, "telnet"),
        "responded": (fallback_address, "http"),
        "timeout": (fallback_address, "ftp"),
    }
    connector = services.connector()
    out = {}
    made = wrong = 0
    for outcome, unit, scale in (
        ("refused", "us", 1e6),
        ("responded", "ms", 1e3),
        ("timeout", "ms", 1e3),
    ):
        sample = _evenly(by_class[outcome], sizes[outcome]) or [fallback[outcome]]
        times = []
        for address, service in sample:
            t0 = time.perf_counter()
            rec = grab_mod.grab(
                format_address(address), specs[service], connector=connector, timeout=timeout
            )
            times.append(time.perf_counter() - t0)
            made += 1
            wrong += rec.outcome != outcome
        out[f"grab.{outcome}_{unit}"] = statistics.median(times) * scale
    return out, made, wrong
