"""Campaign aggregation: per-AS and per-country splits, yield curves,
interface-ID and distance-delta histograms, protocol response splits, and
the internal-only exposure list (devices answering a protocol inside
networks whose externally visible address answers none).

Aggregation is pure dictionary-folding over its inputs - shuffling the
input order never changes a count - and the emitted tables are sorted,
locale-independent text, one plottable series per chart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable

from .addrs import LongestPrefixMap, format_address, prefix48_of
from .classify import LABEL_INTERNAL, ClassifiedAddress, pair_deltas, split_by_net
from .csvio import write_rows
from .fingerprint import FingerprintHit
from .grab import OUTCOME_RESPONDED, GrabRecord
from .services import default_services

UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class AsnGeoRecord:
    asn: int
    as_name: str
    country: str


def load_asn_geo(path: str) -> LongestPrefixMap:
    """Read ``prefix,asn,as_name,country`` registry rows into an LPM table."""
    return LongestPrefixMap.load(
        path, "asn/geo table", 4, lambda asn, name, country: AsnGeoRecord(int(asn), name, country)
    )


@dataclass(slots=True)
class ReportBundle:
    total_internal: int = 0
    total_external: int = 0
    seed_total: int | None = None
    country_counts: dict[str, list[int]] = field(default_factory=dict)  # [internal, external]
    asn_counts: dict[int | str, list[int]] = field(default_factory=dict)
    asn_names: dict[int | str, str] = field(default_factory=dict)
    yield_stats: dict[int, list[int]] = field(default_factory=dict)  # /48 -> [int, ext]
    iid_hist: dict[int, int] = field(default_factory=dict)
    delta_hist: dict[int, int] = field(default_factory=dict)
    total_pairs: int = 0
    protocol_split: dict[str, list[int]] = field(default_factory=dict)
    service_ports: dict[str, int] = field(default_factory=dict)
    distinct_ports_hist: dict[int, int] = field(default_factory=dict)
    internal_only: list[tuple[int, int, tuple[str, ...]]] = field(default_factory=list)
    lockdown_versions: dict[str, int] = field(default_factory=dict)
    fingerprint_counts: dict[str, int] = field(default_factory=dict)


def _responded_services(grabs: Iterable[GrabRecord]) -> dict[str, set[str]]:
    by_address: dict[str, set[str]] = {}
    for g in grabs:
        if g.outcome == OUTCOME_RESPONDED:
            by_address.setdefault(g.address, set()).add(g.service)
    return by_address


def internal_only_exposures(
    classified: Iterable[ClassifiedAddress],
    grabs: Iterable[GrabRecord],
) -> list[tuple[int, int, tuple[str, ...]]]:
    """(net56, internal address, responded services) for nets whose external
    address answered no protocol at all."""
    responded = _responded_services(grabs)
    out: list[tuple[int, int, tuple[str, ...]]] = []
    for net56, internal, external in split_by_net(classified):
        if any(responded.get(format_address(e.address)) for e in external):
            continue
        for c in internal:
            services = responded.get(format_address(c.address), set())
            if not services:
                continue
            out.append((net56, c.address, tuple(sorted(services))))
    return out


def aggregate(
    classified: Iterable[ClassifiedAddress],
    grabs: Iterable[GrabRecord],
    hits: Iterable[FingerprintHit],
    asn_geo: LongestPrefixMap,
    *,
    seed_total: int | None = None,
) -> ReportBundle:
    classified = list(classified)
    grabs = list(grabs)
    specs = default_services()
    bundle = ReportBundle(seed_total=seed_total)
    bundle.service_ports = {s.name: s.port for s in specs}
    bundle.protocol_split = {s.name: [0, 0] for s in specs}
    bundle.iid_hist = {n: 0 for n in range(1, 11)}

    internal_addrs: set[str] = set()
    external_addrs: set[str] = set()
    for c in classified:
        col = 0 if c.label == LABEL_INTERNAL else 1
        if c.label == LABEL_INTERNAL:
            bundle.total_internal += 1
            internal_addrs.add(format_address(c.address))
            iid = c.iid
            if 1 <= iid <= 10:
                bundle.iid_hist[iid] += 1
        else:
            bundle.total_external += 1
            external_addrs.add(format_address(c.address))
        rec = asn_geo.lookup(c.address)
        country = rec.country if isinstance(rec, AsnGeoRecord) else UNKNOWN
        asn: int | str = rec.asn if isinstance(rec, AsnGeoRecord) else UNKNOWN
        bundle.country_counts.setdefault(country, [0, 0])[col] += 1
        bundle.asn_counts.setdefault(asn, [0, 0])[col] += 1
        if isinstance(rec, AsnGeoRecord):
            bundle.asn_names[asn] = rec.as_name
        bundle.yield_stats.setdefault(prefix48_of(c.net56), [0, 0])[col] += 1

    for delta in (p.delta for p in pair_deltas(classified)):
        bundle.delta_hist[delta] = bundle.delta_hist.get(delta, 0) + 1
        bundle.total_pairs += 1

    ports_by_address: dict[str, set[int]] = {}
    for g in grabs:
        if g.outcome != OUTCOME_RESPONDED:
            continue
        split = bundle.protocol_split.setdefault(g.service, [0, 0])
        seen = ports_by_address.setdefault(g.address, set())
        port = bundle.service_ports.get(g.service)
        if port is not None:
            seen.add(port)
        if g.address in internal_addrs:
            split[0] += 1
        elif g.address in external_addrs:
            split[1] += 1
        if g.lockdown_product_version:
            v = g.lockdown_product_version
            bundle.lockdown_versions[v] = bundle.lockdown_versions.get(v, 0) + 1
    # Protocol split counts distinct addresses; the loop above counted grab
    # records, which are already unique per (address, service) by contract.
    for n_ports in (len(p) for p in ports_by_address.values()):
        bundle.distinct_ports_hist[n_ports] = bundle.distinct_ports_hist.get(n_ports, 0) + 1

    for h in hits:
        bundle.fingerprint_counts[h.kind] = bundle.fingerprint_counts.get(h.kind, 0) + 1

    bundle.internal_only = internal_only_exposures(classified, grabs)
    return bundle


def yield_cdf(bundle: ReportBundle) -> list[tuple[int, float, float]]:
    """(address count, internal CDF, external CDF) over responsive /48s."""
    stats = list(bundle.yield_stats.values())
    if not stats:
        return []
    n = len(stats)
    top = max(max(i, e) for i, e in stats)
    rows = []
    for x in range(0, top + 1):
        internal_frac = sum(1 for i, _ in stats if i <= x) / n
        external_frac = sum(1 for _, e in stats if e <= x) / n
        rows.append((x, internal_frac, external_frac))
    return rows


def emit(bundle: ReportBundle, outdir: str) -> list[str]:
    """Write every table/series under outdir; returns the file list."""
    tables = {
        "summary.csv": (
            ["key", "value"],
            [
                ["internal_addresses", bundle.total_internal],
                ["external_addresses", bundle.total_external],
                ["responsive_48s", len(bundle.yield_stats)],
                ["seed_total", "" if bundle.seed_total is None else bundle.seed_total],
                ["delta_pairs", bundle.total_pairs],
                ["internal_only_exposures", len(bundle.internal_only)],
            ],
        ),
        "country_split.csv": (
            ["country", "internal", "external"],
            [[c, v[0], v[1]] for c, v in sorted(bundle.country_counts.items())],
        ),
        "asn_split.csv": (
            ["asn", "as_name", "internal", "external"],
            [
                [a, bundle.asn_names.get(a, ""), v[0], v[1]]
                for a, v in sorted(bundle.asn_counts.items(), key=lambda kv: str(kv[0]))
            ],
        ),
        "yield_cdf.csv": (
            ["addresses", "internal_cdf", "external_cdf"],
            [[x, f"{i:.6f}", f"{e:.6f}"] for x, i, e in yield_cdf(bundle)],
        ),
        "iid_hist.csv": (["iid", "count"], [[n, bundle.iid_hist.get(n, 0)] for n in range(1, 11)]),
        "delta_hist.csv": (["delta", "count"], sorted(bundle.delta_hist.items())),
        "protocol_split.csv": (
            ["service", "port", "internal", "external"],
            [
                [name, bundle.service_ports.get(name, ""), v[0], v[1]]
                for name, v in sorted(bundle.protocol_split.items())
            ],
        ),
        "distinct_ports.csv": (["ports", "count"], sorted(bundle.distinct_ports_hist.items())),
        "internal_only.csv": (
            ["prefix56", "address", "services"],
            [
                [f"{format_address(net)}/56", format_address(addr), ";".join(svcs)]
                for net, addr, svcs in bundle.internal_only
            ],
        ),
        "lockdown_versions.csv": (["version", "count"], sorted(bundle.lockdown_versions.items())),
        "fingerprints_summary.csv": (["kind", "count"], sorted(bundle.fingerprint_counts.items())),
    }
    os.makedirs(outdir, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(os.path.join(outdir, name), "w", newline="", encoding="utf-8") as fh:
            write_rows(fh, rows, header)
    return list(tables)
