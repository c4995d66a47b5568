"""Campaign aggregation: per-AS and per-country splits, yield curves,
interface-ID and distance-delta histograms, protocol response splits, and
the internal-only exposure list (devices answering a protocol inside
networks whose externally visible address answers none).

``aggregate`` folds its inputs into the tables, each a file name with its
header and rows, and ``emit`` writes them. The fold is pure dictionary
counting - shuffling the input order never changes a count - and the
tables are sorted, locale-independent text, one plottable series per chart.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

from .addrs import LongestPrefixMap, format_address, prefix48_of
from .classify import LABEL_INTERNAL, ClassifiedAddress, pair_deltas, split_by_net
from .csvio import open_output, write_rows
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


def internal_only_exposures(
    classified: Iterable[ClassifiedAddress],
    grabs: Iterable[GrabRecord],
) -> list[tuple[int, int, tuple[str, ...]]]:
    """(net56, internal address, responded services) for nets whose external
    address answered no protocol at all."""
    responded: dict[str, set[str]] = {}
    for g in grabs:
        if g.outcome == OUTCOME_RESPONDED:
            responded.setdefault(g.address, set()).add(g.service)
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
    seed_total: int,
) -> dict[str, tuple[list[str], list]]:
    """The report tables, file name -> (header, rows), in the order emit writes them."""
    classified = list(classified)
    totals = [0, 0]  # [internal, external], as in every split below
    internal_addrs: set[str] = set()
    external_addrs: set[str] = set()
    countries: dict[str, list[int]] = {}
    asns: dict[int | str, list[int]] = {}
    as_names: dict[int | str, str] = {}
    per48: dict[int, list[int]] = {}
    iids = dict.fromkeys(range(1, 11), 0)
    for c in classified:
        col = 0 if c.label == LABEL_INTERNAL else 1
        totals[col] += 1
        (external_addrs if col else internal_addrs).add(format_address(c.address))
        if not col and 1 <= c.iid <= 10:
            iids[c.iid] += 1
        rec = asn_geo.lookup(c.address)
        if isinstance(rec, AsnGeoRecord):
            country, asn = rec.country, rec.asn
            as_names[asn] = rec.as_name
        else:
            country = asn = UNKNOWN
        countries.setdefault(country, [0, 0])[col] += 1
        asns.setdefault(asn, [0, 0])[col] += 1
        per48.setdefault(prefix48_of(c.net56), [0, 0])[col] += 1
    deltas = Counter(p.delta for p in pair_deltas(classified))

    # Most grab rows are refusals, and only responded rows feed a table.
    responded = [g for g in grabs if g.outcome == OUTCOME_RESPONDED]
    ports = {s.name: s.port for s in default_services()}
    protocols = {name: [0, 0] for name in ports}
    ports_by_address: dict[str, set[int]] = {}
    for g in responded:
        # Grab records are unique per (address, service), so these count addresses.
        split = protocols.setdefault(g.service, [0, 0])
        if g.address in internal_addrs:
            split[0] += 1
        elif g.address in external_addrs:
            split[1] += 1
        seen = ports_by_address.setdefault(g.address, set())
        if g.service in ports:
            seen.add(ports[g.service])
    lockdown = Counter(g.lockdown_product_version for g in responded if g.lockdown_product_version)
    exposures = internal_only_exposures(classified, responded)

    return {
        "summary.csv": (
            ["key", "value"],
            [
                ["internal_addresses", totals[0]],
                ["external_addresses", totals[1]],
                ["responsive_48s", len(per48)],
                ["seed_total", seed_total],
                ["delta_pairs", sum(deltas.values())],
                ["internal_only_exposures", len(exposures)],
            ],
        ),
        "country_split.csv": (
            ["country", "internal", "external"],
            [[c, i, e] for c, (i, e) in sorted(countries.items())],
        ),
        "asn_split.csv": (
            ["asn", "as_name", "internal", "external"],
            [
                [a, as_names.get(a, ""), i, e]
                for a, (i, e) in sorted(asns.items(), key=lambda kv: str(kv[0]))
            ],
        ),
        "yield_cdf.csv": (
            ["addresses", "internal_cdf", "external_cdf"],
            [[x, f"{i:.6f}", f"{e:.6f}"] for x, i, e in yield_cdf(list(per48.values()))],
        ),
        "iid_hist.csv": (["iid", "count"], list(iids.items())),
        "delta_hist.csv": (["delta", "count"], sorted(deltas.items())),
        "protocol_split.csv": (
            ["service", "port", "internal", "external"],
            [[name, ports.get(name, ""), i, e] for name, (i, e) in sorted(protocols.items())],
        ),
        "distinct_ports.csv": (
            ["ports", "count"],
            sorted(Counter(len(p) for p in ports_by_address.values()).items()),
        ),
        "internal_only.csv": (
            ["prefix56", "address", "services"],
            [
                [f"{format_address(net)}/56", format_address(addr), ";".join(svcs)]
                for net, addr, svcs in exposures
            ],
        ),
        "lockdown_versions.csv": (["version", "count"], sorted(lockdown.items())),
        "fingerprints_summary.csv": (
            ["kind", "count"],
            sorted(Counter(h.kind for h in hits).items()),
        ),
    }


def yield_cdf(counts: list[list[int]]) -> list[tuple[int, float, float]]:
    """(address count, internal CDF, external CDF) over responsive /48s, from
    each /48's [internal, external] address counts. Each fraction is a running
    count of the /48s at or below x over their number, so one pass suffices."""
    if not counts:
        return []
    n = len(counts)
    xs = range(max(max(i, e) for i, e in counts) + 1)
    internal = Counter(i for i, _ in counts)  # /48s with exactly x internal addresses
    external = Counter(e for _, e in counts)
    at_most = zip(accumulate(internal[x] for x in xs), accumulate(external[x] for x in xs))
    return [(x, i / n, e / n) for x, (i, e) in zip(xs, at_most)]


def emit(tables: dict[str, tuple[list[str], list]], outdir: str) -> list[str]:
    """Write each table to its file under outdir; returns the file names."""
    for name, (header, rows) in tables.items():
        with open_output(os.path.join(outdir, name)) as fh:
            write_rows(fh, rows, header)
    return list(tables)
