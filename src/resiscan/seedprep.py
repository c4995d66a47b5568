"""Seed-prefix ingestion and residential filtering.

BGP-derived seed prefixes are normalized to /48 granularity, then kept only
when the announcing AS is categorized as an Internet Service Provider and the
prefix maps to a residential last-mile connection type (cable/DSL or dialup).
Both datasets are offline snapshot files; no network lookups happen here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .addrs import PREFIX48_MASK, LongestPrefixMap, parse_cidr

RESIDENTIAL_CATEGORY = "internet service provider"
RESIDENTIAL_CONNECTIONS = frozenset({"cable_dsl", "dialup"})
CONNECTION_TYPES = frozenset({"cable_dsl", "dialup", "cellular", "corporate", "other"})

REASON_NO_AS = "no_as_mapping"
REASON_CATEGORY = "category"
REASON_NO_CONNECTION = "no_connection_mapping"
REASON_CONNECTION = "connection_type"


@dataclass(slots=True)
class SeedSet:
    """Ordered, duplicate-free /48 seed prefixes plus provenance counters."""

    prefixes: tuple[int, ...]
    provenance: dict[str, int] = field(default_factory=dict)


def parse_prefix_list(text: str) -> SeedSet:
    """Parse a one-CIDR-per-line seed list into /48 granularity.

    Lines end at ``\n`` only, as in text read with universal newlines. Blank
    lines and ``#`` comments are skipped. Prefixes longer than /48 are
    truncated to their covering /48 (counted in provenance); prefixes shorter
    than /48 are rejected with a counted reason rather than truncated, since
    widening a seed would invent address space we were never given. Anything
    unparsable raises ``ValueError("line N: ...")``. First occurrence wins;
    later duplicates are counted and dropped.
    """
    ordered: dict[int, None] = {}  # a repeat keeps the place of its first occurrence
    lines = 0
    truncated = 0
    rejected_short = 0
    # A line at a time, as a paper-scale list holds millions; the last match may be empty.
    for lineno, match in enumerate(re.finditer(r"[^\n]*\n?", text), start=1):
        line = match[0].split("#", 1)[0].strip()
        if not line:
            continue
        lines += 1
        try:
            address, plen = parse_cidr(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not an IPv6 prefix: {line!r} ({exc})") from None
        if plen < 48:
            rejected_short += 1
            continue
        if plen > 48:
            truncated += 1
        ordered[address & PREFIX48_MASK] = None
    return SeedSet(
        prefixes=tuple(ordered),
        provenance={
            "lines": lines,
            "prefixes": len(ordered),
            "duplicates": lines - rejected_short - len(ordered),
            "truncated": truncated,
            "rejected_short": rejected_short,
        },
    )


def _as_category(asn: str, category: str, country: str) -> str:
    int(asn)  # a row whose ASN is not an integer is malformed
    return category


def load_as_map(path: str) -> LongestPrefixMap:
    """Load ``prefix,asn,category,country`` rows into an LPM table of the
    AS primary categories, the one field the filter reads."""
    return LongestPrefixMap.load(path, "as map", 4, _as_category)


def _connection_type(text: str) -> str:
    conn = text.casefold().replace("/", "_")
    if conn not in CONNECTION_TYPES:
        raise ValueError(f"unknown connection type {conn!r}")
    return conn


def load_connection_map(path: str) -> LongestPrefixMap:
    """Load ``prefix,connection_type`` rows into an LPM table."""
    return LongestPrefixMap.load(path, "connection map", 2, _connection_type)


def classify_residential(
    prefix48: int, as_map: LongestPrefixMap, conn_map: LongestPrefixMap
) -> str | None:
    """The reason one /48 is not residential, or None when it is.

    Pure lookup against the two snapshots: AS primary category must be
    "Internet Service Provider" (case-insensitive) and the longest matching
    connection-type entry must be cable_dsl or dialup.
    """
    category = as_map.lookup(prefix48)
    if category is None:
        return REASON_NO_AS
    if category.strip().casefold() != RESIDENTIAL_CATEGORY:
        return REASON_CATEGORY
    conn = conn_map.lookup(prefix48)
    if conn is None:
        return REASON_NO_CONNECTION
    if conn not in RESIDENTIAL_CONNECTIONS:
        return REASON_CONNECTION
    return None


def filter_seeds(
    seeds: SeedSet, as_map: LongestPrefixMap, conn_map: LongestPrefixMap
) -> SeedSet:
    """Apply the two-stage residential filter, preserving input order.

    The returned provenance records the count entering each stage and the
    survivors, mirroring how the filter narrows the seed population:
    ``input`` -> ``after_category`` -> ``after_connection``.
    """
    rejects = {REASON_NO_AS: 0, REASON_CATEGORY: 0, REASON_NO_CONNECTION: 0, REASON_CONNECTION: 0}
    survivors: list[int] = []
    for p48 in seeds.prefixes:
        reason = classify_residential(p48, as_map, conn_map)
        if reason is None:
            survivors.append(p48)
        else:
            rejects[reason] += 1
    provenance = {
        "input": len(seeds.prefixes),
        "after_category": len(seeds.prefixes) - rejects[REASON_NO_AS] - rejects[REASON_CATEGORY],
        "after_connection": len(survivors),
    }
    provenance.update({f"rejected_{k}": v for k, v in rejects.items()})
    return SeedSet(prefixes=tuple(survivors), provenance=provenance)
