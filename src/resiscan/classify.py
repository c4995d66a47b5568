"""Turn raw probe responses into internal/external/aliased address sets.

An echo reply whose source is the probed low-IID target is a device inside
the customer network ("internal"). An ICMPv6 error from an address we never
probed is the gateway or another middlebox on the path ("external"). A /56
whose random alias probe comes back with an echo reply answers for its whole
address space and is excluded wholesale. Echo replies from a source other
than the probed target are anomalous: kept out of every downstream count,
and counted under ``anomalous`` in ``classify_stats.json``.

Hop-limit distance uses the three common initial values: a received hop
limit h infers an initial of 64 if h <= 64, 128 if 64 < h <= 128, and 255
above that; distance is initial minus received (e.g. h=118 -> 128 - 118 = 10
hops).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .addrs import IID_MASK, format_address, parse_address, parse_prefix, prefix48_of, prefix56_of
from .csvio import read_rows, write_rows

if TYPE_CHECKING:  # the stages that only read a classification never load these
    from .probe import ResponseRecord

LABEL_INTERNAL = "internal"
LABEL_EXTERNAL = "external"

_PLATEAUS = (64, 128, 255)


def infer_initial_hop_limit(received: int) -> int:
    """Initial hop limit implied by a received value (64/128/255 plateaus)."""
    if not 0 <= received <= 255:
        raise ValueError(f"hop limit out of range: {received}")
    for plateau in _PLATEAUS:
        if received <= plateau:
            return plateau


def hop_distance(received: int) -> tuple[int, int]:
    """(inferred initial, path distance) for a received hop limit."""
    initial = infer_initial_hop_limit(received)
    return initial, initial - received


@dataclass(frozen=True, slots=True)
class ClassifiedAddress:
    net56: int
    address: int
    label: str
    initial_hop_limit: int
    distance: int

    @property
    def iid(self) -> int:
        return self.address & IID_MASK


@dataclass(frozen=True, slots=True)
class PairDelta:
    """Distance gap between one internal device and one external responder."""

    net56: int
    internal_distance: int
    external_distance: int

    @property
    def delta(self) -> int:
        return self.internal_distance - self.external_distance


@dataclass(slots=True)
class ClassifyResult:
    classified: list[ClassifiedAddress] = field(default_factory=list)
    aliased_nets: set[int] = field(default_factory=set)
    missing_alias_nets: set[int] = field(default_factory=set)  # no alias outcome seen
    anomalous: list[ResponseRecord] = field(default_factory=list)


def classify_log(
    records: Iterable[ResponseRecord],
    *,
    seeds: Iterable[int],
    rng_seed: int,
) -> ClassifyResult:
    """Partition a response log into per-/56 classified addresses.

    ``seeds`` and ``rng_seed`` are the plan's: they reconstruct the full
    probed-target set so that an error source colliding with any probed
    address, logged or not, is caught. Each (net, address, label) appears at
    most once; aliased nets contribute nothing. A net is aliased when its
    alias probe, recognizable because its IID never falls in 1..10, drew an
    echo reply from itself.
    """
    from .probe import KIND_ECHO_REPLY
    from .targetgen import alias_target_for, probed_low_iid

    by_net: dict[int, list[ResponseRecord]] = {}
    for rec in records:
        by_net.setdefault(prefix56_of(rec.probed_target), []).append(rec)

    seed_set = set(seeds)

    def was_probed(address: int) -> bool:
        # Low-IID probe shape under a probed seed, or the net's alias target.
        return prefix48_of(address) in seed_set and (
            probed_low_iid(address) is not None or address == alias_target_for(address, rng_seed)
        )

    result = ClassifyResult()
    for net56, recs in sorted(by_net.items()):
        alias_recs = [r for r in recs if probed_low_iid(r.probed_target) is None]
        if not alias_recs:
            result.missing_alias_nets.add(net56)
        elif any(r.kind == KIND_ECHO_REPLY and r.source == r.probed_target for r in alias_recs):
            result.aliased_nets.add(net56)
            continue
        seen: set[tuple[int, str]] = set()
        for rec in recs:
            if rec.kind == KIND_ECHO_REPLY:
                if rec.source != rec.probed_target:
                    result.anomalous.append(rec)
                    continue
                label = LABEL_INTERNAL
            elif rec.icmp_type < 128:  # any ICMPv6 error, dest-unreachable or not
                if was_probed(rec.source):
                    result.anomalous.append(rec)
                    continue
                label = LABEL_EXTERNAL
            else:
                continue  # informational ICMPv6 chatter carries no classification
            key = (rec.source if label == LABEL_EXTERNAL else rec.probed_target, label)
            if key in seen:
                continue
            seen.add(key)
            initial, distance = hop_distance(rec.hop_limit)
            result.classified.append(
                ClassifiedAddress(
                    net56=net56,
                    address=key[0],
                    label=label,
                    initial_hop_limit=initial,
                    distance=distance,
                )
            )
    return result


def split_by_net(
    classified: Iterable[ClassifiedAddress],
) -> list[tuple[int, list[ClassifiedAddress], list[ClassifiedAddress]]]:
    """(net56, internal, external) for each /56 in address order; input order
    is kept within each list."""
    nets: dict[int, tuple[list[ClassifiedAddress], list[ClassifiedAddress]]] = {}
    for c in classified:
        internal, external = nets.setdefault(c.net56, ([], []))
        (internal if c.label == LABEL_INTERNAL else external).append(c)
    return [(net56, *nets[net56]) for net56 in sorted(nets)]


def pair_deltas(classified: Iterable[ClassifiedAddress]) -> list[PairDelta]:
    """Internal-vs-external distance deltas, one per pair within each /56."""
    return [
        PairDelta(net56, i.distance, e.distance)
        for net56, internal, external in split_by_net(classified)
        for i in internal
        for e in external
    ]


# ---------------------------------------------------------------------------
# File form: one line per classified address,
#   prefix56,address,label,initial_hl,distance


def write_classification(classified: Iterable[ClassifiedAddress], fh) -> None:
    ordered = sorted(classified, key=lambda c: (c.net56, c.label, c.address))
    write_rows(
        fh,
        (
            (f"{format_address(c.net56)}/56", format_address(c.address), c.label,
             c.initial_hop_limit, c.distance)
            for c in ordered
        ),
    )


def _classified_address(row: list[str]) -> ClassifiedAddress:
    net, address, label, initial, distance = row
    if label not in (LABEL_INTERNAL, LABEL_EXTERNAL):
        raise ValueError(f"bad label {label!r}")
    net56 = parse_prefix(net, 56)
    value = parse_address(address)
    if label == LABEL_INTERNAL and prefix56_of(value) != net56:
        raise ValueError(f"internal address {address} outside {net}")
    return ClassifiedAddress(net56, value, label, int(initial), int(distance))


def read_classification(fh) -> list[ClassifiedAddress]:
    return list(read_rows(fh, "classification", 5, parse=_classified_address))
