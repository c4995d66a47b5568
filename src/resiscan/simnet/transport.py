"""In-process ICMPv6 transport answering probes from a scenario.

Responses are generated synchronously at send time and queued for poll(), so
nothing is ever in flight: once the queue is empty the transport is drained.
A scan over the simulator is fully deterministic: event order equals send
order and timestamps come from a virtual clock, making two identical runs
byte-identical. Hop limits are arithmetic, never guessed: a responder with
initial hop limit H at distance d emits H - d.

Reply rules per probed address:
  * aliased /56              -> echo reply from the probed address itself
  * assigned host, allow FW  -> echo reply from the host
  * assigned host, deny FW   -> dest-unreachable (admin prohibited) from CPE WAN
  * unassigned address       -> dest-unreachable (address unreachable) from CPE WAN
  * /56 with no CPE          -> silence
"""

from __future__ import annotations

from dataclasses import dataclass

from ..addrs import IID_MASK, SUBNET_SHIFT
from ..probe import ICMP6_DEST_UNREACH, ICMP6_ECHO_REPLY, IcmpEvent
from .scenario import FIREWALL_ALLOW, Scenario

CODE_ADMIN_PROHIBITED = 1
CODE_ADDR_UNREACHABLE = 3

_TICK_US = 100  # virtual microseconds between consecutive sends
_HOP_US = 150  # virtual one-hop round-trip cost


class SimTransport:
    """Scenario-backed Transport implementation (see probe.Transport)."""

    def __init__(self, scenario: Scenario):
        self.sent = 0
        self._events: list[IcmpEvent] = []
        # Flatten the scenario into one lookup keyed by the /56's top 56 bits.
        self._subnets: dict[int, _SubnetView] = {}
        for _net, sub, net56, wan in scenario.iter_subnets():
            hosts = {
                h.iid: (h.initial_hop_limit, sub.cpe.base_distance + h.extra_hops)
                for h in sub.hosts
            }
            self._subnets[net56 >> SUBNET_SHIFT] = _SubnetView(
                aliased=sub.aliased,
                allow=sub.cpe.firewall == FIREWALL_ALLOW,
                wan=wan,
                cpe_hop_limit=sub.cpe.initial_hop_limit - sub.cpe.base_distance,
                hosts=hosts,
            )

    def send(self, dst: int, ident: int, seq: int, payload: bytes) -> None:
        self.sent += 1
        sub = self._subnets.get(dst >> SUBNET_SHIFT)
        if sub is None:
            return
        ts = self.sent * _TICK_US
        # An aliased /56 echoes from the probed address, an allowed host from
        # itself; anything else gets an error quoting the probe from the CPE.
        source, icmp_type, code, quoted = dst, ICMP6_ECHO_REPLY, 0, None
        hop_limit, delay_us = sub.cpe_hop_limit, _HOP_US
        if not sub.aliased:
            host = None
            if (dst >> 64) & 0xFF == 0:  # hosts live in the /56's first /64
                host = sub.hosts.get(dst & IID_MASK)
            if host is not None and sub.allow:
                initial, distance = host
                hop_limit, delay_us = initial - distance, distance * _HOP_US
            else:
                code = CODE_ADDR_UNREACHABLE if sub.allow else CODE_ADMIN_PROHIBITED
                source, icmp_type, quoted = sub.wan, ICMP6_DEST_UNREACH, dst
        self._events.append(
            IcmpEvent(source, icmp_type, code, hop_limit, ident, seq, payload, quoted, ts + delay_us)
        )

    def poll(self, max_wait: float) -> list[IcmpEvent]:
        # Replies are queued at send time, so there is never anything to wait for.
        out, self._events = self._events, []
        return out

    def drained(self) -> bool:
        return not self._events

    def inject(self, event: IcmpEvent) -> None:
        """Test hook: feed an arbitrary (possibly forged) inbound event."""
        self._events.append(event)


@dataclass(slots=True)
class _SubnetView:
    aliased: bool
    allow: bool
    wan: int
    cpe_hop_limit: int
    hosts: dict
