"""Low-rate IPv6 residential scanning pipeline.

Seed filtering, low-interface-ID target generation, ICMPv6 probing,
internal/external classification, service grabbing, device fingerprinting,
and campaign reporting - plus a deterministic simulated network for
end-to-end testing without touching the wire.
"""

__version__ = "0.1.0"
