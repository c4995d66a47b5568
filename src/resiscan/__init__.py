"""Low-rate IPv6 residential scanning pipeline.

Seed filtering, low-interface-ID target generation, ICMPv6 probing,
internal/external classification, service grabbing, device fingerprinting,
and campaign reporting - plus a deterministic simulated network for
end-to-end testing without touching the wire.
"""

from .addrs import format_address, parse_address
from .classify import LABEL_EXTERNAL, LABEL_INTERNAL, classify_log, pair_deltas
from .grab import GrabRecord, run_grab_campaign
from .probe import RateLimiter, ScanLog, run_scan
from .seedprep import SeedSet, filter_seeds, parse_prefix_list
from .services import ServiceSpec, default_services
from .targetgen import ScanPlan, build_plan

__version__ = "0.1.0"

__all__ = [
    "GrabRecord",
    "LABEL_EXTERNAL",
    "LABEL_INTERNAL",
    "RateLimiter",
    "ScanLog",
    "ScanPlan",
    "SeedSet",
    "ServiceSpec",
    "__version__",
    "build_plan",
    "classify_log",
    "default_services",
    "filter_seeds",
    "format_address",
    "pair_deltas",
    "parse_address",
    "parse_prefix_list",
    "run_grab_campaign",
    "run_scan",
]
