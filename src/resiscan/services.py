"""Application-layer service catalog for the grab campaign.

The default catalog is the 25 port/protocol combinations worth checking on
residential addresses: the common mail/file/shell/web suspects, consumer IoT
ports (MQTT both plain and TLS, Apple lockdown on 62078), CWMP on 7547, the
usual alternate web ports, and NTP as the single UDP entry. Database and
SMB-style services ship as plain banner reads - their responses are captured
as raw bytes rather than parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csvio import table_rows

KIND_BANNER = "banner_read"
KIND_HTTP = "http_get"
KIND_TLS_HTTP = "tls_then_http"
KIND_MQTT = "mqtt_connect"
KIND_LOCKDOWN = "lockdown_query"
KIND_NTP = "ntp_query"
KIND_LINE = "line_protocol"

PROBE_KINDS = frozenset(
    {KIND_BANNER, KIND_HTTP, KIND_TLS_HTTP, KIND_MQTT, KIND_LOCKDOWN, KIND_NTP, KIND_LINE}
)


@dataclass(frozen=True, slots=True)
class ServiceSpec:
    name: str
    port: int
    transport: str  # "tcp" | "udp"
    probe_kind: str
    request: bytes = b""

    def __post_init__(self) -> None:
        if self.transport not in ("tcp", "udp"):
            raise ValueError(f"bad transport {self.transport!r} for {self.name}")
        if self.probe_kind not in PROBE_KINDS:
            raise ValueError(f"bad probe kind {self.probe_kind!r} for {self.name}")
        if not 0 < self.port < 65536:
            raise ValueError(f"bad port {self.port} for {self.name}")


_DEFAULT_ROWS = (
    ("ftp", 21, "tcp", KIND_BANNER),
    ("ssh", 22, "tcp", KIND_BANNER),
    ("telnet", 23, "tcp", KIND_BANNER),
    ("smtp", 25, "tcp", KIND_BANNER),
    ("http", 80, "tcp", KIND_HTTP),
    ("pop3", 110, "tcp", KIND_BANNER),
    ("ntp", 123, "udp", KIND_NTP),
    ("imap", 143, "tcp", KIND_BANNER),
    ("https", 443, "tcp", KIND_TLS_HTTP),
    ("smb", 445, "tcp", KIND_BANNER),
    ("ipp", 631, "tcp", KIND_BANNER),
    ("mssql", 1433, "tcp", KIND_BANNER),
    ("mqtt", 1883, "tcp", KIND_MQTT),
    ("mysql", 3306, "tcp", KIND_BANNER),
    ("http-5000", 5000, "tcp", KIND_HTTP),
    ("cwmp", 7547, "tcp", KIND_HTTP),
    ("http-8000", 8000, "tcp", KIND_HTTP),
    ("http-8008", 8008, "tcp", KIND_HTTP),
    ("http-8060", 8060, "tcp", KIND_HTTP),
    ("http-8080", 8080, "tcp", KIND_HTTP),
    ("http-8081", 8081, "tcp", KIND_HTTP),
    ("https-8443", 8443, "tcp", KIND_TLS_HTTP),
    ("mqtts", 8883, "tcp", KIND_MQTT),
    ("mongodb", 27017, "tcp", KIND_BANNER),
    ("lockdown", 62078, "tcp", KIND_LOCKDOWN),
)


def default_services() -> tuple[ServiceSpec, ...]:
    return tuple(ServiceSpec(n, p, t, k) for n, p, t, k in _DEFAULT_ROWS)


def load_services(path: str) -> tuple[ServiceSpec, ...]:
    """Read a catalog file: ``name,port,transport,probe_kind[,request_hex]``."""
    seen: set[tuple[str, int]] = set()

    def parse(row: list[str]) -> ServiceSpec:
        if len(row) not in (4, 5):
            raise ValueError(f"expected 4 or 5 fields, got {len(row)}")
        name, port, transport, kind = (f.strip() for f in row[:4])
        request = bytes.fromhex(row[4].strip()) if len(row) == 5 else b""
        spec = ServiceSpec(name, int(port), transport, kind, request)
        key = (spec.name, spec.port)
        if key in seen:
            raise ValueError(f"service row duplicates {key}")
        seen.add(key)
        return spec

    return tuple(table_rows(path, "service catalog", parse=parse))

