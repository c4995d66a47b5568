"""Application-layer service catalog for the grab campaign.

The catalog is the 25 port/protocol combinations worth checking on
residential addresses: the common mail/file/shell/web suspects, consumer IoT
ports (MQTT both plain and TLS, Apple lockdown on 62078), CWMP on 7547, the
usual alternate web ports, and NTP as the single UDP entry. IPP is carried
over HTTP (RFC 8010), so its row is an HTTP GET. SMB, MSSQL and MongoDB
ship as plain banner reads - their responses are captured as raw bytes
rather than parsed - although each waits for the client to speak first.
"""

from __future__ import annotations

from dataclasses import dataclass

KIND_BANNER = "banner_read"
KIND_HTTP = "http_get"
KIND_TLS_HTTP = "tls_then_http"
KIND_MQTT = "mqtt_connect"
KIND_LOCKDOWN = "lockdown_query"
KIND_NTP = "ntp_query"


@dataclass(frozen=True, slots=True)
class ServiceSpec:
    name: str
    port: int
    transport: str  # "tcp" | "udp"
    probe_kind: str


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
    ("ipp", 631, "tcp", KIND_HTTP),
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
