"""Application-layer service grabbing for responsive addresses.

One grab is one connection, one request at most, one bounded read, close.
Banners are capped at 64 KiB, every socket operation sits under a single
per-connection timeout, and nothing is ever retried except the one sanctioned
case: a "web" port that answers plaintext HTTP with a TLS handshake record
gets a second connection speaking TLS, because some gateways serve their
admin UI that way on port 80.

Grabbers treat the address as an opaque endpoint string, so IPv4 targets
work identically - only the Host header bracketing cares about the family.
"""

from __future__ import annotations

import base64
import itertools
import logging
import socket
import ssl
import struct
import threading
from dataclasses import dataclass

from .csvio import read_rows, write_rows
from .services import (
    KIND_BANNER,
    KIND_HTTP,
    KIND_LINE,
    KIND_LOCKDOWN,
    KIND_MQTT,
    KIND_NTP,
    KIND_TLS_HTTP,
    ServiceSpec,
)

log = logging.getLogger(__name__)

BANNER_CAP = 64 * 1024
LOCKDOWN_REPLY_CAP = 1 << 20  # anything larger is hostile or broken
DEFAULT_TIMEOUT_S = 5.0
DEFAULT_PARALLELISM = 256
USER_AGENT = "resiscan/0.1"  # default label: HTTP User-Agent and lockdown Label

OUTCOME_RESPONDED = "responded"
OUTCOME_REFUSED = "refused"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"


@dataclass(slots=True)
class GrabRecord:
    address: str
    service: str
    outcome: str
    detail: str = ""
    banner: bytes = b""
    http_server_header: str | None = None
    tls_subject_cn: str | None = None
    mqtt_return_code: int | None = None
    lockdown_product_version: str | None = None


def live_connector(address: str, port: int, timeout: float = DEFAULT_TIMEOUT_S, udp: bool = False):
    """Real-socket connector; family chosen by the address text."""
    if udp:
        family = socket.AF_INET6 if ":" in address else socket.AF_INET
        sock = socket.socket(family, socket.SOCK_DGRAM)
        sock.settimeout(timeout)
        sock.connect((address, port))
        return sock
    return socket.create_connection((address, port), timeout=timeout)


class _NoResponse(Exception):
    """The endpoint accepted the connection but gave no usable answer; args[0] says why.

    Each probe kind below fills in the record when the endpoint responds and
    raises this when it does not; grab() owns the socket and the outcome.
    """


class _TlsOnPlainPort(Exception):
    """A plaintext web port answered with a TLS record."""


def _read_until_close(sock, cap: int) -> bytes:
    """Read at most cap bytes; timeouts after the first byte end the read."""
    buf = b""
    while len(buf) < cap:
        try:
            data = sock.recv(min(8192, cap - len(buf)))
        except TimeoutError:
            if buf:
                break
            raise
        except OSError:  # ssl.SSLError included: a broken stream ends the read
            break
        if not data:
            break
        buf += data
    if not buf:
        raise _NoResponse("connection_closed")
    return buf


def _http_request(address: str, label: str) -> bytes:
    host = f"[{address}]" if ":" in address else address
    return (
        f"GET / HTTP/1.1\r\nHost: {host}\r\nUser-Agent: {label}\r\n"
        f"Accept: */*\r\nConnection: close\r\n\r\n"
    ).encode()


def parse_http_response(raw: bytes) -> tuple[int | None, dict[str, str], bytes]:
    """(status, lowercase-keyed headers, body); None status when unparsable."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        return None, {}, b""
    lines = head.split(b"\r\n")
    parts = lines[0].split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        return None, {}, b""
    try:
        status = int(parts[1])
    except ValueError:
        return None, {}, b""
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if colon:
            headers[name.strip().decode("latin-1").lower()] = value.strip().decode("latin-1")
    return status, headers, body


_TLS_CONTEXT = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
_TLS_CONTEXT.check_hostname = False
_TLS_CONTEXT.verify_mode = ssl.CERT_NONE


def _peer_common_name(tls_sock) -> str | None:
    der = tls_sock.getpeercert(binary_form=True)
    if not der:
        return None
    from cryptography import x509
    from cryptography.x509.oid import NameOID

    cert = x509.load_der_x509_certificate(der)
    attrs = cert.subject.get_attributes_for_oid(NameOID.COMMON_NAME)
    return str(attrs[0].value) if attrs else None


def _grab_banner(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    rec.banner = _read_until_close(sock, cap)


def _grab_line(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    sock.sendall(spec.request)
    rec.banner = _read_until_close(sock, cap)


def _finish_http(rec: GrabRecord, raw: bytes) -> None:
    rec.banner = raw
    status, headers, _body = parse_http_response(raw)
    if status is None:
        raise _NoResponse("http_malformed")
    rec.http_server_header = headers.get("server")


def _grab_http(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    sock.sendall(_http_request(rec.address, label))
    raw = _read_until_close(sock, cap)
    # TLS record layer: alert (0x15) or handshake (0x16) then version 3.x
    if len(raw) >= 3 and raw[0] in (0x15, 0x16) and raw[1] == 0x03:
        raise _TlsOnPlainPort
    _finish_http(rec, raw)


def _grab_tls_http(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    try:
        tls = _TLS_CONTEXT.wrap_socket(sock)
    except OSError:  # ssl.SSLError and a handshake timeout included
        raise _NoResponse("tls_handshake") from None
    with tls:
        rec.tls_subject_cn = _peer_common_name(tls)
        tls.sendall(_http_request(rec.address, label))
        _finish_http(rec, _read_until_close(tls, cap))


def recv_exact(sock, n: int) -> bytes:
    """``n`` bytes from ``sock``, or fewer if the peer stops sending first."""
    buf = b""
    while len(buf) < n:
        data = sock.recv(n - len(buf))
        if not data:
            return buf
        buf += data
    return buf


def _recv_all(sock, n: int) -> bytes:
    data = recv_exact(sock, n)
    if len(data) < n:
        raise _NoResponse("connection_closed")
    return data


def _grab_mqtt(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    # CONNECT, protocol level 4, clean session, no credentials, generated id.
    client_id = b"rs-probe"
    var = b"\x00\x04MQTT\x04\x02\x00\x3c" + struct.pack(">H", len(client_id)) + client_id
    sock.sendall(bytes([0x10, len(var)]) + var)
    reply = _recv_all(sock, 4)
    if reply[0] != 0x20 or reply[1] != 0x02:
        raise _NoResponse("not_connack")
    rec.mqtt_return_code = reply[3]
    rec.banner = reply


def _grab_lockdown(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    import plistlib

    request = plistlib.dumps(
        {"Label": label, "Key": "ProductVersion", "Request": "GetValue"},
        fmt=plistlib.FMT_XML,
    )
    sock.sendall(struct.pack(">I", len(request)) + request)
    (length,) = struct.unpack(">I", _recv_all(sock, 4))
    if length == 0 or length > LOCKDOWN_REPLY_CAP:
        raise _NoResponse("bounds")
    body = _recv_all(sock, length)
    try:
        reply = plistlib.loads(body)
    except Exception:
        raise _NoResponse("plist_malformed") from None
    rec.banner = body
    value = reply.get("Value") if isinstance(reply, dict) else None
    rec.lockdown_product_version = str(value) if value is not None else None


def _grab_ntp(sock, rec: GrabRecord, spec: ServiceSpec, cap: int, label: str) -> None:
    query = bytearray(48)
    query[0] = 0x23  # v4 client
    sock.sendall(bytes(query))
    reply = sock.recv(512)
    if len(reply) < 48 or reply[0] & 0x07 != 4:
        raise _NoResponse("protocol")
    rec.banner = bytes(reply)


_PROBES = {
    KIND_BANNER: _grab_banner,
    KIND_LINE: _grab_line,
    KIND_HTTP: _grab_http,
    KIND_TLS_HTTP: _grab_tls_http,
    KIND_MQTT: _grab_mqtt,
    KIND_LOCKDOWN: _grab_lockdown,
    KIND_NTP: _grab_ntp,
}


def grab(
    address: str,
    spec: ServiceSpec,
    *,
    connector=live_connector,
    timeout: float = DEFAULT_TIMEOUT_S,
    cap: int = BANNER_CAP,
    label: str = USER_AGENT,
) -> GrabRecord:
    """Run one service check against one address."""
    rec = GrabRecord(address=address, service=spec.name, outcome=OUTCOME_RESPONDED)
    try:
        try:
            with connector(address, spec.port, timeout, udp=spec.transport == "udp") as sock:
                sock.settimeout(timeout)
                _PROBES[spec.probe_kind](sock, rec, spec, cap, label)
        except _TlsOnPlainPort:
            # Gateway wants TLS on a plaintext web port; one TLS retry, then done.
            with connector(address, spec.port, timeout) as sock:
                _grab_tls_http(sock, rec, spec, cap, label)
            rec.detail = "tls_on_plain_port"
    except _NoResponse as exc:
        rec.outcome, rec.detail = OUTCOME_ERROR, exc.args[0]
    except ConnectionRefusedError:
        rec.outcome = OUTCOME_REFUSED
    except TimeoutError:
        rec.outcome = OUTCOME_TIMEOUT
    except OSError as exc:
        rec.outcome, rec.detail = OUTCOME_ERROR, exc.__class__.__name__
    rec.banner = rec.banner[:cap]
    return rec


def run_grab_campaign(
    addresses,
    specs,
    *,
    connector=live_connector,
    parallelism: int = DEFAULT_PARALLELISM,
    timeout: float = DEFAULT_TIMEOUT_S,
    cap: int = BANNER_CAP,
    label: str = USER_AGENT,
) -> list[GrabRecord]:
    """Grab every (address, service) pair exactly once; order-stable output.

    ``parallelism`` worker threads (at least one, at most one per pair) take
    pairs one at a time from a shared iterator, so at most that many
    connections are open and nothing is queued per pair. Failures are per-pair: one hung or broken
    endpoint can't sink the campaign, and results come back sorted by
    (address, service).
    """
    addresses = list(dict.fromkeys(addresses))
    specs = list(specs)
    records: list[GrabRecord | None] = [None] * (len(addresses) * len(specs))
    pairs = enumerate(itertools.product(addresses, specs))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                task = next(pairs, None)
            if task is None:
                return
            i, (a, s) = task
            try:
                records[i] = grab(a, s, connector=connector, timeout=timeout, cap=cap, label=label)
            except Exception as exc:  # noqa: BLE001 - isolate per-pair failures
                log.warning("grab %s/%s failed: %s", a, s.name, exc)
                records[i] = GrabRecord(
                    address=a, service=s.name, outcome=OUTCOME_ERROR, detail=repr(exc)
                )

    n_workers = max(1, min(parallelism, len(records)))
    workers = [threading.Thread(target=work) for _ in range(n_workers)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    records.sort(key=lambda r: (r.address, r.service))
    return records


# ---------------------------------------------------------------------------
# Grab log: one CSV row per record, banner base64-encoded in the last field.

_LOG_FIELDS = (
    "address",
    "service",
    "outcome",
    "detail",
    "http_server_header",
    "tls_subject_cn",
    "mqtt_return_code",
    "lockdown_product_version",
    "banner_b64",
)


def write_grab_log(records, fh) -> None:
    write_rows(
        fh,
        (
            (
                r.address,
                r.service,
                r.outcome,
                r.detail,
                r.http_server_header or "",
                r.tls_subject_cn or "",
                "" if r.mqtt_return_code is None else r.mqtt_return_code,
                r.lockdown_product_version or "",
                base64.b64encode(r.banner).decode("ascii"),
            )
            for r in records
        ),
        header=_LOG_FIELDS,
    )


def _grab_record(row: list[str]) -> GrabRecord:
    return GrabRecord(
        address=row[0],
        service=row[1],
        outcome=row[2],
        detail=row[3],
        http_server_header=row[4] or None,
        tls_subject_cn=row[5] or None,
        mqtt_return_code=int(row[6]) if row[6] else None,
        lockdown_product_version=row[7] or None,
        banner=base64.b64decode(row[8], validate=True),
    )


def read_grab_log(fh) -> list[GrabRecord]:
    return list(read_rows(fh, "grab log", len(_LOG_FIELDS), _LOG_FIELDS, _grab_record))
