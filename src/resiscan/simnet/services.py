"""Connectable application-layer endpoints for simulated scenarios.

Each configured service is reachable through a connector with the same shape
as the live one: ``connect(address, port, timeout, udp=False) -> socket``.
A connection hands the caller one end of a socketpair while a short-lived
thread speaks the service behavior on the other end, so grabbers exercise
real socket I/O (including genuine TLS handshakes, over certificates for a
fixed test key, unsigned because the grab client never checks a signature)
without touching the network. Firewalls apply to connections exactly as they
do to probes: services behind a default-deny CPE refuse, and so does every
address of an aliased /56, which echoes every probe but serves no port.

Every byte a behavior reads from a client is recorded in a transcript, which
is how the tests enforce that grabs stay minimal.
"""

from __future__ import annotations

import functools
import os
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..addrs import format_address
from .scenario import FIREWALL_ALLOW, Scenario, ScenarioError, SimService

if TYPE_CHECKING:
    import ssl  # loaded on the first TLS handshake

TLS_ALERT_HANDSHAKE_FAILURE = b"\x15\x03\x01\x00\x02\x02\x28"
TELNET_NEGOTIATION = b"\xff\xfd\x18\xff\xfd\x20\xff\xfd\x23\xff\xfd\x27"

# How long a behavior waits on each read or write of its client, unless it
# sets a hold time of its own.
_SERVE_TIMEOUT_S = 5.0


@dataclass(slots=True)
class Transcript:
    address: int  # the endpoint key, see _key
    port: int
    chunks: list[bytes] = field(default_factory=list)

    @property
    def data(self) -> bytes:
        return b"".join(self.chunks)


class _Conn:
    """Socket wrapper that records everything the service reads."""

    def __init__(self, sock: socket.socket, transcript: Transcript):
        self.sock = sock
        self.transcript = transcript

    def recv(self, n: int) -> bytes:
        data = self.sock.recv(n)
        if data:
            self.transcript.chunks.append(data)
        return data

    def sendall(self, data: bytes) -> None:
        self.sock.sendall(data)

    def settimeout(self, t: float | None) -> None:
        self.sock.settimeout(t)

    def close(self) -> None:
        # Orderly teardown: EOF the peer first, then absorb whatever it sent
        # that the behavior never read (recording it - those bytes are part
        # of what the client transmitted). Closing a stream socket with
        # unread peer data surfaces as ECONNRESET on the other side, which
        # would make grab outcomes depend on thread timing.
        try:
            if self.sock.type == socket.SOCK_STREAM:
                self.sock.shutdown(socket.SHUT_WR)
                _drain_until_close(self, 1.0)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# The simulator's P-256 test key: its private value and its uncompressed
# public point. It is public by design and serves only simulated endpoints'
# certificates: live mode never builds a SimServices. It is fixed because a
# per-run key would need elliptic-curve arithmetic here.
_TEST_KEY_D = bytes.fromhex("f8f36946e3cdec60feebe32154d30299f438c88b763a57dfa047aad3df631156")
_TEST_KEY_POINT = bytes.fromhex(
    "04d68a8f7e10eb803fc4e82b457f4d75425e431fb8cc26c65f620edd38fc007bdf"
    "9e9e347efb7c23d234c488a9dd4463f50094dd169487d0dc4cee75e1205e56d2"
)
# ecdsa-with-SHA256, id-ecPublicKey and the named curve prime256v1.
_ECDSA_WITH_SHA256 = bytes.fromhex("300a06082a8648ce3d040302")
_EC_PUBLIC_KEY = bytes.fromhex("06072a8648ce3d0201")
_PRIME256V1 = bytes.fromhex("06082a8648ce3d030107")

# Taken around each _server_context call, so that each name's context is built once.
_server_context_lock = threading.Lock()


def _der(tag: int, *parts: bytes) -> bytes:
    """One DER element: ``tag``, the definite length of ``parts`` joined, then them."""
    body = b"".join(parts)
    n = len(body)
    if n < 0x80:
        return bytes([tag, n]) + body
    width = (n.bit_length() + 7) // 8
    return bytes([tag, 0x80 | width]) + n.to_bytes(width, "big") + body


def _self_signed(common_name: str) -> tuple[bytes, bytes]:
    """(certificate, SEC 1 private key), both DER: an X.509 v1 certificate for
    ``common_name`` and the test key, valid 2020 to 2045. Its signature is an
    empty BIT STRING, since the grab client never checks one (``CERT_NONE``)."""
    one = _der(0x02, b"\x01")
    cn = _der(0x30, _der(0x06, b"\x55\x04\x03"), _der(0x0C, common_name.encode()))
    name = _der(0x30, _der(0x31, cn))
    public_key = _der(0x03, b"\0" + _TEST_KEY_POINT)
    tbs = _der(
        0x30,
        one,  # serial number
        _ECDSA_WITH_SHA256,
        name,  # issuer
        _der(0x30, _der(0x17, b"200101000000Z"), _der(0x17, b"450101000000Z")),
        name,  # subject
        _der(0x30, _der(0x30, _EC_PUBLIC_KEY, _PRIME256V1), public_key),
    )
    cert = _der(0x30, tbs, _ECDSA_WITH_SHA256, _der(0x03, b"\0"))
    key = _der(0x30, one, _der(0x04, _TEST_KEY_D), _der(0xA0, _PRIME256V1), _der(0xA1, public_key))
    return cert, key


@functools.cache
def _server_context(common_name: str) -> ssl.SSLContext:
    """The server context for one common name, with a certificate from _self_signed."""
    import base64
    import ssl
    import tempfile

    cert, key = _self_signed(common_name)
    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    # The ssl module loads a certificate and key only from files.
    with tempfile.TemporaryDirectory(prefix="simnet-tls-") as tmp:
        crt, pem = os.path.join(tmp, "cert.pem"), os.path.join(tmp, "key.pem")
        for path, label, der in ((crt, "CERTIFICATE", cert), (pem, "EC PRIVATE KEY", key)):
            text = base64.encodebytes(der).decode()
            with open(path, "w", encoding="ascii") as fh:
                fh.write(f"-----BEGIN {label}-----\n{text}-----END {label}-----\n")
        ctx.load_cert_chain(crt, pem)
    return ctx


# ---------------------------------------------------------------------------
# Behaviors. Each takes the recording connection and its params dict;
# _run_handler closes the connection when the behavior returns or raises.


def _drain_until_close(conn: _Conn, limit: float) -> None:
    conn.settimeout(limit)
    try:
        while conn.recv(4096):
            pass
    except OSError:
        pass


def recv_exact(conn: _Conn, n: int) -> bytes:
    """``n`` bytes from ``conn``, or fewer if the client stops sending first."""
    buf = b""
    while len(buf) < n:
        data = conn.recv(n - len(buf))
        if not data:
            return buf
        buf += data
    return buf


def _read_http_request(conn: _Conn, limit: int = 16384) -> bytes:
    buf = b""
    try:
        while b"\r\n\r\n" not in buf and len(buf) < limit:
            data = conn.recv(4096)
            if not data:
                break
            buf += data
    except OSError:
        pass
    return buf


def _http_payload(params: dict) -> bytes:
    status = int(params.get("status", 200))
    body = params.get("body", "").encode()
    server = params.get("server")
    head = [f"HTTP/1.1 {status} OK".encode()]
    if server:
        head.append(b"Server: " + str(server).encode())
    head.append(b"Content-Type: text/html")
    head.append(b"Content-Length: " + str(len(body)).encode())
    head.append(b"Connection: close")
    return b"\r\n".join(head) + b"\r\n\r\n" + body


def h_banner(conn: _Conn, params: dict) -> None:
    conn.sendall(bytes.fromhex(params.get("data_hex", "00")))


def h_silent(conn: _Conn, params: dict) -> None:
    _drain_until_close(conn, limit=float(params.get("hold_s", 10.0)))


def h_ssh(conn: _Conn, params: dict) -> None:
    conn.sendall(f"SSH-2.0-{params.get('version', 'OpenSSH_9.6')}\r\n".encode())
    _drain_until_close(conn, 1.0)


def h_telnet(conn: _Conn, params: dict) -> None:
    conn.sendall(TELNET_NEGOTIATION + str(params.get("banner", "login: ")).encode())
    _drain_until_close(conn, 1.0)


def h_http(conn: _Conn, params: dict) -> None:
    if _read_http_request(conn):
        conn.sendall(_http_payload(params))


def h_hp_printer_http(conn: _Conn, params: dict) -> None:
    model = params.get("model", "HP DeskJet 2700 series")
    serial = params.get("serial", "CN00000000")
    built = params.get("built")
    server = f"HP HTTP Server; {model}; Serial Number: {serial}"
    if built:
        server += f"; Built: {built}"
    if _read_http_request(conn):
        conn.sendall(_http_payload({**params, "server": server, "body": "<html>printer</html>"}))


def _fixed_page(server: str, body: str):
    """A device web server that answers any request with one page and takes no params."""
    return lambda conn, params: h_http(conn, {"server": server, "body": body})


def h_tls_http(conn: _Conn, params: dict) -> None:
    """HTTPS endpoint; a plaintext client gets a TLS alert and nothing else."""
    first = conn.sock.recv(1, socket.MSG_PEEK)
    if not first:
        return
    if first[0] != 0x16:  # not a TLS ClientHello: scold and hang up
        _read_http_request(conn)
        conn.sendall(TLS_ALERT_HANDSHAKE_FAILURE)
        return
    with _server_context_lock:
        ctx = _server_context(str(params.get("common_name", "simnet test")))
    conn.sock = ctx.wrap_socket(conn.sock, server_side=True)
    h_http(conn, params)


def h_mqtt_broker(conn: _Conn, params: dict) -> None:
    if params.get("close_immediately"):
        return
    head = conn.recv(1)
    if not head or head[0] >> 4 != 1:  # only CONNECT is acceptable first
        return
    remaining = 0
    shift = 0
    while True:
        b = conn.recv(1)
        if not b:
            return
        remaining |= (b[0] & 0x7F) << shift
        if not b[0] & 0x80:
            break
        shift += 7
    got = recv_exact(conn, remaining)
    if len(got) < remaining or not got.startswith(b"\x00\x04MQTT"):
        return
    rc = int(params.get("return_code", 0))
    conn.sendall(bytes([0x20, 0x02, 0x00, rc]))


def h_lockdown(conn: _Conn, params: dict) -> None:
    import plistlib

    raw_len = recv_exact(conn, 4)
    if len(raw_len) < 4:
        return
    (length,) = struct.unpack(">I", raw_len)
    if length > 1 << 20:
        return
    body = recv_exact(conn, length)
    if len(body) < length:
        return
    request = plistlib.loads(body)
    if not isinstance(request, dict):
        return
    mode = params.get("mode", "normal")
    if mode == "hostile_length":
        conn.sendall(struct.pack(">I", 0x7FFFFFFF) + b"\x00" * 16)
        return
    reply: dict = {"Request": request.get("Request", "GetValue"), "Key": request.get("Key", "")}
    if mode != "no_value" and request.get("Key") == "ProductVersion":
        reply["Value"] = str(params.get("product_version", "18.2"))
    payload = plistlib.dumps(reply, fmt=plistlib.FMT_XML)
    conn.sendall(struct.pack(">I", len(payload)) + payload)


def h_ntp(conn: _Conn, params: dict) -> None:
    query = conn.recv(512)
    if len(query) < 48 or query[0] & 0x07 != 3:  # client mode only
        return
    reply = bytearray(48)
    reply[0] = (query[0] & 0x38) | 0x04  # same version, server mode
    reply[1] = 2  # stratum
    conn.sendall(bytes(reply))


BEHAVIORS = {
    "banner": h_banner,
    "silent": h_silent,
    "ssh": h_ssh,
    "telnet": h_telnet,
    "http": h_http,
    "hp_printer_http": h_hp_printer_http,
    "dahua_http": _fixed_page("webserver", '<script>var appname="cameraNewConfig";</script>'),
    "nanoleaf_http": _fixed_page(
        "nanoleaf/1.0", '<html><a href="/upgrade">Upload New Firmware</a></html>'
    ),
    "tls_http": h_tls_http,
    "mqtt_broker": h_mqtt_broker,
    "lockdown": h_lockdown,
    "ntp": h_ntp,
}


class SimServices:
    """Endpoint registry + connector for one scenario. Each endpoint holds its
    behavior's handler and params; a behavior with no handler fails the
    registration with ScenarioError."""

    def __init__(self, scenario: Scenario):
        self.transcripts: list[Transcript] = []
        self._lock = threading.Lock()
        self._endpoints: dict[tuple[int, int], tuple] = {}  # (handler, params)
        for net, sub, _net56, wan in scenario.iter_subnets():
            # Every behavior resolves, served or not, so a misspelt one fails the load.
            cpe = {(wan, svc.port): _served(svc, wan) for svc in sub.cpe.services}
            hosts = {}
            for host in sub.hosts:
                address = scenario.host_address(net, sub, host)
                for svc in host.services:
                    hosts[(address, svc.port)] = _served(svc, address)
            if sub.aliased:
                continue
            self._endpoints.update(cpe)
            if sub.cpe.firewall == FIREWALL_ALLOW:  # a default-deny CPE filters every host behind it
                self._endpoints.update(hosts)

    def add_endpoint(self, address: str, port: int, behavior: str, params: dict | None = None) -> None:
        """Register an extra endpoint directly (tests)."""
        key = _key(address)
        self._endpoints[(key, port)] = _served(SimService(port, behavior, params or {}), key)

    def connect(self, address: str, port: int, timeout: float = 5.0, udp: bool = False):
        """Connector with live-socket semantics against the scenario."""
        try:
            key = _key(address)
        except (OSError, ValueError):
            raise ConnectionRefusedError(f"{address}:{port} unparsable") from None
        served = self._endpoints.get((key, port))
        if served is None:
            raise ConnectionRefusedError(f"{address}:{port} closed")
        handler, params = served
        kind = socket.SOCK_DGRAM if udp else socket.SOCK_STREAM
        client, server = socket.socketpair(socket.AF_UNIX, kind)
        server.settimeout(_SERVE_TIMEOUT_S)
        transcript = Transcript(key, port)
        conn = _Conn(server, transcript)
        t = threading.Thread(target=_run_handler, args=(handler, conn, params), daemon=True)
        try:
            t.start()
        except RuntimeError:  # "can't start new thread": no one serves this pair
            client.close()
            server.close()
            raise
        with self._lock:
            self.transcripts.append(transcript)
        client.settimeout(timeout)
        return client

    def connector(self):
        return self.connect

    def transcripts_for(self, address: str, port: int | None = None) -> list[Transcript]:
        key = _key(address)
        return [
            t for t in self.transcripts if t.address == key and (port is None or t.port == port)
        ]


def _served(svc: SimService, address: int) -> tuple:
    """(handler, params) of the endpoint ``svc`` at ``address``."""
    handler = BEHAVIORS.get(svc.behavior)
    if handler is None:
        where = format_address(address)
        raise ScenarioError(f"unknown behavior {svc.behavior!r} at {where} port {svc.port}")
    return handler, svc.params


def _run_handler(handler, conn: _Conn, params: dict) -> None:
    try:
        handler(conn, params)
    except Exception:  # noqa: BLE001 - a broken behavior only closes its connection
        pass
    finally:
        conn.close()


def _key(address: str) -> int:
    """Endpoint key of IPv6 address text in any form: its 128-bit int, as the
    scenario stores it. Other text, IPv4 and ``[IPv6]`` included, raises
    OSError, or ValueError if it holds a NUL."""
    return int.from_bytes(socket.inet_pton(socket.AF_INET6, address), "big")
