"""Connectable application-layer endpoints for simulated scenarios.

Each configured service is reachable through a connector with the same shape
as the live one: ``connect(address, port, timeout, udp=False) -> socket``.
A connection hands the caller one end of a socketpair while a short-lived
thread speaks the service behavior on the other end, so grabbers exercise
real socket I/O (including genuine TLS handshakes with generated
certificates) without touching the network. Firewalls apply to connections
exactly as they do to probes: services behind a default-deny CPE refuse.

Every byte a behavior reads from a client is recorded in a transcript, which
is how the tests enforce that grabs stay minimal.
"""

from __future__ import annotations

import datetime
import ipaddress
import os
import plistlib
import socket
import ssl
import struct
import tempfile
import threading
from dataclasses import dataclass, field

from ..addrs import PREFIX56_MASK
from ..grab import recv_exact
from .scenario import FIREWALL_ALLOW, Scenario, SimService

TLS_ALERT_HANDSHAKE_FAILURE = b"\x15\x03\x01\x00\x02\x02\x28"
TELNET_NEGOTIATION = b"\xff\xfd\x18\xff\xfd\x20\xff\xfd\x23\xff\xfd\x27"

_Host = ipaddress.IPv4Address | ipaddress.IPv6Address


@dataclass(slots=True)
class Transcript:
    address: _Host
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
                self.settimeout(1.0)
                while self.recv(4096):
                    pass
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class _CertStore:
    """Self-signed certificate cache, one per requested common name."""

    def __init__(self) -> None:
        self._contexts: dict[str, ssl.SSLContext] = {}
        self._lock = threading.Lock()

    def context_for(self, common_name: str) -> ssl.SSLContext:
        with self._lock:
            ctx = self._contexts.get(common_name)
            if ctx is not None:
                return ctx
            from cryptography import x509
            from cryptography.hazmat.primitives import hashes, serialization
            from cryptography.hazmat.primitives.asymmetric import ec
            from cryptography.x509.oid import NameOID

            key = ec.generate_private_key(ec.SECP256R1())
            name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, common_name)])
            cert = (
                x509.CertificateBuilder()
                .subject_name(name)
                .issuer_name(name)
                .public_key(key.public_key())
                .serial_number(x509.random_serial_number())
                .not_valid_before(datetime.datetime(2020, 1, 1))
                .not_valid_after(datetime.datetime(2045, 1, 1))
                .sign(key, hashes.SHA256())
            )
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            # The ssl module loads a certificate and key only from files.
            with tempfile.TemporaryDirectory(prefix="simnet-tls-") as tmp:
                crt, pem = os.path.join(tmp, "cert.pem"), os.path.join(tmp, "key.pem")
                with open(crt, "wb") as fh:
                    fh.write(cert.public_bytes(serialization.Encoding.PEM))
                with open(pem, "wb") as fh:
                    fh.write(
                        key.private_bytes(
                            serialization.Encoding.PEM,
                            serialization.PrivateFormat.PKCS8,
                            serialization.NoEncryption(),
                        )
                    )
                ctx.load_cert_chain(crt, pem)
            self._contexts[common_name] = ctx
            return ctx


_certs = _CertStore()


# ---------------------------------------------------------------------------
# Behaviors. Each takes the recording connection and its params dict;
# _run_handler closes the connection when the behavior returns.


def _drain_until_close(conn: _Conn, limit: float = 5.0) -> None:
    conn.settimeout(limit)
    try:
        while conn.recv(4096):
            pass
    except OSError:
        pass


def _read_http_request(conn: _Conn, limit: int = 16384) -> bytes:
    buf = b""
    conn.settimeout(5.0)
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


def h_greeting(conn: _Conn, params: dict) -> None:
    conn.sendall(str(params.get("text", "220 ready\r\n")).encode())


def h_banner(conn: _Conn, params: dict) -> None:
    conn.sendall(bytes.fromhex(params.get("data_hex", "00")))


def h_big_banner(conn: _Conn, params: dict) -> None:
    conn.sendall(b"B" * int(params.get("size", 1 << 20)))


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
    conn.settimeout(5.0)
    first = conn.sock.recv(1, socket.MSG_PEEK)
    if not first:
        return
    if first[0] != 0x16:  # not a TLS ClientHello: scold and hang up
        _read_http_request(conn)
        conn.sendall(TLS_ALERT_HANDSHAKE_FAILURE)
        return
    ctx = _certs.context_for(str(params.get("common_name", "simnet test")))
    try:
        conn.sock = ctx.wrap_socket(conn.sock, server_side=True)
    except (ssl.SSLError, OSError):
        return
    h_http(conn, params)


def h_mqtt_broker(conn: _Conn, params: dict) -> None:
    if params.get("close_immediately"):
        return
    conn.settimeout(5.0)
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
    conn.settimeout(5.0)
    try:
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
    except (OSError, plistlib.InvalidFileException, ValueError):
        pass


def h_ntp(conn: _Conn, params: dict) -> None:
    conn.settimeout(5.0)
    query = conn.recv(512)
    if len(query) < 48 or query[0] & 0x07 != 3:  # client mode only
        return
    reply = bytearray(48)
    reply[0] = (query[0] & 0x38) | 0x04  # same version, server mode
    reply[1] = 2  # stratum
    conn.sendall(bytes(reply))


BEHAVIORS = {
    "greeting": h_greeting,
    "banner": h_banner,
    "big_banner": h_big_banner,
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
    """Endpoint registry + connector for one scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.transcripts: list[Transcript] = []
        self._lock = threading.Lock()
        self._endpoints: dict[tuple[_Host, int], SimService] = {}
        self._deny_hosts: set[ipaddress.IPv6Address] = set()
        self._alias_stubs: dict[int, dict[int, SimService]] = {}
        for net, sub, net56, wan in scenario.iter_subnets():
            if sub.aliased:
                self._alias_stubs[net56] = {s.port: s for s in sub.stub_services}
                continue
            for svc in sub.cpe.services:
                self._register(wan, svc)
            allow = sub.cpe.firewall == FIREWALL_ALLOW
            for host in sub.hosts:
                address = scenario.host_address(net, sub, host)
                if not allow:
                    self._deny_hosts.add(ipaddress.IPv6Address(address))
                for svc in host.services:
                    self._register(address, svc)

    def _register(self, address: int, svc: SimService) -> None:
        self._endpoints[(ipaddress.IPv6Address(address), svc.port)] = svc

    def add_endpoint(self, address: str, port: int, behavior: str, params: dict | None = None) -> None:
        """Register an extra endpoint directly (tests; either address family)."""
        self._endpoints[(_host(address), port)] = SimService(port, behavior, params or {})

    def connect(self, address: str, port: int, timeout: float = 5.0, udp: bool = False):
        """Connector with live-socket semantics against the scenario."""
        try:
            host = _host(address)
        except ValueError:
            raise ConnectionRefusedError(f"{address}:{port} unparsable") from None
        if host in self._deny_hosts:
            raise ConnectionRefusedError(f"{address}:{port} filtered")
        svc = self._endpoints.get((host, port))
        if svc is None and host.version == 6:
            svc = self._alias_stubs.get(int(host) & PREFIX56_MASK, {}).get(port)
        if svc is None:
            raise ConnectionRefusedError(f"{address}:{port} closed")
        handler = BEHAVIORS.get(svc.behavior)
        if handler is None:
            raise ConnectionRefusedError(f"{address}:{port} unknown behavior {svc.behavior!r}")
        kind = socket.SOCK_DGRAM if udp else socket.SOCK_STREAM
        client, server = socket.socketpair(socket.AF_UNIX, kind)
        transcript = Transcript(host, port)
        with self._lock:
            self.transcripts.append(transcript)
        conn = _Conn(server, transcript)
        t = threading.Thread(
            target=_run_handler, args=(handler, conn, svc.params), daemon=True
        )
        t.start()
        client.settimeout(timeout)
        return client

    def connector(self):
        return self.connect

    def transcripts_for(self, address: str, port: int | None = None) -> list[Transcript]:
        host = _host(address)
        return [
            t for t in self.transcripts if t.address == host and (port is None or t.port == port)
        ]


def _run_handler(handler, conn: _Conn, params: dict) -> None:
    try:
        handler(conn, params)
    except OSError:
        pass
    finally:
        conn.close()


def _host(address: str) -> _Host:
    """Parse connector address text: IPv4, IPv6 in any form, or ``[IPv6]``."""
    return ipaddress.ip_address(address.strip().strip("[]"))
