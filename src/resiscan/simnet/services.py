"""Connectable application-layer endpoints for simulated scenarios.

Each configured service is reachable through a connector with the same shape
as the live one: ``connect(address, port, timeout, udp=False) -> socket``.
A connection hands the caller one end of an in-memory pipe while a
short-lived thread speaks the service behavior on the other end, so grabbers
run their socket code unchanged (TLS included, over certificates for a fixed
test key, unsigned because the grab client never checks a signature) without
touching the network. Firewalls apply to connections exactly as they do to
probes: services behind a default-deny CPE refuse, and so does every address
of an aliased /56, which echoes every probe but serves no port.

Each pipe keeps its own virtual clock. A read waits in real time only while
the other end is still working; once both ends wait to read, the clock
jumps to the earlier of their deadlines and that read times out. So a
simulated timeout costs no wall time: a silent peer that outlasts
``grab_timeout_s``, or a telnet read that waits ``IDLE_READ_S`` for more,
ends as soon as both ends are waiting.

Every byte a behavior reads from a client is recorded in a transcript, and
so is every byte left unread when the behavior returns, which is how the
tests enforce that grabs stay minimal.
"""

from __future__ import annotations

import collections
import functools
import os
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..addrs import format_address
from ..grab import TlsLayer
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


class _End:
    """One end of a ``_Pipe``, with the blocking ``recv``/``sendall`` of a socket.

    Sends never block. A ``recv`` with timeout *t* waits for bytes or for EOF
    with a deadline *t* after the pipe's virtual now; in datagram mode each
    ``recv`` returns one message, and the other end's close gives no EOF,
    so a read then runs to its deadline, as on a datagram socket.
    """

    def __init__(self, pipe: _Pipe):
        self._pipe = pipe
        self.peer: _End  # the other end, set by _Pipe
        self.inbox = collections.deque() if pipe.datagram else bytearray()
        self.eof = False  # the other end sends nothing more
        self.closed = False
        self.deadline: float | None = None  # set while a recv waits; None again once it expires
        self._timeout: float | None = None
        self._unread = None  # takes what the other end sends after this end is closed

    def settimeout(self, timeout: float | None) -> None:
        self._timeout = timeout

    def gettimeout(self) -> float | None:
        return self._timeout

    def recv(self, n: int) -> bytes:
        pipe = self._pipe
        with pipe.cond:
            if not (self.inbox or self.eof):
                wait = float("inf") if self._timeout is None else self._timeout
                self.deadline = pipe.now + wait
                try:
                    while not (self.inbox or self.eof):
                        pipe.advance()
                        if self.deadline is None:
                            raise TimeoutError("timed out")
                        pipe.cond.wait()
                finally:
                    self.deadline = None
            if not self.inbox:
                return b""
            if pipe.datagram:
                return self.inbox.popleft()[:n]
            data = bytes(self.inbox[:n])
            del self.inbox[:n]
            return data

    def sendall(self, data: bytes) -> None:
        with self._pipe.cond:
            peer = self.peer
            if peer.closed:
                if peer._unread is not None:
                    peer._unread(bytes(data))
            elif self._pipe.datagram:
                peer.inbox.append(bytes(data))
            else:
                peer.inbox += data
            self._pipe.cond.notify_all()

    def shutdown(self, how: int) -> None:
        """Stop sending, whatever ``how`` says: the other end reads EOF once it
        has read what came before."""
        with self._pipe.cond:
            self.peer.eof = not self._pipe.datagram
            self._pipe.cond.notify_all()

    def close(self, unread=None) -> None:
        """Close this end. ``unread``, if given, takes what was sent to it and
        never read, now and later."""
        with self._pipe.cond:
            self.closed, self._unread = True, unread
            if unread is not None:
                for chunk in self.inbox if self._pipe.datagram else [self.inbox]:
                    if chunk:
                        unread(bytes(chunk))
            self.inbox.clear()
            self.shutdown(socket.SHUT_RDWR)

    def __enter__(self) -> _End:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Pipe:
    """One in-memory connection with a virtual clock: ``ends`` is (client, peer)."""

    def __init__(self, datagram: bool):
        self.datagram = datagram
        self.cond = threading.Condition()
        self.now = 0.0  # virtual seconds since the connect
        self.ends = client, peer = _End(self), _End(self)
        client.peer, peer.peer = peer, client

    def advance(self) -> None:
        """With the condition held: if each end is closed or waits in ``recv`` with
        nothing to read, jump the clock to the earlier deadline and expire that
        read. On a tie the peer's comes first."""
        client, peer = self.ends
        if all(end.closed or end.deadline is not None and not (end.inbox or end.eof)
               for end in self.ends):
            first = min((end for end in (peer, client) if end.deadline is not None),
                        key=lambda end: end.deadline)
            if first.deadline < float("inf"):
                self.now, first.deadline = first.deadline, None
                self.cond.notify_all()


class _Conn:
    """The peer's end of a connection, recording everything the behavior reads."""

    def __init__(self, end: _End, transcript: Transcript):
        self.end = end
        self.sock = end  # what the behavior speaks over: the end, or TLS over it
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
        # Bytes the client sent that the behavior never read are part of what it transmitted.
        self.end.close(unread=self.transcript.chunks.append)


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


def _read_http_request(conn: _Conn, buf: bytes = b"", limit: int = 16384) -> bytes:
    """The request head, after ``buf`` already read of it."""
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
    first = conn.end.recv(1)  # past the recorder: a handshake byte is not plaintext
    if not first:
        return
    if first[0] != 0x16:  # not a TLS ClientHello: scold and hang up
        conn.transcript.chunks.append(first)
        _read_http_request(conn, first)
        conn.sendall(TLS_ALERT_HANDSHAKE_FAILURE)
        return
    with _server_context_lock:
        ctx = _server_context(str(params.get("common_name", "simnet test")))
    conn.sock = TlsLayer(ctx, conn.end, server_side=True, received=first)
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
        client, server = _Pipe(datagram=udp).ends
        server.settimeout(_SERVE_TIMEOUT_S)
        transcript = Transcript(key, port)
        conn = _Conn(server, transcript)
        threading.Thread(target=_run_handler, args=(handler, conn, params), daemon=True).start()
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
