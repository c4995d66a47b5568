"""Connectable application-layer endpoints for simulated scenarios.

Each configured service is reachable through a connector with the same shape
as the live one: ``connect(address, port, timeout, udp=False) -> socket``.
The caller gets a pipe in memory with a socket's blocking calls, and the
service behavior on its other end is a generator that the pipe steps in the
caller's own thread. So grabbers run their socket code unchanged (TLS
included, over certificates for a fixed test key, unsigned because the grab
client never checks a signature), with no network and no thread. Firewalls
apply to connections exactly as they do to probes: services behind a
default-deny CPE refuse, and so does every address of an aliased /56, which
echoes every probe but serves no port.

Each pipe keeps its own virtual clock, so a simulated timeout costs no wall
time: a silent peer that outlasts ``grab_timeout_s``, or a telnet read that
waits ``IDLE_READ_S`` for more, ends at once. Every byte a behavior reads
from a client is recorded in a transcript, and so is every byte left unread
when the behavior returns, which is how the tests enforce that grabs stay
minimal.
"""

from __future__ import annotations

import collections
import functools
import os
import struct
import threading
from _socket import AF_INET6, SHUT_RDWR, inet_pton  # socket.py loads only on the live path
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..addrs import format_address
from ..grab import TlsCore
from .scenario import FIREWALL_ALLOW, Scenario, ScenarioError, SimService

if TYPE_CHECKING:
    import ssl  # loaded on the first TLS handshake

TLS_ALERT_HANDSHAKE_FAILURE = b"\x15\x03\x01\x00\x02\x02\x28"
TELNET_NEGOTIATION = b"\xff\xfd\x18\xff\xfd\x20\xff\xfd\x23\xff\xfd\x27"

# How long a behavior waits on each read of its client, unless it sets a
# hold time of its own.
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
    """The peer's side of a connection, as a behavior speaks it: ``sendall`` is
    a plain call, and ``data = yield from recv(n, wait)`` yields ``(n, wait)``
    to whatever steps it, which sends in up to ``n`` bytes, b"" at EOF, or throws in
    TimeoutError once ``wait`` seconds pass with nothing to read. What it
    reads is recorded. Once ``tls`` is set, reads and sends go through it."""

    def __init__(self, send, transcript: Transcript):
        self.send = send  # raw bytes to the client
        self.transcript = transcript
        self.tls: TlsCore | None = None

    def recv(self, n: int, wait: float = _SERVE_TIMEOUT_S):
        if self.tls is None:
            data = yield n, wait
        else:
            data = yield from self.tls.read(n, wait)
        if data:
            self.transcript.chunks.append(data)
        return data

    def sendall(self, data: bytes) -> None:
        (self.send if self.tls is None else self.tls.write)(data)


class _Pipe:
    """The client's end of one in-memory connection, with the blocking
    ``recv``/``sendall``/``settimeout``/``shutdown``/``close`` of a socket.

    The peer is a behavior's generator. It runs to its first read when the
    pipe is made, and the pipe steps it on whenever ``recv`` finds nothing to
    read, and on ``close``. Sends never block. A ``recv`` with timeout *t*
    waits for bytes or EOF until *t* after the virtual ``now``. Time moves
    only when both ends wait to read: the clock then jumps to the earlier
    deadline, the peer's on a tie, and that read times out. In datagram mode
    each read takes one message, and a close gives the other end no EOF, so
    a read then runs to its deadline, as on a datagram socket.
    """

    def __init__(self, behavior, params: dict, transcript: Transcript, datagram: bool):
        self.datagram = datagram
        self.now = 0.0  # virtual seconds since the connect
        self._timeout: float | None = None
        self._transcript = transcript
        self._inbox = collections.deque()  # what the peer sent and the client has not read
        self._unread = collections.deque()  # what the client sent and the peer has not read
        self._shut = False  # the peer reads EOF once it has read what came before
        deliver = functools.partial(self._put, self._inbox)
        self._peer = behavior(_Conn(deliver, transcript), params)  # None once it returns
        self._step()

    def settimeout(self, timeout: float | None) -> None:
        self._timeout = timeout

    def gettimeout(self) -> float | None:
        return self._timeout

    def _put(self, buf, data: bytes) -> None:
        if data or self.datagram:  # an empty stream send sends nothing
            buf.append(bytes(data))

    def _take(self, buf: collections.deque, n: int) -> bytes:
        """Up to ``n`` bytes of the first chunk sent; in datagram mode, the rest of it is lost."""
        if not buf:
            return b""
        data = buf.popleft()
        if len(data) > n and not self.datagram:
            buf.appendleft(data[n:])
        return data[:n]

    def _readable(self) -> bool:
        """Whether a client read returns now: bytes, or EOF once the peer has returned."""
        return bool(self._inbox) or self._peer is None and not self.datagram

    def _step(self, data: bytes | None = None, exc: Exception | None = None) -> None:
        """Resume the peer with ``data`` read, or with ``exc`` raised, up to its next read."""
        try:
            n, wait = self._peer.send(data) if exc is None else self._peer.throw(exc)
        except Exception:  # noqa: BLE001 - returning, or a broken behavior, closes the connection
            # Bytes the client sent that the behavior never read, now or later, are
            # part of what it transmitted.
            self._peer = None
            self._transcript.chunks += self._unread
            self._unread = self._transcript.chunks
        else:
            self._ask = n, self.now + wait  # the read the peer waits in

    def _serve(self) -> None:
        """Step the peer until it waits for bytes the client has not sent, or returns."""
        while self._peer and (self._unread or self._shut):
            self._step(self._take(self._unread, self._ask[0]))

    def _expire(self) -> None:
        """Both ends wait: jump the clock to the peer's deadline and time its read out."""
        self.now = self._ask[1]
        self._step(exc=TimeoutError("timed out"))
        self._serve()

    def recv(self, n: int) -> bytes:
        deadline = self.now + (float("inf") if self._timeout is None else self._timeout)
        if not self._readable():
            self._serve()
        while not self._readable():
            if not (self._peer and self._ask[1] <= deadline):  # the peer's read goes first on a tie
                self.now = deadline
                raise TimeoutError("timed out")
            self._expire()
        return self._take(self._inbox, n)

    def sendall(self, data: bytes) -> None:
        self._put(self._unread, data)

    def shutdown(self, how: int) -> None:
        """Stop sending, whatever ``how`` says."""
        self._shut = not self.datagram

    def close(self) -> None:
        """Close this end. The peer runs on to its end: it reads what was sent
        and then EOF, and any read still waiting runs to its deadline."""
        self.shutdown(SHUT_RDWR)
        self._serve()
        while self._peer:
            self._expire()

    def __enter__(self) -> _Pipe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
# Behaviors. Each is a generator function of the recording connection and its
# params dict: it sends with conn.sendall and reads with
# ``data = yield from conn.recv(n)``. Returning or raising closes the connection.


def _drain_until_close(conn: _Conn, limit: float):
    while (yield from conn.recv(4096, limit)):
        pass


def recv_exact(conn: _Conn, n: int):
    """``n`` bytes from ``conn``; EOFError, which closes it, if the client stops sending first."""
    buf = b""
    while len(buf) < n:
        data = yield from conn.recv(n - len(buf))
        if not data:
            raise EOFError
        buf += data
    return buf


def _read_http_request(conn: _Conn, buf: bytes = b"", limit: int = 16384):
    """The request head, after ``buf`` already read of it."""
    try:
        while b"\r\n\r\n" not in buf and len(buf) < limit:
            data = yield from conn.recv(4096)
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


def h_banner(conn: _Conn, params: dict):
    conn.sendall(bytes.fromhex(params.get("data_hex", "00")))
    yield from ()  # reads nothing


def h_silent(conn: _Conn, params: dict):
    yield from _drain_until_close(conn, limit=float(params.get("hold_s", 10.0)))


def _speaks_first(greeting):
    """A server that sends ``greeting(params)``, then reads until the client
    hangs up or a second passes."""

    def behavior(conn: _Conn, params: dict):
        conn.sendall(greeting(params))
        yield from _drain_until_close(conn, 1.0)

    return behavior


def h_http(conn: _Conn, params: dict):
    if (yield from _read_http_request(conn)):
        conn.sendall(_http_payload(params))


def h_hp_printer_http(conn: _Conn, params: dict):
    server = f"HP HTTP Server; {params.get('model', 'HP DeskJet 2700 series')}"
    server += f"; Serial Number: {params.get('serial', 'CN00000000')}"
    if params.get("built"):
        server += f"; Built: {params['built']}"
    yield from h_http(conn, {**params, "server": server, "body": "<html>printer</html>"})


def _fixed_page(server: str, body: str):
    """A device web server that answers any request with one page and takes no params."""
    return lambda conn, params: h_http(conn, {"server": server, "body": body})


def h_tls_http(conn: _Conn, params: dict):
    """HTTPS endpoint; a plaintext client gets a TLS alert and nothing else."""
    first = yield 1, _SERVE_TIMEOUT_S  # past the recorder: a handshake byte is not plaintext
    if not first:
        return
    if first[0] != 0x16:  # not a TLS ClientHello: scold and hang up
        conn.transcript.chunks.append(first)
        yield from _read_http_request(conn, first)
        conn.sendall(TLS_ALERT_HANDSHAKE_FAILURE)
        return
    with _server_context_lock:
        ctx = _server_context(str(params.get("common_name", "simnet test")))
    conn.tls = TlsCore(ctx, conn.send, server_side=True, received=first)
    yield from conn.tls.handshake(_SERVE_TIMEOUT_S)
    yield from h_http(conn, params)


def h_mqtt_broker(conn: _Conn, params: dict):
    if params.get("close_immediately"):
        return
    (head,) = yield from recv_exact(conn, 1)
    if head >> 4 != 1:  # only CONNECT is acceptable first
        return
    remaining = shift = 0
    while True:
        (b,) = yield from recv_exact(conn, 1)
        remaining |= (b & 0x7F) << shift
        if not b & 0x80:
            break
        shift += 7
    if (yield from recv_exact(conn, remaining)).startswith(b"\x00\x04MQTT"):
        conn.sendall(bytes([0x20, 0x02, 0x00, int(params.get("return_code", 0))]))


def h_lockdown(conn: _Conn, params: dict):
    import plistlib

    (length,) = struct.unpack(">I", (yield from recv_exact(conn, 4)))
    if length > 1 << 20:
        return
    request = plistlib.loads((yield from recv_exact(conn, length)))
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


def h_ntp(conn: _Conn, params: dict):
    query = yield from conn.recv(512)
    if len(query) < 48 or query[0] & 0x07 != 3:  # client mode only
        return
    reply = bytearray(48)
    reply[0] = (query[0] & 0x38) | 0x04  # same version, server mode
    reply[1] = 2  # stratum
    conn.sendall(bytes(reply))


BEHAVIORS = {
    "banner": h_banner,
    "silent": h_silent,
    "ssh": _speaks_first(lambda p: f"SSH-2.0-{p.get('version', 'OpenSSH_9.6')}\r\n".encode()),
    "telnet": _speaks_first(lambda p: TELNET_NEGOTIATION + str(p.get("banner", "login: ")).encode()),
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
    behavior and params; a behavior that does not exist fails the
    registration with ScenarioError."""

    def __init__(self, scenario: Scenario):
        self.transcripts: list[Transcript] = []
        self._endpoints: dict[tuple[int, int], tuple] = {}  # (behavior, params)
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
        transcript = Transcript(key, port)
        self.transcripts.append(transcript)  # atomic under the GIL, from any grab worker
        client = _Pipe(*served, transcript, datagram=udp)
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
    """(behavior, params) of the endpoint ``svc`` at ``address``."""
    behavior = BEHAVIORS.get(svc.behavior)
    if behavior is None:
        where = format_address(address)
        raise ScenarioError(f"unknown behavior {svc.behavior!r} at {where} port {svc.port}")
    return behavior, svc.params


def _key(address: str) -> int:
    """Endpoint key of IPv6 address text in any form: its 128-bit int, as the
    scenario stores it. Other text, IPv4 and ``[IPv6]`` included, raises
    OSError, or ValueError if it holds a NUL."""
    return int.from_bytes(inet_pton(AF_INET6, address), "big")
