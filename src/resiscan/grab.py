"""Application-layer service grabbing for responsive addresses.

One grab is one connection, one request at most, one bounded read, close.
Banners are capped at 64 KiB. The connect, the TLS handshake and each send
wait at most ``timeout``. The reads of one connection take at most
``timeout`` in all, however the peer spaces its bytes, and a read that gets
no first byte in that time is a timeout. A server-speaks-first banner read
also ends at the end of an ssh, ftp, smtp, pop3, imap or mysql greeting, or
once the peer has been quiet for ``IDLE_READ_S`` after its last byte, since
such peers send their banner and then wait for the client; HTTP and TLS
reads run until the peer closes. Nothing is ever retried except the one
sanctioned case: a "web" port that answers plaintext HTTP with a TLS
handshake record gets a second connection speaking TLS, because some
gateways serve their admin UI that way on port 80.
"""

from __future__ import annotations

import base64
import functools
import itertools
import re
import struct
import threading
import time
from dataclasses import dataclass

from .csvio import read_rows, write_rows
from .services import (
    KIND_BANNER,
    KIND_HTTP,
    KIND_LOCKDOWN,
    KIND_MQTT,
    KIND_NTP,
    KIND_TLS_HTTP,
    ServiceSpec,
)

BANNER_CAP = 64 * 1024
LOCKDOWN_REPLY_CAP = 1 << 20  # anything larger is hostile or broken
DEFAULT_TIMEOUT_S = 5.0
# After the first byte of a server-speaks-first banner, this much quiet ends the
# read; it is what ends a telnet read, whose greeting has no end of its own, and
# a greeting that stops short. Chosen against the simulator, whose banners come
# in one write; how live peers space their bytes is not measured (see README).
IDLE_READ_S = 0.25
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
    """Real-socket connector for IPv6 address text."""
    import socket

    if udp:
        sock = socket.socket(socket.AF_INET6, socket.SOCK_DGRAM)
        try:
            sock.settimeout(timeout)
            sock.connect((address, port))
        except BaseException:
            sock.close()
            raise
        return sock
    return socket.create_connection((address, port), timeout=timeout)


class _NoResponse(Exception):
    """The endpoint accepted the connection but gave no usable answer; args[0] says why.

    Each probe kind below fills in the record when the endpoint responds and
    raises this when it does not; grab() owns the socket and the outcome.
    """


class _TlsOnPlainPort(Exception):
    """A plaintext web port answered with a TLS record."""


def _budget(sock):
    """The seconds left of ``sock``'s timeout from now, as a function. They are
    counted on the clock the connection carries, if any (``now``: a simulated
    connection's, or TLS over one), else in real time."""
    clock = (lambda: sock.now) if hasattr(sock, "now") else time.monotonic
    deadline = clock() + sock.gettimeout()
    return lambda: deadline - clock()


def _read_until_close(sock, cap: int, idle: float | None = None, complete=None) -> bytes:
    """Read at most cap bytes until the peer closes, within the socket's timeout in all.

    No byte in that time is a timeout. After the first byte, the end of the
    budget or a broken stream ends the read with what arrived so far, and so
    does a peer quiet for ``idle`` seconds when ``idle`` is given, and bytes
    that ``complete(buf, seen)`` finds whole, ``seen`` of them checked before.
    """
    left = _budget(sock)
    buf = bytearray()
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
        seen = len(buf)
        buf += data
        if complete is not None and complete(buf, seen):
            break
        wait = left()
        if idle is not None:
            wait = min(idle, wait)
        if wait <= 0:
            break
        sock.settimeout(wait)
    if not buf:
        raise _NoResponse("connection_closed")
    return bytes(buf)


def _http_request(address: str, label: str) -> bytes:
    return (
        f"GET / HTTP/1.1\r\nHost: [{address}]\r\nUser-Agent: {label}\r\n"
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


@functools.cache
def _tls_context():
    """The client context of every TLS grab, built on first use: ``ssl`` loads late."""
    import ssl

    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    return ctx


class TlsCore:
    """One connection's TLS, sans-I/O: an ``SSLObject`` over two memory buffers.

    ``handshake`` and ``read`` are generators: each yields ``(16384, wait)``
    for the peer's next bytes, sent in by its caller (b"" at EOF), and returns
    the result or raises, ``ssl.SSLEOFError`` at an EOF without close_notify.
    Every record goes out through ``send``, a plain call. The grab client
    (``TlsLayer``) and the simulated TLS peer drive this one core.
    """

    def __init__(self, ctx, send, *, server_side: bool = False, received: bytes = b""):
        import ssl

        self._send = send
        self._incoming, self._outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
        self._incoming.write(received)
        self.tls = ctx.wrap_bio(self._incoming, self._outgoing, server_side=server_side)

    def _run(self, op, *args, wait: float | None):
        import ssl

        while True:
            try:
                return op(*args)
            except ssl.SSLWantReadError:
                pass
            finally:
                if self._outgoing.pending:
                    self._send(self._outgoing.read())
            data = yield 16384, wait
            if data:
                self._incoming.write(data)
            else:
                self._incoming.write_eof()  # the next op raises instead of asking again

    def handshake(self, wait: float | None = None):
        return self._run(self.tls.do_handshake, wait=wait)

    def read(self, n: int, wait: float | None = None):
        return self._run(self.tls.read, n, wait=wait)

    def write(self, data: bytes) -> None:
        # A plain call: a grab writes once, right after its handshake, and no end renegotiates.
        self.tls.write(data)
        self._send(self._outgoing.read())


class TlsLayer:
    """Client TLS over a connection with blocking ``recv`` and ``sendall``, a
    live socket or a simulated one. The handshake runs when it is built, as
    ``wrap_socket`` does. The connection's other attributes, its timeout and
    the clock a simulated one carries, are the layer's own.
    """

    def __init__(self, ctx, conn):
        self._conn = conn
        self.core = TlsCore(ctx, conn.sendall)
        self._drive(self.core.handshake())

    def _drive(self, op):
        """Run ``op``, a core operation, reading what it asks for off the connection."""
        data = None
        try:
            while True:
                n, _wait = op.send(data)
                data = self._conn.recv(n)
        except StopIteration as done:
            return done.value

    def recv(self, n: int) -> bytes:
        return self._drive(self.core.read(n))

    def sendall(self, data: bytes) -> None:
        self.core.write(data)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


# The string types a common name may take, by DER tag, and how each decodes.
# A T61String is read as UTF-8, as common X.509 parsers read it; text that does
# not decode leaves the name unread.
_NAME_CODECS = {
    0x0C: "utf-8",  # UTF8String
    0x12: "ascii",  # NumericString
    0x13: "ascii",  # PrintableString
    0x14: "utf-8",  # T61String
    0x16: "ascii",  # IA5String
    0x1A: "ascii",  # VisibleString
    0x1C: "utf-32-be",  # UniversalString
    0x1E: "utf-16-be",  # BMPString
}
_OID_COMMON_NAME = b"\x55\x04\x03"  # 2.5.4.3


def _der_parts(der: bytes, start: int, end: int) -> list[tuple[int, int, int]]:
    """(tag, start, end) of each DER element in der[start:end], contents only.

    Raises ValueError on an element that runs past ``end`` or a length of
    more than 4 bytes.
    """
    parts = []
    while start < end:
        if end - start < 2:
            raise ValueError("truncated element")
        tag, n = der[start], der[start + 1]
        start += 2
        if n & 0x80:
            width = n & 0x7F
            if not 0 < width <= 4:
                raise ValueError("unsupported length")
            n = int.from_bytes(der[start : start + width], "big")
            start += width
        if n > end - start:
            raise ValueError("element overruns its parent")
        parts.append((tag, start, start + n))
        start += n
    return parts


def _subject_common_name(der: bytes) -> str | None:
    """The first common name in an X.509 certificate's subject; None if it has
    none or the certificate is malformed. The bytes come from the peer."""
    try:
        ((tag, start, end),) = _der_parts(der, 0, len(der))
        (tbs_tag, start, end), _signature_alg, _signature = _der_parts(der, start, end)
        fields = _der_parts(der, start, end)
        if fields and fields[0][0] == 0xA0:  # explicit [0] version, absent in v1
            fields = fields[1:]
        _serial, _alg, _issuer, _validity, (subject_tag, start, end), _key, *_ = fields
        if (tag, tbs_tag, subject_tag) != (0x30, 0x30, 0x30):
            return None
        for rdn_tag, rdn_start, rdn_end in _der_parts(der, start, end):
            for atv_tag, atv_start, atv_end in _der_parts(der, rdn_start, rdn_end):
                (oid_tag, oid_start, oid_end), (value_tag, value_start, value_end) = _der_parts(
                    der, atv_start, atv_end
                )
                if (rdn_tag, atv_tag, oid_tag) != (0x31, 0x30, 0x06):
                    return None
                if der[oid_start:oid_end] == _OID_COMMON_NAME:
                    return der[value_start:value_end].decode(_NAME_CODECS[value_tag])
    except (ValueError, KeyError):  # UnicodeDecodeError is a ValueError
        return None
    return None


def _grab_banner(sock, rec: GrabRecord, cap: int, label: str) -> None:
    rec.banner = _read_until_close(sock, cap, IDLE_READ_S, _GREETING_ENDS.get(rec.service))


def _finish_http(rec: GrabRecord, raw: bytes) -> None:
    rec.banner = raw
    status, headers, _body = parse_http_response(raw)
    if status is None:
        raise _NoResponse("http_malformed")
    rec.http_server_header = headers.get("server")


def _grab_http(sock, rec: GrabRecord, cap: int, label: str) -> None:
    sock.sendall(_http_request(rec.address, label))
    raw = _read_until_close(sock, cap)
    # TLS record layer: alert (0x15) or handshake (0x16) then version 3.x
    if len(raw) >= 3 and raw[0] in (0x15, 0x16) and raw[1] == 0x03:
        raise _TlsOnPlainPort
    _finish_http(rec, raw)


def _grab_tls_http(sock, rec: GrabRecord, cap: int, label: str) -> None:
    try:
        tls = TlsLayer(_tls_context(), sock)
    except OSError:  # ssl.SSLError and a handshake timeout included
        raise _NoResponse("tls_handshake") from None
    der = tls.core.tls.getpeercert(binary_form=True)  # None if it sent none
    rec.tls_subject_cn = _subject_common_name(der) if der else None
    tls.sendall(_http_request(rec.address, label))
    _finish_http(rec, _read_until_close(tls, cap))


def _recv_all(sock, n: int, left) -> bytes:
    """Exactly ``n`` bytes before ``left()``, a ``_budget``, runs out, however
    the peer spaces them."""
    buf = b""
    while len(buf) < n:
        wait = left()
        if wait <= 0:
            raise TimeoutError
        sock.settimeout(wait)
        try:
            data = sock.recv(n - len(buf))
        except ConnectionResetError:  # a peer that hangs up on an unread request resets
            data = b""
        if not data:
            raise _NoResponse("connection_closed")
        buf += data
    return buf


def _grab_mqtt(sock, rec: GrabRecord, cap: int, label: str) -> None:
    # CONNECT, protocol level 4, clean session, no credentials, generated id.
    client_id = b"rs-probe"
    var = b"\x00\x04MQTT\x04\x02\x00\x3c" + struct.pack(">H", len(client_id)) + client_id
    sock.sendall(bytes([0x10, len(var)]) + var)
    reply = _recv_all(sock, 4, _budget(sock))
    if reply[0] != 0x20 or reply[1] != 0x02:
        raise _NoResponse("not_connack")
    rec.mqtt_return_code = reply[3]
    rec.banner = reply


def _grab_lockdown(sock, rec: GrabRecord, cap: int, label: str) -> None:
    import plistlib

    request = plistlib.dumps(
        {"Label": label, "Key": "ProductVersion", "Request": "GetValue"},
        fmt=plistlib.FMT_XML,
    )
    sock.sendall(struct.pack(">I", len(request)) + request)
    left = _budget(sock)
    (length,) = struct.unpack(">I", _recv_all(sock, 4, left))
    if length == 0 or length > LOCKDOWN_REPLY_CAP:
        raise _NoResponse("bounds")
    body = _recv_all(sock, length, left)
    try:
        reply = plistlib.loads(body)
    except Exception:
        raise _NoResponse("plist_malformed") from None
    rec.banner = body
    value = reply.get("Value") if isinstance(reply, dict) else None
    rec.lockdown_product_version = str(value) if value is not None else None


def _grab_ntp(sock, rec: GrabRecord, cap: int, label: str) -> None:
    query = bytearray(48)
    query[0] = 0x23  # v4 client
    sock.sendall(bytes(query))
    reply = sock.recv(512)
    if len(reply) < 48 or reply[0] & 0x07 != 4:
        raise _NoResponse("protocol")
    rec.banner = bytes(reply)


def _line_ends(pattern: bytes):
    """A greeting that ends with the first whole line ``pattern`` matches at its
    start; each check reads only the lines that its new bytes end."""
    line = re.compile(pattern)

    def complete(buf: bytearray, seen: int) -> bool:
        end = buf.find(b"\n", seen)
        if end < 0:
            return False
        start = buf.rfind(b"\n", 0, seen) + 1  # once per line, as it ends
        while end >= 0 and not line.match(buf, start, end + 1):
            start, end = end + 1, buf.find(b"\n", end + 1)
        return end >= 0

    return complete


# Where a server-speaks-first greeting ends; other banner reads wait for quiet.
_GREETING_ENDS = {
    "ssh": _line_ends(rb"SSH-"),  # earlier lines may come first (RFC 4253 section 4.2)
    "ftp": _line_ends(rb"\d{3}(?: |\r?\n)"),  # a reply's last line (RFC 959 section 4.2)
    "smtp": _line_ends(rb"\d{3}(?: |\r?\n)"),  # the same (RFC 5321 section 4.2)
    "pop3": _line_ends(rb""),  # the first line (RFC 1939)
    "imap": _line_ends(rb""),  # the first line (RFC 9051)
    "mysql": lambda buf, seen: len(buf) >= 4 + int.from_bytes(buf[:3], "little"),  # one packet
}

_PROBES = {
    KIND_BANNER: _grab_banner,
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
                _PROBES[spec.probe_kind](sock, rec, cap, label)
        except _TlsOnPlainPort:
            # Gateway wants TLS on a plaintext web port; one TLS retry, then done.
            with connector(address, spec.port, timeout) as sock:
                sock.settimeout(timeout)
                _grab_tls_http(sock, rec, cap, label)
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
    label: str = USER_AGENT,
) -> list[GrabRecord]:
    """Grab every (address, service) pair exactly once; order-stable output.

    Up to ``parallelism`` workers (at least one, at most one per pair), the
    calling thread and the threads it starts, take pairs one at a time from a
    shared iterator, so at most that many connections are open and nothing is
    queued per pair. No thread is started once every pair has been taken, and
    if one cannot be started, those that did and the caller do the work. Failures
    are per-pair: one hung or broken endpoint can't sink the campaign, and
    results come back sorted by (address, service). A ``RuntimeError`` or
    ``MemoryError`` is a failure of this process, not of the peer: after it,
    each worker makes at most one more grab, and it is raised once all stop.

    The workers take no lock. ``next()`` on the C iterator of pairs and
    ``list.append`` each run whole under CPython's GIL, so each pair is taken
    once; a free-threaded build is not supported.
    """
    addresses = list(dict.fromkeys(addresses))
    specs = list(specs)
    records: list[GrabRecord | None] = [None] * (len(addresses) * len(specs))
    pairs = enumerate(itertools.product(addresses, specs))
    failures: list[BaseException] = []
    taken = False  # every pair is taken, or a failure stops the campaign

    def work() -> None:
        nonlocal taken
        while (task := None if failures else next(pairs, None)) is not None:
            i, (a, s) = task
            try:
                records[i] = grab(a, s, connector=connector, timeout=timeout, label=label)
            except (RuntimeError, MemoryError) as exc:  # say, "can't start new thread"
                failures.append(exc)
            except Exception as exc:  # noqa: BLE001 - isolate per-pair failures
                import logging  # loaded only when a grab warns

                logging.getLogger(__name__).warning("grab %s/%s failed: %s", a, s.name, exc)
                records[i] = GrabRecord(
                    address=a, service=s.name, outcome=OUTCOME_ERROR, detail=repr(exc)
                )
        taken = True

    n_workers = max(1, min(parallelism, len(records)))
    workers = []
    for _ in range(n_workers - 1):  # the calling thread is the last worker
        if taken:
            break
        t = threading.Thread(target=work)
        try:
            t.start()
        except RuntimeError as exc:  # "can't start new thread"
            import logging

            logging.getLogger(__name__).warning(
                "grab: %s; %d of %d workers started", exc, len(workers) + 1, n_workers
            )
            break
        workers.append(t)
    work()
    for t in workers:
        t.join()
    if failures:
        raise failures[0]
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
                base64.b64encode(r.banner).decode("ascii") if r.banner else "",
            )
            for r in records
        ),
        header=_LOG_FIELDS,
    )


def _grab_record(row: list[str]) -> GrabRecord:
    # Positional, in GrabRecord's field order: address, service, outcome,
    # detail, banner, then the protocol extras in _LOG_FIELDS' order.
    return GrabRecord(
        row[0], row[1], row[2], row[3],
        base64.b64decode(row[8], validate=True) if row[8] else b"",
        row[4] or None, row[5] or None, int(row[6]) if row[6] else None, row[7] or None,
    )


def read_grab_log(fh) -> list[GrabRecord]:
    return list(read_rows(fh, "grab log", len(_LOG_FIELDS), _LOG_FIELDS, _grab_record))
