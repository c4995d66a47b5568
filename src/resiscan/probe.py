"""Single-shot ICMPv6 echo probing with stateless response correlation.

The prober keeps no per-target state. Every echo request carries a keyed
token derived from the destination address and the campaign secret, split
across the ICMP identifier, sequence number, and payload; the payload also
embeds the destination itself. Any inbound packet that fails token
validation is counted as spurious and dropped, so off-path noise and
misdirected replies cannot enter the response log. ICMPv6 errors are
correlated through the quoted invoking packet instead of their source.

Sending and receiving share one thread: the scan loop drains the transport
without blocking every ``POLL_EVERY`` sends and validates each event as it
arrives. Transports are pluggable: the live transport uses raw ICMPv6
sockets, the simulated transport answers from a scenario in-process. Both
surface the same event type, and each says through ``drained()`` whether a
reply can still arrive, so a simulated scan ends as soon as its queue is
empty while a live one waits out the quiet period.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import logging
import select
import socket
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from .addrs import format_address, parse_address
from .csvio import read_rows, write_rows

log = logging.getLogger(__name__)

ICMP6_ECHO_REQUEST = 128
ICMP6_ECHO_REPLY = 129
ICMP6_DEST_UNREACH = 1

KIND_ECHO_REPLY = "echo_reply"
KIND_DEST_UNREACH = "dest_unreachable"
KIND_OTHER = "other"

OUTGOING_HOP_LIMIT = 255  # fixed so receivers see maximal distance headroom
TOKEN_LEN = 24  # 16-byte embedded target + 8-byte keyed MAC
RCVBUF_BYTES = 8 << 20  # live socket buffer: holds replies between drains
RECV_BATCH = 4096  # most packets one live poll reads, so a flood cannot stall sending
DEFAULT_QUIESCENCE_S = 8.0
POLL_EVERY = 1024  # sends between non-blocking drains of the transport
PROGRESS_EVERY = 100_000  # sends between progress callbacks
# Send errors that concern one destination: count it and skip it.
SKIP_ERRNOS = frozenset({errno.ENETUNREACH, errno.EHOSTUNREACH, errno.EADDRNOTAVAIL})
SEND_TRIES = 8  # tries of one probe while the send buffer is full, then abort
SEND_BACKOFF_S = 0.001  # first back-off after a full buffer; doubles per try


@dataclass(slots=True)
class IcmpEvent:
    """One inbound ICMPv6 packet, as surfaced by a transport."""

    source: int
    icmp_type: int
    icmp_code: int
    hop_limit: int
    ident: int
    seq: int
    payload: bytes
    quoted_target: int | None = None  # inner destination, errors only
    timestamp_us: int = 0


class Transport(Protocol):
    def send(self, dst: int, ident: int, seq: int, payload: bytes) -> None: ...

    def poll(self, max_wait: float) -> list[IcmpEvent]:
        """Wait up to ``max_wait`` seconds for events, then return all pending."""
        ...

    def drained(self) -> bool:
        """True only if nothing is pending and no further event can arrive."""
        ...


_MAC_FIELDS = struct.Struct("!HH8s")  # the 12-byte MAC as ident, seq, payload tail


@functools.lru_cache(maxsize=8)
def _token_encoder(secret: bytes) -> Callable[[int], tuple[int, int, bytes]]:
    """``encode_token`` for one secret. The MAC is keyed once, and each token
    hashes into a copy of that state."""
    copy, unpack = hashlib.blake2b(key=secret, digest_size=12).copy, _MAC_FIELDS.unpack

    def encode(target: int) -> tuple[int, int, bytes]:
        target_bytes = target.to_bytes(16, "big")
        mac = copy()
        mac.update(target_bytes)
        ident, seq, tail = unpack(mac.digest())
        return ident, seq, target_bytes + tail

    return encode


def encode_token(target: int, secret: bytes) -> tuple[int, int, bytes]:
    """Derive (identifier, sequence, payload) for a probe to ``target``.

    The MAC covers only the destination address, so validation needs no
    per-probe state; the address goes into the payload in the clear so that
    the probed target is recoverable even when a reply arrives from a
    different source.
    """
    return _token_encoder(secret)(target)


def validate_token(ident: int, seq: int, payload: bytes, secret: bytes) -> int | None:
    """Return the probed target if the token checks out, else None."""
    if len(payload) < TOKEN_LEN:
        return None
    target = int.from_bytes(payload[:16], "big")
    if encode_token(target, secret) != (ident, seq, payload[:TOKEN_LEN]):
        return None
    return target


class RateLimiter:
    """Absolute-schedule pacer: the i-th send happens no earlier than i/pps.

    Credit from slow periods is capped at ``burst`` sends (10 ms worth) so a
    stall can never be repaid with an unbounded packet burst; over any window
    of a second or more the realized rate stays within a burst of the target.
    """

    def __init__(self, pps: int):
        if pps <= 0:
            raise ValueError("packets-per-second must be positive")
        self.interval = 1.0 / pps
        self.burst = max(1, pps // 100)
        self._next = None

    def wait(self) -> None:
        now = time.monotonic()
        if self._next is None:
            self._next = now
        if now < self._next:
            time.sleep(self._next - now)
            now = self._next
        floor = now - self.burst * self.interval
        if self._next < floor:
            self._next = floor
        self._next += self.interval


@dataclass(slots=True)
class ResponseRecord:
    probed_target: int
    source: int
    kind: str
    icmp_type: int
    icmp_code: int
    hop_limit: int
    timestamp_us: int


@dataclass(slots=True)
class ScanLog:
    """Append-only probe outcome log plus campaign counters."""

    records: list[ResponseRecord] = field(default_factory=list)
    sent: int = 0
    spurious: int = 0
    send_errors: dict[str, int] = field(default_factory=dict)  # skipped sends by errno name
    complete: bool = False
    send_duration_s: float = 0.0


def _record_from_event(ev: IcmpEvent, secret: bytes) -> ResponseRecord | None:
    target = validate_token(ev.ident, ev.seq, ev.payload, secret)
    if target is None:
        return None
    if ev.icmp_type == ICMP6_ECHO_REPLY:
        kind = KIND_ECHO_REPLY
    else:
        # Errors must quote the probe we actually sent.
        if ev.quoted_target is not None and ev.quoted_target != target:
            return None
        kind = KIND_DEST_UNREACH if ev.icmp_type == ICMP6_DEST_UNREACH else KIND_OTHER
    return ResponseRecord(
        probed_target=target,
        source=ev.source,
        kind=kind,
        icmp_type=ev.icmp_type,
        icmp_code=ev.icmp_code,
        hop_limit=ev.hop_limit,
        timestamp_us=ev.timestamp_us,
    )


def _retry_send(exc: OSError, send, probe: tuple, errors: dict[str, int]) -> bool:
    """Apply the send errno policy to a failed send of ``probe``.

    A full send buffer (``ENOBUFS``, or ``EAGAIN`` from a non-blocking
    socket) means the packet never left, so the same probe is tried again
    after a short back-off, up to ``SEND_TRIES`` tries in all. An error that
    concerns only the destination is counted in ``errors`` and the
    destination skipped. True once the probe went out, False when it was
    skipped; any other error, or a buffer still full, is raised.
    """
    tries = 1
    while True:
        if exc.errno in SKIP_ERRNOS:
            name = errno.errorcode[exc.errno]
            errors[name] = errors.get(name, 0) + 1
            return False
        full = isinstance(exc, BlockingIOError) or exc.errno == errno.ENOBUFS
        if not full or tries == SEND_TRIES:
            raise exc
        time.sleep(SEND_BACKOFF_S * 2 ** (tries - 1))
        tries += 1
        try:
            send(*probe)
            return True
        except OSError as again:
            exc = again


def run_scan(
    addresses: Iterable[int],
    transport: Transport,
    secret: bytes,
    *,
    rate: RateLimiter | None = None,
    quiescence_s: float = DEFAULT_QUIESCENCE_S,
    progress: Callable[[int], None] | None = None,
) -> ScanLog:
    """Probe each address once and collect validated responses.

    Probes are single-shot (no retransmission). Sending and receiving share
    one loop: every ``POLL_EVERY`` sends the transport is drained without
    blocking, and each event is validated on arrival, so spurious packets
    are counted and dropped instead of queued. After the send phase the
    loop keeps draining until the transport reports ``drained()`` or no
    event has arrived for ``quiescence_s``, counted from the later of the
    last event and the end of sending.

    A failed send follows the errno policy of ``_retry_send``. Any other
    transport failure, in either phase, aborts the campaign: what is
    already pending is drained, unless the failure was a poll, and the
    records validated so far come back with ``complete=False``.
    """
    scan = ScanLog()
    polling = False  # true while a poll runs: one that raises is not retried

    def drain(max_wait: float) -> bool:
        nonlocal polling
        polling = True
        batch = transport.poll(max_wait)
        polling = False
        for ev in batch:
            rec = _record_from_event(ev, secret)
            if rec is None:
                scan.spurious += 1
            else:
                scan.records.append(rec)
        return bool(batch)

    send = transport.send
    encode = _token_encoder(secret)
    pace = rate.wait if rate is not None else None
    sent = 0
    t0 = time.monotonic()
    try:
        try:
            for address in addresses:
                if pace is not None:
                    pace()
                ident, seq, payload = encode(address)
                try:
                    send(address, ident, seq, payload)
                except OSError as exc:
                    probe = (address, ident, seq, payload)
                    if not _retry_send(exc, send, probe, scan.send_errors):
                        continue
                sent += 1
                if sent % POLL_EVERY == 0:
                    drain(0.0)
                if progress is not None and sent % PROGRESS_EVERY == 0:
                    progress(sent)
        finally:
            scan.sent = sent
            scan.send_duration_s = time.monotonic() - t0

        quiet_since = time.monotonic()
        while True:
            if drain(max(0.0, quiet_since + quiescence_s - time.monotonic())):
                quiet_since = time.monotonic()
            if transport.drained() or time.monotonic() >= quiet_since + quiescence_s:
                break
    except Exception as exc:  # noqa: BLE001 - any transport failure aborts
        log.error("transport failure after %d sends: %s", sent, exc)
        if not polling:
            try:
                drain(0.0)
            except Exception:  # noqa: BLE001 - the transport is gone; keep what we have
                pass
        return scan
    scan.complete = True
    return scan


# ---------------------------------------------------------------------------
# Response log file format: one record per line,
#   probed_target,source,kind,code,hop_limit,timestamp_us
# Addresses are canonical lowercase. For echo replies the code column is
# empty; for other ICMPv6 types it is "type:code" so nothing is lost.


def _code_field(rec: ResponseRecord) -> str:
    if rec.kind == KIND_ECHO_REPLY:
        return ""
    if rec.kind == KIND_DEST_UNREACH:
        return str(rec.icmp_code)
    return f"{rec.icmp_type}:{rec.icmp_code}"


def write_response_log(records: Iterable[ResponseRecord], fh) -> None:
    write_rows(
        fh,
        (
            (format_address(r.probed_target), format_address(r.source), r.kind,
             _code_field(r), r.hop_limit, r.timestamp_us)
            for r in records
        ),
    )


def _response_record(row: list[str]) -> ResponseRecord:
    target, source, kind, code, hop_limit, ts = row
    if kind == KIND_ECHO_REPLY:
        itype, icode = ICMP6_ECHO_REPLY, 0
    elif kind == KIND_DEST_UNREACH:
        itype, icode = ICMP6_DEST_UNREACH, int(code)
    elif kind == KIND_OTHER:
        t, _, c = code.partition(":")
        itype, icode = int(t), int(c)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    hops = int(hop_limit)
    if not 0 <= hops <= 255:
        raise ValueError(f"hop limit out of range: {hops}")
    return ResponseRecord(
        probed_target=parse_address(target),
        source=parse_address(source),
        kind=kind,
        icmp_type=itype,
        icmp_code=icode,
        hop_limit=hops,
        timestamp_us=int(ts),
    )


def read_response_log(fh) -> list[ResponseRecord]:
    return list(read_rows(fh, "response log", 6, parse=_response_record))


# ---------------------------------------------------------------------------
# Live transport: raw ICMPv6 sockets. Requires CAP_NET_RAW; never used by the
# test suite, but the packet codecs below are pure and tested directly.


def build_echo_request(ident: int, seq: int, payload: bytes) -> bytes:
    # Checksum is left zero: the kernel fills it in for ICMPv6 raw sockets.
    return struct.pack("!BBHHH", ICMP6_ECHO_REQUEST, 0, 0, ident, seq) + payload


def parse_icmp6_packet(
    data: bytes, source: int, hop_limit: int | None, ts_us: int
) -> IcmpEvent | None:
    """Decode a raw ICMPv6 message (header + body, no IPv6 header) to an event.

    Echo replies carry ident/seq/payload directly. For error types the body
    quotes the invoking IPv6 packet, so the original destination and our echo
    header are recovered from the quote at offsets 24 and 40. A packet whose
    hop limit is unknown (``None``) is dropped: classification needs it.
    """
    if hop_limit is None or len(data) < 8:
        return None
    itype, icode = data[0], data[1]
    if itype == ICMP6_ECHO_REPLY:
        ident, seq = struct.unpack_from("!HH", data, 4)
        return IcmpEvent(source, itype, icode, hop_limit, ident, seq, data[8:], None, ts_us)
    if itype < 128:  # error message: 4 bytes unused, then the invoking packet
        inner = data[8:]
        if len(inner) < 40 + 8:
            return None
        quoted_dst = int.from_bytes(inner[24:40], "big")
        if inner[40] != ICMP6_ECHO_REQUEST:
            return None
        ident, seq = struct.unpack_from("!HH", inner, 44)
        return IcmpEvent(
            source, itype, icode, hop_limit, ident, seq, inner[48:], quoted_dst, ts_us
        )
    return None


class LiveTransport:
    """Raw-socket ICMPv6 transport (echo out, everything relevant in).

    Each echo payload carries the operator's contact URL after the token, so
    a network operator who sees the probe can find out who sends it.
    """

    def __init__(self, contact_url: str) -> None:
        self._contact = contact_url.encode()
        self._sock = socket.socket(socket.AF_INET6, socket.SOCK_RAW, socket.IPPROTO_ICMPV6)
        self._sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_UNICAST_HOPS, OUTGOING_HOP_LIMIT)
        self._sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_RECVHOPLIMIT, 1)
        # The kernel caps this at net.core.rmem_max.
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF_BYTES)
        self._sock.setblocking(False)

    def send(self, dst: int, ident: int, seq: int, payload: bytes) -> None:
        packet = build_echo_request(ident, seq, payload + self._contact)
        # The kernel needs parseable text, not canonical text: inet_ntop is
        # about 15x cheaper per probe than ipaddress formatting.
        dst_text = socket.inet_ntop(socket.AF_INET6, dst.to_bytes(16, "big"))
        self._sock.sendto(packet, (dst_text, 0, 0, 0))

    def poll(self, max_wait: float) -> list[IcmpEvent]:
        out: list[IcmpEvent] = []
        readable, _, _ = select.select([self._sock], [], [], max(0.0, max_wait))
        if not readable:
            return out
        for _ in range(RECV_BATCH):
            try:
                data, ancdata, _flags, addr = self._sock.recvmsg(65535, 1024)
            except BlockingIOError:
                break
            hop_limit = None
            for level, ctype, cdata in ancdata:
                if level == socket.IPPROTO_IPV6 and ctype == socket.IPV6_HOPLIMIT:
                    hop_limit = int.from_bytes(cdata[:4], sys.byteorder)
            ev = parse_icmp6_packet(
                data, parse_address(addr[0]), hop_limit, time.time_ns() // 1000
            )
            if ev is not None:
                out.append(ev)
        return out

    def drained(self) -> bool:
        return False  # replies to live probes can still be in flight

    def close(self) -> None:
        self._sock.close()
