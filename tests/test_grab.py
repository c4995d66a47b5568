import errno
import functools
import io
import plistlib
import socket
import struct
import sys
import tempfile
import threading
import time
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EVERY_BEHAVIOR,
    FIREWALL_DENY,
    SimService,
    every_behavior_scenario,
    make_host,
    make_net,
    make_scenario,
    make_subnet,
)
from resiscan.addrs import format_address, parse_address
from resiscan.grab import (
    _GREETING_ENDS,
    _LOG_FIELDS,
    _PROBES,
    BANNER_CAP,
    IDLE_READ_S,
    OUTCOME_ERROR,
    OUTCOME_REFUSED,
    OUTCOME_RESPONDED,
    OUTCOME_TIMEOUT,
    GrabRecord,
    _subject_common_name,
    grab,
    parse_http_response,
    read_grab_log,
    run_grab_campaign,
    write_grab_log,
)
from resiscan.services import ServiceSpec, default_services
from resiscan.simnet import SimServices
from resiscan.simnet import services as sim_services
from resiscan.simnet.scenario import expected_grab_outcomes
from resiscan.simnet.services import TELNET_NEGOTIATION

V6 = "2001:db8:5:100::1"


@pytest.fixture(scope="module")
def env():
    """A services backend with one endpoint per interesting behavior."""
    net = make_net(
        "2001:db8:5::",
        [
            make_subnet(
                1,
                hosts=[
                    make_host(
                        1,
                        services=[
                            SimService(23, "telnet", {"banner": "router login: "}),
                            SimService(22, "ssh", {"version": "dropbear_2022.83"}),
                            SimService(80, "http", {"server": "BusyBox httpd", "body": "<h1>cpe</h1>"}),
                            SimService(443, "tls_http", {"common_name": "gw.example", "server": "tls-ui"}),
                            SimService(1883, "mqtt_broker", {"return_code": 0}),
                            SimService(8883, "mqtt_broker", {"return_code": 5}),
                            SimService(62078, "lockdown", {"product_version": "18.2"}),
                            SimService(123, "ntp", {}),
                        ],
                    ),
                    make_host(2, services=[SimService(23, "silent", {"hold_s": 10.0})]),
                ],
            ),
            make_subnet(
                2,
                firewall=FIREWALL_DENY,
                hosts=[make_host(1, services=[SimService(23, "telnet", {})])],
            ),
        ],
    )
    backend = SimServices(make_scenario([net]))
    return backend


def spec_by_name(name):
    return next(s for s in default_services() if s.name == name)


def do_grab(backend, address, spec, timeout=2.0, **kw):
    return grab(address, spec, connector=backend.connector(), timeout=timeout, **kw)


def _scripted_connector(reply: bytes, peers: list):
    """A connector whose peer writes ``reply`` and stops sending; a TLS retry gets it again."""
    def connector(address, port, timeout, udp=False):
        ours, peer = socket.socketpair(type=socket.SOCK_DGRAM if udp else socket.SOCK_STREAM)
        peers.append(peer)
        peer.sendall(reply)
        if not udp:
            peer.shutdown(socket.SHUT_WR)
        return ours

    return connector


def _paced_connector(script, peers: list, close: bool = False):
    """A connector whose peer sends each ``(delay_s, data)`` of ``script`` in turn,
    then closes its write side if ``close``, else keeps it open until the client
    hangs up, as sshd does."""
    def connector(address, port, timeout, udp=False):
        ours, peer = socket.socketpair()

        def speak():
            try:
                for delay, data in script:
                    time.sleep(delay)
                    peer.sendall(data)
                if close:
                    peer.shutdown(socket.SHUT_WR)
                peer.recv(1)
            except OSError:  # the client hung up mid-script
                pass

        speaker = threading.Thread(target=speak)
        speaker.start()
        peers.append((peer, speaker))
        return ours

    return connector


def _paced_grab(spec, script, close: bool = False, **kw):
    """(record, seconds) of one grab against a paced peer, the peer cleaned up."""
    peers = []
    t0 = time.monotonic()
    try:
        rec = grab(V6, spec, connector=_paced_connector(script, peers, close), **kw)
        return rec, time.monotonic() - t0
    finally:
        for peer, speaker in peers:
            speaker.join(timeout=10)
            peer.close()


class _ClockJumpingSocket:
    """A client socket whose every ``recv`` moves ``clock`` a minute on, so the
    bytes it returns arrive as any grab deadline passes."""

    def __init__(self, sock, clock: list):
        self._sock, self._clock = sock, clock

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv(self, n):
        data = self._sock.recv(n)
        self._clock[0] += 60.0
        return data


class _ResettingSocket:
    """A client socket whose first ``good_reads`` calls of ``recv`` return what
    the peer sent and whose every later one finds the stream reset."""

    def __init__(self, sock, good_reads: int = 1):
        self._sock, self._reads, self._good_reads = sock, 0, good_reads

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def recv(self, n):
        self._reads += 1
        if self._reads > self._good_reads:
            raise ConnectionResetError(errno.ECONNRESET, "Connection reset by peer")
        return self._sock.recv(n)


def _grab_as_deadline_passes(monkeypatch, spec, reply: bytes):
    """One grab of a peer that has already written ``reply`` and stopped sending,
    under a ``grab.time.monotonic`` that only ``recv`` advances."""
    clock = [0.0]
    monkeypatch.setattr("resiscan.grab.time", types.SimpleNamespace(monotonic=lambda: clock[0]))
    peers = []
    scripted = _scripted_connector(reply, peers)

    def connector(address, port, timeout, udp=False):
        return _ClockJumpingSocket(scripted(address, port, timeout, udp), clock)

    try:
        return grab(V6, spec, connector=connector, timeout=5.0)
    finally:
        for peer in peers:
            peer.close()


def _framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


LOCKDOWN_BODY = plistlib.dumps({"Key": "ProductVersion", "Value": "18.2"})
NTP_REPLY = b"\x24" + bytes(47)


class TestCatalog:
    def test_exactly_25_services(self):
        specs = default_services()
        assert len(specs) == 25
        assert len({(s.name, s.port) for s in specs}) == 25
        assert len({s.name for s in specs}) == 25

    def test_expected_port_set(self):
        ports = sorted(s.port for s in default_services())
        assert ports == [
            21, 22, 23, 25, 80, 110, 123, 143, 443, 445, 631, 1433, 1883,
            3306, 5000, 7547, 8000, 8008, 8060, 8080, 8081, 8443, 8883,
            27017, 62078,
        ]

    def test_transport_and_kind_assignments(self):
        by_name = {s.name: s for s in default_services()}
        assert by_name["ntp"].transport == "udp"
        assert sum(1 for s in by_name.values() if s.transport == "udp") == 1
        assert by_name["https"].probe_kind == "tls_then_http"
        assert by_name["https-8443"].probe_kind == "tls_then_http"
        assert by_name["mqtt"].probe_kind == "mqtt_connect"
        assert by_name["mqtts"].probe_kind == "mqtt_connect"
        assert by_name["lockdown"].probe_kind == "lockdown_query"
        assert by_name["cwmp"].probe_kind == "http_get"
        assert by_name["telnet"].probe_kind == "banner_read"

    def test_every_probe_kind_is_run_by_some_service(self):
        assert {s.probe_kind for s in default_services()} == set(_PROBES)


class TestBannerGrabs:
    def test_telnet_negotiation_captured(self, env):
        rec = do_grab(env, V6, spec_by_name("telnet"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.banner.startswith(TELNET_NEGOTIATION)
        assert rec.banner.endswith(b"router login: ")

    def test_ssh_version_banner(self, env):
        rec = do_grab(env, V6, spec_by_name("ssh"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.banner == b"SSH-2.0-dropbear_2022.83\r\n"

    def test_closed_port_refused(self, env):
        # imap is never registered anywhere in this module's scenario
        rec = do_grab(env, V6, spec_by_name("imap"))
        assert rec.outcome == OUTCOME_REFUSED

    def test_silent_service_times_out(self, env):
        rec = grab(
            "2001:db8:5:100::2",
            spec_by_name("telnet"),
            connector=env.connector(),
            timeout=0.3,
        )
        assert rec.outcome == OUTCOME_TIMEOUT
        assert rec.banner == b""

    def test_denied_host_refused(self, env):
        rec = do_grab(env, "2001:db8:5:200::1", spec_by_name("telnet"))
        assert rec.outcome == OUTCOME_REFUSED

    def test_unknown_address_refused(self, env):
        rec = do_grab(env, "2001:db8:ffff::1", spec_by_name("telnet"))
        assert rec.outcome == OUTCOME_REFUSED

    def test_banner_capped(self, env):
        env.add_endpoint(V6, 3306, "banner", {"data_hex": "42" * (BANNER_CAP * 3)})
        rec = do_grab(env, V6, spec_by_name("mysql"), timeout=3.0)
        assert rec.outcome == OUTCOME_RESPONDED
        assert len(rec.banner) == BANNER_CAP

    def test_immediate_close_is_error(self, env):
        env.add_endpoint(V6, 21, "banner", {"data_hex": ""})
        rec = do_grab(env, V6, spec_by_name("ftp"), timeout=0.5)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "connection_closed"


MYSQL_PAYLOAD = b"\x0a8.0.36\x00" + struct.pack("<I", 8) + b"salt-one\x00" + bytes(16)
MYSQL_GREETING = len(MYSQL_PAYLOAD).to_bytes(3, "little") + b"\x00" + MYSQL_PAYLOAD
GREETINGS = {
    "ssh": b"SSH-2.0-OpenSSH_9.6\r\n",
    "ftp": b"220-Welcome\r\n220 ready\r\n",
    "smtp": b"220 mail.example ESMTP\r\n",
    "pop3": b"+OK POP3 ready\r\n",
    "imap": b"* OK [CAPABILITY IMAP4rev2] ready\r\n",
    "mysql": MYSQL_GREETING,
}


def _holds_greeting(service: str, data: bytes) -> bool:
    """Whether ``data`` holds ``service``'s whole greeting, read from the whole
    buffer at once: the plain reference for the incremental checks."""
    if service == "mysql":
        return len(data) >= 4 and len(data) - 4 >= int.from_bytes(data[:3], "little")
    lines = [line + b"\n" for line in data.split(b"\n")[:-1]]
    if service == "ssh":
        return any(line.startswith(b"SSH-") for line in lines)
    if service in ("ftp", "smtp"):
        return any(
            line[:3].isdigit() and (line[3:4] == b" " or line[3:] in (b"\n", b"\r\n"))
            for line in lines
        )
    return bool(lines)


class _CountingBuffer(bytearray):
    """A read buffer that counts the bytes its ``find`` and ``rfind`` pass over."""

    scanned = 0

    def find(self, sub, start=0):
        i = super().find(sub, start)
        self.scanned += (len(self) if i < 0 else i + 1) - start
        return i

    def rfind(self, sub, start, end):
        i = super().rfind(sub, start, end)
        self.scanned += end - max(i, start)
        return i


# Streams built from the pieces each greeting check turns on, and from any bytes.
_GREETING_STREAMS = st.lists(
    st.one_of(
        st.sampled_from(
            [b"\n", b"\r\n", b" ", b"-", b"220", b"22", b"0", b"SSH-", b"SSH", b"+OK", b"\x00", b"\x03"]
        ),
        st.binary(max_size=3),
    ),
    max_size=24,
).map(b"".join)


class TestReadDeadlines:
    """A read ends when the peer goes quiet after its first byte, or at ``timeout`` in all."""

    def test_quiet_peer_ends_read(self):
        banner = b"SSH-2.0-OpenSSH_9.6\r\n"
        rec, took = _paced_grab(spec_by_name("ssh"), [(0, banner)], timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, banner)
        assert took < 1.0

    def test_chunks_within_idle_deadline_kept(self):
        script = [(0, b"220-first\r\n"), (0.05, b"220 second\r\n")]
        rec, _took = _paced_grab(spec_by_name("ftp"), script, timeout=5.0)
        assert rec.banner == b"220-first\r\n220 second\r\n"

    def test_stream_broken_after_first_bytes_keeps_them(self):
        # No greeting end arrives, so the read asks again and meets a reset.
        peers = []
        scripted = _scripted_connector(b"SSH-2.0-cut", peers)

        def connector(address, port, timeout, udp=False):
            return _ResettingSocket(scripted(address, port, timeout, udp))

        try:
            rec = grab(V6, spec_by_name("ssh"), connector=connector, timeout=5.0)
        finally:
            for peer in peers:
                peer.close()
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, b"SSH-2.0-cut")

    def test_pause_past_idle_deadline_cuts_banner(self):
        # The documented live trade-off: a banner that pauses this long is cut.
        script = [(0, b"first"), (IDLE_READ_S + 0.2, b"second")]
        rec, _took = _paced_grab(spec_by_name("ftp"), script, timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, b"first")

    @pytest.mark.parametrize("interval", [0.3, 0.05])
    def test_trickling_banner_ends_at_timeout(self, interval):
        # Each byte comes within ``timeout`` of the one before, so a timeout per
        # recv never fires; at 0.05 s apart they beat ``IDLE_READ_S`` as well.
        script = [(interval, b"x")] * 40
        rec, took = _paced_grab(spec_by_name("ssh"), script, timeout=0.5, cap=1000)
        assert rec.outcome == OUTCOME_RESPONDED
        assert 0 < len(rec.banner) < 40 and set(rec.banner) == {ord("x")}
        assert took < 0.5 + 0.3

    def test_trickling_framed_reply_times_out(self):
        script = [(0, struct.pack(">I", 40))] + [(0.05, b"x")] * 40
        rec, took = _paced_grab(spec_by_name("lockdown"), script, timeout=0.5)
        assert rec.outcome == OUTCOME_TIMEOUT
        assert took < 0.5 + 0.3

    def test_framed_reply_shares_one_budget(self):
        # Length and body each come within ``timeout`` of the read before, but
        # the whole reply does not come within ``timeout``.
        body = b"<plist/>"
        script = [(0.3, struct.pack(">I", len(body))), (0.3, body)]
        rec, took = _paced_grab(spec_by_name("lockdown"), script, timeout=0.5)
        assert rec.outcome == OUTCOME_TIMEOUT
        assert took < 0.5 + 0.2

    def test_reply_complete_at_the_deadline_counts(self, monkeypatch):
        rec = _grab_as_deadline_passes(monkeypatch, spec_by_name("mqtt"), b"\x20\x02\x00\x00")
        assert (rec.outcome, rec.mqtt_return_code) == (OUTCOME_RESPONDED, 0)

    def test_budget_spent_after_first_bytes_keeps_them(self, monkeypatch):
        # The budget runs out between two reads: the read ends with what came,
        # and the peer's close is never read.
        reply = b"HTTP/1.1 200 OK\r\nServer: late\r\n\r\n<p>"
        rec = _grab_as_deadline_passes(monkeypatch, spec_by_name("http"), reply)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, reply)
        assert rec.http_server_header == "late"

    def test_header_complete_at_the_deadline_times_out(self, monkeypatch):
        # The body is still missing when the budget is spent: no recv, so the
        # peer's close is not read as connection_closed.
        rec = _grab_as_deadline_passes(monkeypatch, spec_by_name("lockdown"), struct.pack(">I", 8))
        assert (rec.outcome, rec.detail) == (OUTCOME_TIMEOUT, "")

    def test_trickling_http_reply_ends_at_timeout(self):
        script = [(0.05, b"x")] * 40
        rec, took = _paced_grab(spec_by_name("http"), script, timeout=0.5)
        assert (rec.outcome, rec.detail) == (OUTCOME_ERROR, "http_malformed")
        assert 0 < len(rec.banner) < 40
        assert took < 0.5 + 0.3

    def test_http_pause_past_idle_deadline_keeps_body(self):
        # Only banner reads end on a quiet peer: a server that pauses between
        # its headers and its body still gives the whole response.
        head = b"HTTP/1.1 200 OK\r\nServer: slow\r\n"
        body = b"\r\n<h1>built late</h1>"
        script = [(0, head), (IDLE_READ_S + 0.2, body)]
        rec, _took = _paced_grab(spec_by_name("http"), script, close=True, timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, head + body)
        assert rec.http_server_header == "slow"

    def test_peer_waiting_for_client_gives_same_bytes(self):
        # A telnetd that sends its option negotiation and then waits for the
        # client's answers: the idle cut returns what reading to the timeout would.
        script = [(0, TELNET_NEGOTIATION)]
        quick, took = _paced_grab(spec_by_name("telnet"), script, timeout=1.0)
        # An HTTP read has no idle cut: it reads to the timeout.
        slow, _ = _paced_grab(spec_by_name("http"), script, timeout=1.0)
        assert quick.banner == slow.banner == TELNET_NEGOTIATION
        assert took < 1.0

    @pytest.mark.parametrize(
        "service, banner",
        [
            ("ssh", b"SSH-2.0-dropbear_2022.83\r\n"),
            ("telnet", TELNET_NEGOTIATION + b"router login: "),
        ],
    )
    def test_sim_server_speaks_first_grab_is_quick(self, env, service, banner):
        # The behaviour holds the connection for 1.0 s, and a telnet read waits
        # IDLE_READ_S after the banner, both in the connection's virtual time:
        # the grab waits out neither in wall time.
        spec = spec_by_name(service)
        before = len(env.transcripts_for(V6, spec.port))
        t0 = time.monotonic()
        rec = do_grab(env, V6, spec, timeout=5.0)
        assert time.monotonic() - t0 < IDLE_READ_S
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, banner)
        transcripts = env.transcripts_for(V6, spec.port)
        assert len(transcripts) == before + 1
        assert transcripts[-1].data == b""

    @pytest.mark.parametrize("service", sorted(GREETINGS))
    def test_greeting_ends_the_read(self, service):
        # The peer holds the connection open: the read ends at the greeting's
        # end, not IDLE_READ_S after its last byte.
        rec, took = _paced_grab(spec_by_name(service), [(0, GREETINGS[service])], timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, GREETINGS[service])
        assert took < 0.15

    def test_ssh_lines_before_the_version_kept(self):
        script = [(0, b"hello\r\n"), (0.05, b"SSH-2.0-x\r\n")]
        rec, took = _paced_grab(spec_by_name("ssh"), script, timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, b"hello\r\nSSH-2.0-x\r\n")
        assert took < 0.05 + 0.15

    def test_mysql_packet_in_two_writes(self):
        script = [(0, MYSQL_GREETING[:9]), (0.05, MYSQL_GREETING[9:])]
        rec, took = _paced_grab(spec_by_name("mysql"), script, timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_RESPONDED, MYSQL_GREETING)
        assert took < 0.05 + 0.15

    @given(st.sampled_from(sorted(_GREETING_ENDS)), _GREETING_STREAMS, st.lists(st.integers(1, 24)))
    @example("ssh", b"SSH-2.0-x\r\n", [3, 5])
    @example("ftp", b"220-a\r\n220 b\r\n", [2, 9, 1])
    def test_greeting_check_agrees_with_whole_buffer(self, service, stream, sizes):
        # The stream arrives in chunks of these sizes, then the rest in one.
        complete, buf, sizes = _GREETING_ENDS[service], bytearray(), iter(sizes)
        while len(buf) < len(stream):
            seen = len(buf)
            buf += stream[seen : seen + next(sizes, len(stream))]
            found = complete(buf, seen)
            assert found == _holds_greeting(service, bytes(buf))
            if found:
                break

    @pytest.mark.parametrize(
        "service, line",
        [
            pytest.param(service, line, id=f"{service}-{name}")
            for service in sorted(_GREETING_ENDS)
            for name, line in (("short-lines", b"x" * 99 + b"\n"), ("one-line", b"x" * BANNER_CAP))
            if not _holds_greeting(service, line)
        ],
    )
    def test_trickled_bytes_checked_a_bounded_number_of_times(self, service, line):
        # One byte per recv up to the cap, with no greeting in it: each byte is
        # passed over at most twice in all, not once per check.
        data = (line * (BANNER_CAP // len(line) + 1))[:BANNER_CAP]
        complete, buf = _GREETING_ENDS[service], _CountingBuffer()
        for i in range(BANNER_CAP):
            buf += data[i : i + 1]
            assert not complete(buf, i)
        assert buf.scanned <= 2 * BANNER_CAP


class TestHttpGrabs:
    def test_plain_http(self, env):
        rec = do_grab(env, V6, spec_by_name("http"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.http_server_header == "BusyBox httpd"
        assert b"<h1>cpe</h1>" in rec.banner
        assert rec.tls_subject_cn is None

    def test_sends_exactly_one_request(self, env):
        before = len(env.transcripts_for(V6, 80))
        do_grab(env, V6, spec_by_name("http"))
        transcripts = env.transcripts_for(V6, 80)
        assert len(transcripts) == before + 1
        data = transcripts[-1].data
        assert data.count(b"GET / HTTP/1.1") == 1
        assert b"Connection: close" in data
        assert f"Host: [{V6}]".encode() in data
        assert b"User-Agent: resiscan/0.1\r\n" in data

    def test_label_is_the_user_agent(self, env):
        label = "resiscan/0.1 (+https://scan.example/opt-out)"
        do_grab(env, V6, spec_by_name("http"), label=label)
        assert f"\r\nUser-Agent: {label}\r\n".encode() in env.transcripts_for(V6, 80)[-1].data

    def test_tls_endpoint(self, env):
        rec = do_grab(env, V6, spec_by_name("https"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.tls_subject_cn == "gw.example"
        assert rec.http_server_header == "tls-ui"

    def test_tls_transcript_contains_plaintext_request_only(self, env):
        before = len(env.transcripts_for(V6, 443))
        do_grab(env, V6, spec_by_name("https"))
        t = env.transcripts_for(V6, 443)[-1]
        assert len(env.transcripts_for(V6, 443)) == before + 1
        # Handshake bytes bypass the recorder; only the decrypted GET shows.
        assert t.data.count(b"GET / HTTP/1.1") == 1
        assert b"\x16\x03" not in t.data[:16]

    def test_tls_on_plain_port_fallback(self, env):
        env.add_endpoint(V6, 8080, "tls_http", {"common_name": "hidden.example", "server": "s"})
        rec = do_grab(env, V6, spec_by_name("http-8080"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.detail == "tls_on_plain_port"
        assert rec.tls_subject_cn == "hidden.example"

    def test_http_malformed_reply_recorded(self, env):
        env.add_endpoint(V6, 8000, "banner", {"data_hex": b"NOT HTTP".hex()})
        rec = do_grab(env, V6, spec_by_name("http-8000"), timeout=0.5)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "http_malformed"
        assert rec.banner == b"NOT HTTP"  # raw bytes kept for later inspection
        assert rec.http_server_header is None

    def test_ipp_is_grabbed_over_http(self, env):
        # IPP rides on HTTP (RFC 8010), so its server waits for a request.
        env.add_endpoint(V6, 631, "http", {"server": "CUPS/2.4"})
        rec = do_grab(env, V6, spec_by_name("ipp"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.http_server_header == "CUPS/2.4"

    def test_parse_http_response(self):
        status, headers, body = parse_http_response(
            b"HTTP/1.1 200 OK\r\nServer: X\r\nContent-Length: 2\r\n\r\nhi"
        )
        assert (status, headers["server"], body) == (200, "X", b"hi")
        assert parse_http_response(b"junk")[0] is None
        assert parse_http_response(b"")[0] is None
        # A whole head whose status line is not HTTP's, or whose status is no number.
        assert parse_http_response(b"RTSP/1.0 200 OK\r\nServer: X\r\n\r\nhi") == (None, {}, b"")
        assert parse_http_response(b"HTTP/1.1 OK\r\nServer: X\r\n\r\nhi") == (None, {}, b"")


class TestMqtt:
    def test_accepting_broker(self, env):
        rec = do_grab(env, V6, spec_by_name("mqtt"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.mqtt_return_code == 0

    def test_not_authorized_broker(self, env):
        rec = do_grab(env, V6, spec_by_name("mqtts"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.mqtt_return_code == 5

    def test_immediate_close(self, env):
        env.add_endpoint(V6, 27017, "mqtt_broker", {"close_immediately": True})
        spec = ServiceSpec("mqtt-alt", 27017, "tcp", "mqtt_connect")
        rec = do_grab(env, V6, spec)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "connection_closed"

    def test_non_connack_reply(self, env):
        env.add_endpoint(V6, 5000, "banner", {"data_hex": "deadbeef"})
        spec = ServiceSpec("mqtt-odd", 5000, "tcp", "mqtt_connect")
        rec = do_grab(env, V6, spec)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "not_connack"

    def test_connect_packet_is_single_and_wellformed(self, env):
        before = len(env.transcripts_for(V6, 1883))
        do_grab(env, V6, spec_by_name("mqtt"))
        t = env.transcripts_for(V6, 1883)[-1]
        assert len(env.transcripts_for(V6, 1883)) == before + 1
        assert t.data[0] == 0x10  # CONNECT
        assert b"\x00\x04MQTT\x04\x02" in t.data
        assert t.data.endswith(b"rs-probe")


class TestLockdown:
    def test_product_version_extracted(self, env):
        rec = do_grab(env, V6, spec_by_name("lockdown"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.lockdown_product_version == "18.2"

    def test_exactly_one_query(self, env):
        before = len(env.transcripts_for(V6, 62078))
        do_grab(env, V6, spec_by_name("lockdown"))
        t = env.transcripts_for(V6, 62078)[-1]
        assert len(env.transcripts_for(V6, 62078)) == before + 1
        assert t.data.count(b"<plist") == 1
        assert b"ProductVersion" in t.data
        assert b"GetValue" in t.data
        # 4-byte big-endian length prefix frames the query.
        (length,) = struct.unpack(">I", t.data[:4])
        assert length == len(t.data) - 4

    def test_hostile_length_rejected(self, env):
        env.add_endpoint(V6, 631, "lockdown", {"mode": "hostile_length"})
        spec = ServiceSpec("lockdown-hostile", 631, "tcp", "lockdown_query")
        rec = do_grab(env, V6, spec)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "bounds"
        assert rec.lockdown_product_version is None

    def test_missing_value_still_responds(self, env):
        env.add_endpoint(V6, 8060, "lockdown", {"mode": "no_value"})
        spec = ServiceSpec("lockdown-coy", 8060, "tcp", "lockdown_query")
        rec = do_grab(env, V6, spec)
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.lockdown_product_version is None


class TestBehaviorBytes:
    """Exact replies of the behaviors that read framed requests or serve a fixed page."""

    LOCKDOWN_QUERY = plistlib.dumps(
        {"Key": "ProductVersion", "Request": "GetValue"}, fmt=plistlib.FMT_XML
    )
    MQTT_CONNECT = b"\x10\x14\x00\x04MQTT\x04\x02\x00\x3c\x00\x08rs-probe"
    # Remaining length 130 takes two bytes: 0x82 (2, more follows), then 0x01 (1 * 128).
    MQTT_CONNECT_LONG = b"\x10\x82\x01\x00\x04MQTT\x04\x02\x00\x3c\x00\x76" + b"c" * 118

    @pytest.mark.parametrize(
        "behavior, params, request_bytes, reply",
        [
            (
                "dahua_http",
                {},
                b"GET / HTTP/1.1\r\n\r\n",
                b"HTTP/1.1 200 OK\r\nServer: webserver\r\nContent-Type: text/html\r\n"
                b"Content-Length: 47\r\nConnection: close\r\n\r\n"
                b'<script>var appname="cameraNewConfig";</script>',
            ),
            (
                "nanoleaf_http",
                {"server": "ignored", "status": 500},
                b"GET / HTTP/1.1\r\n\r\n",
                b"HTTP/1.1 200 OK\r\nServer: nanoleaf/1.0\r\nContent-Type: text/html\r\n"
                b"Content-Length: 55\r\nConnection: close\r\n\r\n"
                b'<html><a href="/upgrade">Upload New Firmware</a></html>',
            ),
            ("mqtt_broker", {"return_code": 5}, MQTT_CONNECT, b"\x20\x02\x00\x05"),
            ("mqtt_broker", {}, MQTT_CONNECT[:8], b""),  # body shorter than its length
            (
                "lockdown",
                {"product_version": "17.1"},
                struct.pack(">I", len(LOCKDOWN_QUERY)) + LOCKDOWN_QUERY,
                b"\x00\x00\x01E" + plistlib.dumps(
                    {"Key": "ProductVersion", "Request": "GetValue", "Value": "17.1"},
                    fmt=plistlib.FMT_XML,
                ),
            ),
            ("lockdown", {}, b"\x00\x00", b""),  # length prefix cut short
            ("lockdown", {}, b"\x00\x00\x00\x09<?x", b""),  # body cut short
            ("lockdown", {}, b"\x00\x00\x00\x03abc", b""),  # whole body, not a plist
            ("lockdown", {}, _framed(plistlib.dumps(["x"])), b""),  # a plist, not a dict
            ("mqtt_broker", {}, MQTT_CONNECT_LONG, b"\x20\x02\x00\x00"),
            ("mqtt_broker", {}, b"\x30\x00", b""),  # a PUBLISH first, not a CONNECT
            ("mqtt_broker", {}, b"\x10\x82", b""),  # remaining length cut short
            ("lockdown", {}, b"\x7f\xff\xff\xff", b""),  # a length over 1 MiB
            ("ntp", {}, b"\x23" + bytes(10), b""),  # a client query shorter than 48 bytes
            ("tls_http", {}, b"", b""),  # EOF before any byte
            # EOF before the request head ends: the page is served all the same
            (
                "http", {}, b"GET / HTTP/1.1\r\n",
                b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 0\r\n"
                b"Connection: close\r\n\r\n",
            ),
        ],
        ids=[
            "dahua", "nanoleaf", "mqtt", "mqtt-short", "lockdown", "lockdown-short",
            "lockdown-body", "lockdown-not-plist", "lockdown-not-dict", "mqtt-two-byte-length",
            "mqtt-not-connect", "mqtt-length-short", "lockdown-too-long", "ntp-short", "tls-eof",
            "http-cut-short",
        ],
    )
    def test_reply_and_transcript(self, behavior, params, request_bytes, reply):
        backend, received = self._exchange(behavior, params, request_bytes)
        assert received == reply
        (transcript,) = backend.transcripts_for(V6, 9000)
        assert transcript.data == request_bytes

    def test_tls_http_hangs_up_on_a_failed_handshake(self):
        # A TLS record that holds no ClientHello fails the handshake: the
        # endpoint closes without serving its page. The alert it may send
        # first depends on the OpenSSL version.
        _backend, received = self._exchange("tls_http", {}, b"\x16\x03\x01\x00\x05hello")
        assert b"HTTP/" not in received

    @staticmethod
    def _exchange(behavior, params, request_bytes):
        """A simulated endpoint's backend, and all it sent back to ``request_bytes``."""
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, 9000, behavior, params)
        sock = backend.connect(V6, 9000, timeout=5.0)
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(4096):
            received += chunk
        sock.close()
        return backend, received


class TestVirtualClock:
    """A simulated connection's waits run on its own clock, not in wall time."""

    @staticmethod
    def backend(port, behavior, params=None):
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, port, behavior, params)
        return backend

    def test_silent_peer_times_out_in_no_wall_time(self):
        backend = self.backend(21, "silent", {"hold_s": 60.0})
        t0 = time.monotonic()
        rec = do_grab(backend, V6, spec_by_name("ftp"), timeout=30.0)
        assert time.monotonic() - t0 < 1.0
        assert (rec.outcome, rec.banner) == (OUTCOME_TIMEOUT, b"")

    def test_peer_that_holds_shorter_closes_first(self):
        # The peer's hold runs out before the client's timeout: it hangs up.
        backend = self.backend(21, "silent", {"hold_s": 10.0})
        rec = do_grab(backend, V6, spec_by_name("ftp"), timeout=30.0)
        assert (rec.outcome, rec.detail) == (OUTCOME_ERROR, "connection_closed")

    def test_tied_deadlines_expire_the_peer_first(self):
        # A web server waits for a request and a banner read waits for a banner,
        # both for the same time: the server gives up first and hangs up, every run.
        timeout = sim_services._SERVE_TIMEOUT_S
        backend = self.backend(21, "http", {"server": "x"})
        outcomes = {
            (rec.outcome, rec.detail)
            for rec in (do_grab(backend, V6, spec_by_name("ftp"), timeout=timeout) for _ in range(20))
        }
        assert outcomes == {(OUTCOME_ERROR, "connection_closed")}

    def test_datagram_peer_that_closes_gives_a_timeout(self):
        # As on a datagram socket, a peer that hangs up sends no EOF.
        backend = self.backend(123, "ntp")
        t0 = time.monotonic()
        with backend.connect(V6, 123, timeout=30.0, udp=True) as sock:
            sock.sendall(b"\x23" + bytes(10))  # too short: the peer closes without a reply
            with pytest.raises(TimeoutError):
                sock.recv(512)
        assert time.monotonic() - t0 < 1.0
        assert backend.transcripts_for(V6, 123)[0].data == b"\x23" + bytes(10)

    def test_bytes_sent_after_the_peer_returns_are_recorded(self):
        # The banner peer returns at once; the request that follows is still in the transcript.
        backend = self.backend(8000, "banner", {"data_hex": b"NOT HTTP".hex()})
        rec = do_grab(backend, V6, spec_by_name("http-8000"), timeout=5.0)
        assert (rec.outcome, rec.banner) == (OUTCOME_ERROR, b"NOT HTTP")
        assert backend.transcripts_for(V6, 8000)[0].data.startswith(b"GET / HTTP/1.1\r\n")


class TestTlsCertificates:
    def test_no_key_material_left_on_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # An empty certificate cache, so this grab makes a fresh certificate.
        sim_services._server_context.cache_clear()
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, 443, "tls_http", {"common_name": "no-leftovers.example"})
        rec = do_grab(backend, V6, spec_by_name("https"))
        assert rec.tls_subject_cn == "no-leftovers.example"
        assert list(tmp_path.iterdir()) == []

    def test_one_context_build_per_name(self, monkeypatch):
        builds = []
        build = sim_services._server_context.__wrapped__

        @functools.cache
        def slow_build(common_name):
            builds.append(common_name)
            time.sleep(0.2)  # wide enough for every grab to reach the cache first
            return build(common_name)

        monkeypatch.setattr(sim_services, "_server_context", slow_build)
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        addresses = [f"2001:db8:5:100::{i + 1:x}" for i in range(8)]
        for address in addresses:
            backend.add_endpoint(address, 443, "tls_http", {"common_name": "once.example"})
        records = run_grab_campaign(
            addresses, [spec_by_name("https")], connector=backend.connector(), parallelism=8,
            timeout=5.0,
        )
        assert [r.tls_subject_cn for r in records] == ["once.example"] * 8
        assert builds == ["once.example"]

    def test_failing_behavior_closes_quietly(self, no_threads):
        # A lone surrogate cannot be encoded into the certificate, so the
        # behavior raises UnicodeEncodeError: that only closes its connection.
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, 443, "tls_http", {"common_name": "\ud800"})
        rec = do_grab(backend, V6, spec_by_name("https"))
        assert (rec.outcome, rec.detail) == (OUTCOME_ERROR, "tls_handshake")

    def test_unparsable_subject_still_responds(self, monkeypatch):
        # The common name becomes a T61String of Latin-1 bytes, in the issuer and
        # the subject alike: OpenSSL serves it, the cryptography package refuses it.
        real = sim_services._self_signed

        def latin1_t61(common_name):
            cert, key = real(common_name)
            return cert.replace(b"\x0c\x0ccafe.example", b"\x14\x0ccaf\xe9.example"), key

        monkeypatch.setattr(sim_services, "_self_signed", latin1_t61)
        monkeypatch.setattr(
            sim_services, "_server_context", functools.cache(sim_services._server_context.__wrapped__)
        )
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, 443, "tls_http", {"common_name": "cafe.example", "server": "x"})
        rec = do_grab(backend, V6, spec_by_name("https"))
        assert (rec.outcome, rec.tls_subject_cn, rec.http_server_header) == (
            OUTCOME_RESPONDED, None, "x"
        )

    def test_client_against_stock_ssl_server(self):
        # The client's TLS layer over a real socket, against the ssl module's own
        # server socket: the simulator runs that layer on both ends, so check it here.
        ctx = sim_services._server_context("stock.example")
        served = []

        def serve(sock):
            with ctx.wrap_socket(sock, server_side=True) as tls:
                request = b""
                while b"\r\n\r\n" not in request and (chunk := tls.recv(4096)):
                    request += chunk
                served.append(request)
                tls.sendall(b"HTTP/1.1 200 OK\r\nServer: stock-ssl\r\n\r\nok")

        peers = []

        def connector(address, port, timeout, udp=False):
            ours, theirs = socket.socketpair()
            theirs.settimeout(5.0)
            server = threading.Thread(target=serve, args=(theirs,))
            server.start()
            peers.append(server)
            return ours

        rec = grab(V6, spec_by_name("https"), connector=connector, timeout=5.0)
        for server in peers:
            server.join(timeout=10)
            assert not server.is_alive()
        assert (rec.outcome, rec.tls_subject_cn, rec.http_server_header) == (
            OUTCOME_RESPONDED, "stock.example", "stock-ssl"
        )
        assert [r.count(b"GET / HTTP/1.1") for r in served] == [1]


SIM_CERT = sim_services._self_signed("walk.example")[0]


def _reference_common_name(der: bytes) -> str | None:
    """The subject's first common name as the ``cryptography`` package reads it."""
    from cryptography import x509
    from cryptography.x509.oid import NameOID

    attrs = x509.load_der_x509_certificate(der).subject.get_attributes_for_oid(NameOID.COMMON_NAME)
    return str(attrs[0].value) if attrs else None


def _subject_cases():
    """(id, subject) pairs; each subject a list of RDNs, each RDN a list of
    (attribute, value, string type) with attribute "CN" or "O"."""
    yield "utf8", [[("CN", "gw.example", "UTF8String")]]
    yield "utf8-non-ascii", [[("CN", "Zürich – 東京 ✓", "UTF8String")]]
    yield "numeric", [[("CN", "0123 456", "NumericString")]]
    yield "printable", [[("CN", "Printable Name 1", "PrintableString")]]
    yield "visible", [[("CN", "visible_name!", "VisibleString")]]
    yield "ia5", [[("CN", "ia5@example", "IA5String")]]
    yield "t61", [[("CN", "café ÿ", "T61String")]]
    yield "bmp", [[("CN", "Ωmega ✓ 東京", "BMPString")]]
    yield "universal", [[("CN", "astral \U0001d518 ✓", "UniversalString")]]
    yield "no-cn", [[("O", "Org Only", "UTF8String")]]
    yield "first-of-two", [[("CN", "first", "UTF8String")], [("CN", "second", "UTF8String")]]
    yield "after-org", [[("O", "Org", "UTF8String")], [("CN", "after", "UTF8String")]]
    yield "multi-valued-rdn", [[("O", "Org", "UTF8String"), ("CN", "inside", "UTF8String")]]


class TestSubjectCommonName:
    """The grab client's DER walk over a certificate the peer sent."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=600),
            st.integers(0, len(SIM_CERT)).map(lambda n: SIM_CERT[:n]),
            st.tuples(st.integers(0, len(SIM_CERT) - 1), st.integers(0, 255)).map(
                lambda t: SIM_CERT[: t[0]] + bytes([t[1]]) + SIM_CERT[t[0] + 1 :]
            ),
        )
    )
    def test_never_raises(self, der):
        assert isinstance(_subject_common_name(der), (str, type(None)))

    @pytest.mark.parametrize("case", list(_subject_cases()), ids=lambda c: c[0])
    def test_agrees_with_cryptography_v3(self, case):
        pytest.importorskip("cryptography")
        import datetime

        from cryptography import x509
        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec
        from cryptography.x509.name import _ASN1Type
        from cryptography.x509.oid import NameOID

        oids = {"CN": NameOID.COMMON_NAME, "O": NameOID.ORGANIZATION_NAME}
        subject = x509.Name(
            [
                x509.RelativeDistinguishedName(
                    [x509.NameAttribute(oids[a], v, _type=_ASN1Type[t]) for a, v, t in rdn]
                )
                for rdn in case[1]
            ]
        )
        key = ec.generate_private_key(ec.SECP256R1())
        der = (
            x509.CertificateBuilder()
            .subject_name(subject)
            .issuer_name(subject)
            .public_key(key.public_key())
            .serial_number(1)
            .not_valid_before(datetime.datetime(2020, 1, 1))
            .not_valid_after(datetime.datetime(2045, 1, 1))
            .sign(key, hashes.SHA256())
            .public_bytes(serialization.Encoding.DER)
        )
        expected = next((v for rdn in case[1] for a, v, _ in rdn if a == "CN"), None)
        assert _reference_common_name(der) == expected
        assert _subject_common_name(der) == expected

    def test_agrees_with_cryptography_v1(self):
        pytest.importorskip("cryptography")
        assert _reference_common_name(SIM_CERT) == "walk.example"
        assert _subject_common_name(SIM_CERT) == "walk.example"

    @pytest.mark.parametrize(
        "element",
        [b"\x0c\x0c" + b"\xc3" * 12, b"\x14\x0cwalk.ex\xe9mple", b"\x16\x0cwalk.ex\xe9mple"],
        ids=["utf8-invalid", "t61-latin1", "ia5-non-ascii"],
    )
    def test_none_where_cryptography_raises(self, element):
        pytest.importorskip("cryptography")
        der = SIM_CERT.replace(b"\x0c\x0cwalk.example", element)
        with pytest.raises(ValueError):
            _reference_common_name(der)
        assert _subject_common_name(der) is None


class TestNtp:
    def test_udp_mode4_reply(self, env):
        rec = do_grab(env, V6, spec_by_name("ntp"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.banner[0] & 0x07 == 4
        assert len(rec.banner) == 48

    def test_live_connect_failure_closes_the_socket(self, monkeypatch):
        # A host with no IPv6 route fails the UDP connect; no DNS or network is used.
        opened = []

        class Unreachable(socket.socket):
            def connect(self, address):
                opened.append(self)
                raise OSError(errno.ENETUNREACH, "Network is unreachable")

        monkeypatch.setattr("resiscan.grab.socket.socket", Unreachable)
        rec = grab(V6, spec_by_name("ntp"), timeout=1.0)
        assert (rec.outcome, rec.detail) == (OUTCOME_ERROR, "OSError")
        assert [sock.fileno() for sock in opened] == [-1]


class TestOutcomePins:
    """Outcome, detail and filled fields for each way a scripted peer can answer."""

    @pytest.mark.parametrize(
        "service, reply, outcome, detail, fields",
        [
            ("telnet", b"", OUTCOME_ERROR, "connection_closed", {}),
            ("http", b"", OUTCOME_ERROR, "connection_closed", {}),
            ("http", b"NOT HTTP", OUTCOME_ERROR, "http_malformed", {"banner": b"NOT HTTP"}),
            ("https", b"NOT TLS", OUTCOME_ERROR, "tls_handshake", {}),
            # a TLS record on a plaintext port: one TLS retry, which fails the same way
            ("http", b"\x16\x03\x01\x00\x00", OUTCOME_ERROR, "tls_handshake", {}),
            ("mqtt", b"\xde\xad\xbe\xef", OUTCOME_ERROR, "not_connack", {}),
            ("mqtt", b"\x20\x02", OUTCOME_ERROR, "connection_closed", {}),
            ("lockdown", b"\x00\x00", OUTCOME_ERROR, "connection_closed", {}),
            ("lockdown", b"\x00\x00\x00\x00", OUTCOME_ERROR, "bounds", {}),
            ("lockdown", b"\x00\x00\x00\x09<?x", OUTCOME_ERROR, "connection_closed", {}),
            ("lockdown", _framed(b"not plist"), OUTCOME_ERROR, "plist_malformed", {}),
            ("ntp", b"\x24" + bytes(10), OUTCOME_ERROR, "protocol", {}),
            ("telnet", b"login: ", OUTCOME_RESPONDED, "", {"banner": b"login: "}),
            (
                "http", b"HTTP/1.1 200 OK\r\nServer: X\r\n\r\nhi", OUTCOME_RESPONDED, "",
                {"banner": b"HTTP/1.1 200 OK\r\nServer: X\r\n\r\nhi", "http_server_header": "X"},
            ),
            (
                "mqtt", b"\x20\x02\x00\x05", OUTCOME_RESPONDED, "",
                {"banner": b"\x20\x02\x00\x05", "mqtt_return_code": 5},
            ),
            (
                "lockdown", _framed(LOCKDOWN_BODY), OUTCOME_RESPONDED, "",
                {"banner": LOCKDOWN_BODY, "lockdown_product_version": "18.2"},
            ),
            (
                "lockdown", _framed(plistlib.dumps(["x"])), OUTCOME_RESPONDED, "",
                {"banner": plistlib.dumps(["x"])},
            ),
            ("ntp", NTP_REPLY, OUTCOME_RESPONDED, "", {"banner": NTP_REPLY}),
        ],
        ids=[
            "banner-empty", "http-empty", "http-malformed", "tls-handshake",
            "http-tls-retry", "not-connack", "mqtt-short", "lockdown-short-head",
            "lockdown-zero-length", "lockdown-short-body", "lockdown-bad-plist", "ntp-short",
            "banner", "http", "mqtt", "lockdown", "lockdown-not-dict", "ntp",
        ],
    )
    def test_scripted_peer(self, service, reply, outcome, detail, fields):
        spec = spec_by_name(service)
        peers = []
        try:
            rec = grab(V6, spec, connector=_scripted_connector(reply, peers), timeout=2.0)
        finally:
            for peer in peers:
                peer.close()
        assert rec == GrabRecord(
            address=V6, service=spec.name, outcome=outcome, detail=detail, **fields
        )

    @pytest.mark.parametrize("service", ["mqtt", "lockdown"])
    def test_reset_after_the_request_is_connection_closed(self, service):
        # A peer that hangs up with the request unread resets the stream (RFC
        # 1122 section 4.2.2.13): it answered nothing, as a clean close does.
        peers = []
        scripted = _scripted_connector(b"", peers)

        def connector(address, port, timeout, udp=False):
            return _ResettingSocket(scripted(address, port, timeout, udp), good_reads=0)

        try:
            rec = grab(V6, spec_by_name(service), connector=connector, timeout=2.0)
        finally:
            for peer in peers:
                peer.close()
        assert (rec.outcome, rec.detail) == (OUTCOME_ERROR, "connection_closed")

    def test_connector_error_names_its_class(self):
        def connector(address, port, timeout, udp=False):
            raise ConnectionResetError("reset by peer")

        rec = grab(V6, spec_by_name("telnet"), connector=connector, timeout=2.0)
        assert rec == GrabRecord(
            address=V6, service="telnet", outcome=OUTCOME_ERROR, detail="ConnectionResetError"
        )


class TestAddressFamilies:
    def test_v6_text_forms_canonicalized(self, env):
        before = len(env.transcripts_for(V6, 22))
        rec = do_grab(env, "2001:0db8:0005:0100::0001", spec_by_name("ssh"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        rec = do_grab(env, V6.upper(), spec_by_name("ssh"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        assert len(env.transcripts_for("2001:0db8:0005:0100::0001", 22)) == before + 2

    def test_unparsable_address_refused(self, env):
        with pytest.raises(ConnectionRefusedError):
            env.connect("2001:db8::zz", 22, timeout=0.5)


class TestCampaign:
    def test_cartesian_and_sorted(self, env):
        specs = [spec_by_name("telnet"), spec_by_name("http"), spec_by_name("smtp")]
        addresses = [V6, "2001:db8:5:100::2", V6]  # duplicate collapses
        records = run_grab_campaign(
            addresses, specs, connector=env.connector(), timeout=0.4, parallelism=8
        )
        assert len(records) == 2 * 3
        assert records == sorted(records, key=lambda r: (r.address, r.service))
        by_key = {(r.address, r.service): r.outcome for r in records}
        assert by_key[(V6, "telnet")] == OUTCOME_RESPONDED
        assert by_key[(V6, "smtp")] == OUTCOME_REFUSED

    def test_empty_inputs(self, env):
        assert run_grab_campaign([], default_services(), connector=env.connector()) == []
        assert run_grab_campaign([V6], [], connector=env.connector()) == []

    def test_campaign_deterministic(self, env):
        specs = [spec_by_name("http"), spec_by_name("mqtt"), spec_by_name("lockdown")]
        a = run_grab_campaign([V6], specs, connector=env.connector(), timeout=1.0)
        b = run_grab_campaign([V6], specs, connector=env.connector(), timeout=1.0)
        assert a == b

    def test_one_bad_endpoint_does_not_sink_campaign(self, env):
        def flaky_connector(address, port, timeout, udp=False):
            if port == 23:
                raise ValueError("driver exploded")
            return env.connect(address, port, timeout, udp=udp)

        records = run_grab_campaign(
            [V6], [spec_by_name("telnet"), spec_by_name("http")],
            connector=flaky_connector, timeout=0.5,
        )
        by_service = {r.service: r for r in records}
        assert by_service["http"].outcome == OUTCOME_RESPONDED
        assert by_service["telnet"].outcome == OUTCOME_ERROR
        assert by_service["telnet"].detail == repr(ValueError("driver exploded"))

    def test_simulated_campaign_starts_no_thread(self, no_threads):
        # The simulator steps each peer in the thread that grabs it, so one
        # worker grabs every behavior with no thread able to start.
        assert {svc.behavior for svc in EVERY_BEHAVIOR} == set(sim_services.BEHAVIORS)
        scenario = every_behavior_scenario()
        expected = expected_grab_outcomes(scenario, default_services())
        records = run_grab_campaign(
            sorted({format_address(address) for address, _service in expected}),
            default_services(), connector=SimServices(scenario).connector(), parallelism=1,
        )
        assert {(parse_address(r.address), r.service): r.outcome for r in records} == expected

    def test_many_workers_give_the_one_worker_bytes(self):
        # Each simulated deadline runs on its connection's clock, so however the
        # host schedules 256 workers, a grab at a 5 ms timeout gives the same row.
        services = [
            SimService(62078, "lockdown", {}), SimService(1883, "mqtt_broker", {}),
            SimService(80, "http", {}),
        ]
        subnets = [
            make_subnet(j, hosts=[make_host(i, services=services) for i in range(1, 11)])
            for j in range(1, 5)
        ]
        backend = SimServices(make_scenario([make_net("2001:db8:5::", subnets)]))
        addresses = [f"2001:db8:5:{j:x}00::{i:x}" for j in range(1, 5) for i in range(1, 11)]

        def grabs_csv(parallelism):
            records = run_grab_campaign(
                addresses, default_services(), connector=backend.connector(),
                parallelism=parallelism, timeout=0.005,
            )
            buf = io.StringIO()
            write_grab_log(records, buf)
            return buf.getvalue()

        one_worker = grabs_csv(1)
        assert one_worker.count(",lockdown,responded,") == 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [grabs_csv(256) for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [one_worker] * 10

    @pytest.mark.parametrize("exc", [RuntimeError("can't start new thread"), MemoryError()])
    def test_own_failure_stops_taking_pairs(self, exc):
        calls = []

        def connector(address, port, timeout, udp=False):
            calls.append((address, port))
            if len(calls) == 1:
                raise exc
            raise ConnectionRefusedError

        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 11)]
        with pytest.raises(type(exc)):
            run_grab_campaign(addresses, default_services()[:3], connector=connector, parallelism=1)
        assert calls == [(addresses[0], 21)]

    @staticmethod
    def _refusing_connector(calls: list, delay_s: float = 0.0):
        """Refuses every connect after ``delay_s``; records each call and the peak in flight."""
        lock = threading.Lock()
        state = {"in_flight": 0, "peak": 0}

        def connector(address, port, timeout, udp=False):
            with lock:
                calls.append((address, port))
                state["in_flight"] += 1
                state["peak"] = max(state["peak"], state["in_flight"])
            try:
                time.sleep(delay_s)
            finally:
                with lock:
                    state["in_flight"] -= 1
            raise ConnectionRefusedError

        return connector, state

    def test_in_flight_bounded_by_parallelism(self):
        calls = []
        connector, state = self._refusing_connector(calls, delay_s=0.05)
        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 21)]
        records = run_grab_campaign(
            addresses, [spec_by_name("ssh")], connector=connector, parallelism=3
        )
        assert len(calls) == len(records) == 20
        assert {r.outcome for r in records} == {OUTCOME_REFUSED}
        assert 1 < state["peak"] <= 3

    def test_zero_parallelism_still_grabs_every_pair(self):
        calls = []
        connector, state = self._refusing_connector(calls)
        specs = [spec_by_name("ssh"), spec_by_name("http")]
        addresses = [V6, "2001:db8:5:100::2"]
        records = run_grab_campaign(addresses, specs, connector=connector, parallelism=0)
        assert sorted(calls) == sorted((a, s.port) for a in addresses for s in specs)
        assert [(r.address, r.service) for r in records] == sorted(
            (a, s.name) for a in addresses for s in specs
        )
        assert state["peak"] == 1

    @pytest.mark.parametrize("started", [0, 2])
    def test_thread_exhaustion_keeps_every_pair(self, started, monkeypatch, caplog):
        # A refusing connector starts no thread, so only the campaign's own
        # worker starts meet the patched limit; no real thread is exhausted.
        connector, _state = self._refusing_connector([])
        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 11)]
        specs = default_services()[:3]
        expected = run_grab_campaign(addresses, specs, connector=connector, parallelism=8)
        real_start = threading.Thread.start
        starts = []

        def limited_start(thread):
            if len(starts) == started:
                raise RuntimeError("can't start new thread")
            starts.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", limited_start)
        with caplog.at_level("WARNING", logger="resiscan.grab"):
            records = run_grab_campaign(addresses, specs, connector=connector, parallelism=8)
        assert records == expected
        assert f"{started + 1} of 8 workers started" in caplog.text  # the caller is one

    def test_no_worker_starts_after_the_pairs_run_out(self, monkeypatch):
        # Each start runs its worker to the end before the next start, so the
        # first worker takes every pair and no other may be started.
        connector, _state = self._refusing_connector([])
        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 5)]
        specs = default_services()[:3]
        expected = run_grab_campaign(addresses, specs, connector=connector, parallelism=256)
        real_start = threading.Thread.start
        starts = []

        def start_and_finish(thread):
            starts.append(thread)
            real_start(thread)
            thread.join()

        monkeypatch.setattr(threading.Thread, "start", start_and_finish)
        records = run_grab_campaign(addresses, specs, connector=connector, parallelism=256)
        assert len(starts) == 1
        assert records == expected
        assert {r.outcome for r in records} == {OUTCOME_REFUSED}

    def test_one_worker_is_the_calling_thread(self, monkeypatch):
        # At parallelism 1 the campaign starts no thread: the caller takes every pair.
        connector, _state = self._refusing_connector([])
        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 5)]
        specs = default_services()[:3]
        expected = run_grab_campaign(addresses, specs, connector=connector, parallelism=8)
        real_start = threading.Thread.start
        starts = []
        monkeypatch.setattr(threading.Thread, "start", lambda t: starts.append(t) or real_start(t))
        records = run_grab_campaign(addresses, specs, connector=connector, parallelism=1)
        assert starts == []
        assert records == expected

    @staticmethod
    def _every_worker_starts(connector, parallelism: int, workers: set):
        """``connector``, but each worker's first connect waits until all
        ``parallelism`` workers hold a pair, so every one of them starts and
        they then race for the rest. Each worker's thread id goes in ``workers``."""
        barrier = threading.Barrier(parallelism)

        def first_waits(address, port, timeout, udp=False):
            if threading.get_ident() not in workers:
                workers.add(threading.get_ident())
                barrier.wait(timeout=30)  # broken: a RuntimeError, which stops the campaign
            return connector(address, port, timeout, udp=udp)

        return first_waits

    @staticmethod
    def _under_contention(campaign):
        """``campaign()`` run in its own thread at a 1 µs switch interval; its result."""
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(campaign()))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(result) == 1
        return result[0]

    @pytest.mark.parametrize("parallelism", [32, 256])
    def test_every_pair_grabbed_once_under_contention(self, parallelism):
        # More workers than cores and a short switch interval, so a pair taken twice
        # or lost between workers, who share the pair iterator with no lock, would show.
        calls = []
        connector, _state = self._refusing_connector(calls)
        workers = set()
        connector = self._every_worker_starts(connector, parallelism, workers)
        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 1001)]
        specs = default_services()[:4]
        result = self._under_contention(
            lambda: run_grab_campaign(
                addresses, specs, connector=connector, parallelism=parallelism
            )
        )
        assert len(workers) == parallelism
        pairs = [(a, s.port) for a in addresses for s in specs]
        assert sorted(calls) == sorted(pairs)
        assert [(r.address, r.service) for r in result] == sorted(
            (a, s.name) for a in addresses for s in specs
        )

    def test_every_connect_leaves_one_transcript_under_contention(self):
        # 256 workers append to one transcript list with no lock: each connect
        # that reaches an endpoint leaves exactly one transcript, with the bytes
        # a 1-worker campaign leaves there.
        services = [
            SimService(21, "banner", {"data_hex": b"220 ready\r\n".hex()}),
            SimService(22, "ssh", {}), SimService(23, "telnet", {}),
            SimService(80, "http", {}), SimService(1883, "mqtt_broker", {}),
            SimService(62078, "lockdown", {}),
        ]
        subnets = [
            make_subnet(j, hosts=[make_host(i, services=services) for i in range(1, 11)])
            for j in range(1, 9)
        ]
        scenario = make_scenario([make_net("2001:db8:5::", subnets)])
        addresses = [f"2001:db8:5:{j:x}00::{i:x}" for j in range(1, 9) for i in range(1, 11)]

        def transcripts(parallelism):
            backend = SimServices(scenario)
            reached = []

            def connector(address, port, timeout, udp=False):
                conn = backend.connect(address, port, timeout, udp=udp)
                reached.append((parse_address(address), port))
                return conn

            workers = set()
            connector = self._every_worker_starts(connector, parallelism, workers)
            self._under_contention(
                lambda: run_grab_campaign(
                    addresses, default_services(), connector=connector, parallelism=parallelism
                )
            )
            assert len(workers) == parallelism
            endpoints = sorted((t.address, t.port) for t in backend.transcripts)
            assert endpoints == sorted(reached)
            by_endpoint = {}
            for t in backend.transcripts:
                by_endpoint.setdefault((t.address, t.port), []).append(t.data)
            return {endpoint: sorted(data) for endpoint, data in by_endpoint.items()}

        one_worker = transcripts(1)
        assert len(one_worker) == len(addresses) * len(services)
        assert transcripts(256) == one_worker

    def test_own_failure_under_contention_stops_every_worker(self):
        # Once the 50th connect's failure is recorded, each of the 32 workers
        # finishes at most the one pair it already holds, and the campaign
        # raises. The failure is recorded only after it leaves grab(), so each
        # later connect waits until the failing worker has stopped: a pair taken
        # in between then holds its worker, as one taken before would.
        calls = []
        failing = []
        lock = threading.Lock()

        def connector(address, port, timeout, udp=False):
            with lock:
                calls.append((address, port))
                n = len(calls)
                if n == 50:
                    failing.append(threading.current_thread())
            if n == 50:
                raise RuntimeError("can't start new thread")
            if n > 50:
                failing[0].join(timeout=10)
            raise ConnectionRefusedError

        addresses = [f"2001:db8:9::{i:x}" for i in range(1, 151)]
        raised = []

        def campaign():
            try:
                run_grab_campaign(addresses, default_services()[:4], connector=connector, parallelism=32)
            except RuntimeError as exc:
                raised.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=campaign)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert [str(exc) for exc in raised] == ["can't start new thread"]
        assert 50 <= len(calls) < 50 + 32


class TestGrabLog:
    def test_roundtrip_with_binary_banner(self):
        records = [
            GrabRecord(
                address=V6, service="telnet", outcome=OUTCOME_RESPONDED,
                detail="", banner=bytes(range(256)),
            ),
            GrabRecord(
                address=V6, service="https", outcome=OUTCOME_RESPONDED,
                detail="tls_on_plain_port", http_server_header="X, with comma",
                tls_subject_cn="cn.example", banner=b"",
            ),
            GrabRecord(
                address=V6, service="mqtt", outcome=OUTCOME_RESPONDED,
                mqtt_return_code=5, banner=b"\x20\x02\x00\x05",
            ),
            GrabRecord(
                address=V6, service="lockdown", outcome=OUTCOME_RESPONDED,
                lockdown_product_version="18.2", banner=b"<plist/>",
            ),
            GrabRecord(address=V6, service="ftp", outcome=OUTCOME_REFUSED),
        ]
        buf = io.StringIO()
        write_grab_log(records, buf)
        buf.seek(0)
        assert read_grab_log(buf) == records

    def test_header_line_present(self):
        buf = io.StringIO()
        write_grab_log([], buf)
        assert buf.getvalue().startswith("address,service,outcome,")

    def test_corrupt_banner_column_rejected(self):
        # A lenient decoder drops the "*" and reads this back as b"SSH-2.".
        text = ",".join(_LOG_FIELDS) + "\n" + f"{V6},ssh,responded,,,,,,U1NI*LTIu\n"
        with pytest.raises(ValueError, match="grab log line 2"):
            read_grab_log(io.StringIO(text))

    @settings(max_examples=300, deadline=None)
    @given(
        detail=st.text(),
        texts=st.lists(st.one_of(st.none(), st.text(min_size=1)), min_size=3, max_size=3),
        mqtt=st.one_of(st.none(), st.integers(min_value=0, max_value=255)),
        banner=st.binary(max_size=64),
    )
    def test_roundtrip_any_text(self, detail, texts, mqtt, banner):
        # Text from the network may hold separators, quotes, "\r" and "\n".
        record = GrabRecord(
            address=V6, service="http", outcome=OUTCOME_RESPONDED, detail=detail,
            banner=banner, http_server_header=texts[0], tls_subject_cn=texts[1],
            mqtt_return_code=mqtt, lockdown_product_version=texts[2],
        )
        buf = io.StringIO()
        write_grab_log([record], buf)
        buf.seek(0)
        assert read_grab_log(buf) == [record]


def _reply_bytes():
    """Arbitrary bytes, often behind a prefix that gets a reader past its first check."""
    def lockdown(value: str) -> bytes:
        body = plistlib.dumps({"Key": "ProductVersion", "Value": value})
        return struct.pack(">I", len(body)) + body

    prefixes = st.sampled_from(
        [b"", b"HTTP/1.1 200 OK\r\nServer: ", b"HTTP/1.0 200 OK\r\n\r\n", b"\x16\x03\x01",
         b"\x20\x02\x00", b"\x00\x00\x01\x00<?xml"]
    )
    return st.one_of(
        st.binary(max_size=2048),
        st.tuples(prefixes, st.binary(max_size=1024)).map(b"".join),
        st.binary(min_size=47, max_size=100).map(lambda b: b"\x24" + b),  # an NTP v4 server reply
        st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=300).map(lockdown),
    )


class TestHostileBytes:
    KINDS = {s.probe_kind: s for s in default_services()}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=60, deadline=None)
    @given(reply=_reply_bytes(), cap=st.integers(min_value=1, max_value=512))
    def test_grab_never_raises(self, kind, reply, cap):
        peers = []
        try:
            rec = grab(
                V6, self.KINDS[kind], connector=_scripted_connector(reply, peers),
                timeout=2.0, cap=cap,
            )
        finally:
            for peer in peers:
                peer.close()
        assert rec.outcome in (OUTCOME_RESPONDED, OUTCOME_REFUSED, OUTCOME_TIMEOUT, OUTCOME_ERROR)
        assert len(rec.banner) <= cap
