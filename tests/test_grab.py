import io
import plistlib
import socket
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIREWALL_DENY,
    SimService,
    make_host,
    make_net,
    make_scenario,
    make_subnet,
)
from resiscan.grab import (
    _LOG_FIELDS,
    BANNER_CAP,
    OUTCOME_ERROR,
    OUTCOME_REFUSED,
    OUTCOME_RESPONDED,
    OUTCOME_TIMEOUT,
    GrabRecord,
    grab,
    parse_http_response,
    read_grab_log,
    run_grab_campaign,
    write_grab_log,
)
from resiscan.services import ServiceSpec, default_services, load_services
from resiscan.simnet import SimServices
from resiscan.simnet import services as sim_services
from resiscan.simnet.services import TELNET_NEGOTIATION

V6 = "2001:db8:5:100::1"
V4 = "192.0.2.17"


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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ServiceSpec("x", 80, "sctp", "banner_read")
        with pytest.raises(ValueError):
            ServiceSpec("x", 80, "tcp", "quantum")
        with pytest.raises(ValueError):
            ServiceSpec("x", 0, "tcp", "banner_read")

    def test_catalog_file_loads(self, tmp_path):
        path = tmp_path / "services.csv"
        path.write_text(
            "# name,port,transport,probe_kind\n"
            "ssh,22,tcp,banner_read\n"
            "\n"
            " ntp , 123 , udp , ntp_query \n"
            "lockdown,62078,tcp,lockdown_query\n"
        )
        assert load_services(str(path)) == (
            ServiceSpec("ssh", 22, "tcp", "banner_read"),
            ServiceSpec("ntp", 123, "udp", "ntp_query"),
            ServiceSpec("lockdown", 62078, "tcp", "lockdown_query"),
        )

    def test_catalog_file_rejects_duplicates(self, tmp_path):
        path = tmp_path / "services.csv"
        path.write_text("a,80,tcp,http_get\na,80,tcp,banner_read\n")
        with pytest.raises(ValueError):
            load_services(str(path))

    def test_catalog_file_request_hex(self, tmp_path):
        path = tmp_path / "services.csv"
        path.write_text("probe,9999,tcp,line_protocol,48454c4f0a\n")
        (spec,) = load_services(str(path))
        assert spec.request == b"HELO\n"


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
        env.add_endpoint(V6, 3306, "big_banner", {"size": BANNER_CAP * 3})
        rec = do_grab(env, V6, spec_by_name("mysql"), timeout=3.0)
        assert rec.outcome == OUTCOME_RESPONDED
        assert len(rec.banner) == BANNER_CAP

    def test_immediate_close_is_error(self, env):
        env.add_endpoint(V6, 21, "banner", {"data_hex": ""})
        rec = do_grab(env, V6, spec_by_name("ftp"), timeout=0.5)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "connection_closed"


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
        env.add_endpoint(V6, 8000, "greeting", {"text": "NOT HTTP"})
        rec = do_grab(env, V6, spec_by_name("http-8000"), timeout=0.5)
        assert rec.outcome == OUTCOME_ERROR
        assert rec.detail == "http_malformed"
        assert rec.banner == b"NOT HTTP"  # raw bytes kept for later inspection
        assert rec.http_server_header is None

    def test_parse_http_response(self):
        status, headers, body = parse_http_response(
            b"HTTP/1.1 200 OK\r\nServer: X\r\nContent-Length: 2\r\n\r\nhi"
        )
        assert (status, headers["server"], body) == (200, "X", b"hi")
        assert parse_http_response(b"junk")[0] is None
        assert parse_http_response(b"")[0] is None


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
        ],
        ids=[
            "dahua", "nanoleaf", "mqtt", "mqtt-short", "lockdown", "lockdown-short", "lockdown-body"
        ],
    )
    def test_reply_and_transcript(self, behavior, params, request_bytes, reply):
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, 9000, behavior, params)
        sock = backend.connect(V6, 9000, timeout=5.0)
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(4096):
            received += chunk
        sock.close()
        assert received == reply
        (transcript,) = backend.transcripts_for(V6, 9000)
        assert transcript.data == request_bytes


class TestTlsCertificates:
    def test_no_key_material_left_on_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # An empty certificate cache, so this grab makes a fresh certificate.
        monkeypatch.setattr(sim_services, "_certs", sim_services._CertStore())
        backend = SimServices(make_scenario([make_net("2001:db8:5::", [make_subnet(1)])]))
        backend.add_endpoint(V6, 443, "tls_http", {"common_name": "no-leftovers.example"})
        rec = do_grab(backend, V6, spec_by_name("https"))
        assert rec.tls_subject_cn == "no-leftovers.example"
        assert list(tmp_path.iterdir()) == []


class TestNtp:
    def test_udp_mode4_reply(self, env):
        rec = do_grab(env, V6, spec_by_name("ntp"))
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.banner[0] & 0x07 == 4
        assert len(rec.banner) == 48


class TestAddressFamilies:
    @pytest.mark.parametrize("address", [V4, "198.51.100.9"])
    def test_v4_endpoints_reachable(self, env, address):
        env.add_endpoint(address, 23, "telnet", {"banner": "v4 login: "})
        rec = do_grab(env, address, spec_by_name("telnet"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        assert rec.banner.endswith(b"v4 login: ")

    def test_v4_tls(self, env):
        env.add_endpoint(V4, 443, "tls_http", {"common_name": "v4.example"})
        rec = do_grab(env, V4, spec_by_name("https"))
        assert rec.tls_subject_cn == "v4.example"

    def test_v4_lockdown(self, env):
        env.add_endpoint(V4, 62078, "lockdown", {"product_version": "17.5.1"})
        rec = do_grab(env, V4, spec_by_name("lockdown"))
        assert rec.lockdown_product_version == "17.5.1"

    def test_v6_text_forms_canonicalized(self, env):
        before = len(env.transcripts_for(V6, 22))
        rec = do_grab(env, "2001:0db8:0005:0100::0001", spec_by_name("ssh"), timeout=0.5)
        assert rec.outcome == OUTCOME_RESPONDED
        rec = do_grab(env, f"[{V6}]", spec_by_name("ssh"), timeout=0.5)
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
                raise RuntimeError("driver exploded")
            return env.connect(address, port, timeout, udp=udp)

        records = run_grab_campaign(
            [V6], [spec_by_name("telnet"), spec_by_name("http")],
            connector=flaky_connector, timeout=0.5,
        )
        by_service = {r.service: r for r in records}
        assert by_service["http"].outcome == OUTCOME_RESPONDED
        assert by_service["telnet"].outcome == OUTCOME_ERROR
        assert by_service["telnet"].detail == repr(RuntimeError("driver exploded"))


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

        def connector(address, port, timeout, udp=False):
            # The peer writes the reply and stops sending; a TLS retry gets it again.
            ours, peer = socket.socketpair(type=socket.SOCK_DGRAM if udp else socket.SOCK_STREAM)
            peers.append(peer)
            peer.sendall(reply)
            if not udp:
                peer.shutdown(socket.SHUT_WR)
            return ours

        try:
            rec = grab(V6, self.KINDS[kind], connector=connector, timeout=2.0, cap=cap)
        finally:
            for peer in peers:
                peer.close()
        assert rec.outcome in (OUTCOME_RESPONDED, OUTCOME_REFUSED, OUTCOME_TIMEOUT, OUTCOME_ERROR)
        assert len(rec.banner) <= cap
