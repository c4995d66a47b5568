import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resiscan.addrs import parse_address
from resiscan.fingerprint import (
    DAHUA_MARKER,
    KIND_DAHUA_CAMERA,
    KIND_HP_PRINTER,
    KIND_NANOLEAF,
    KIND_NOKIA_GATEWAY,
    NOKIA_ROOT_CN,
    FingerprintHit,
    HpPrinterRecord,
    collect_hp_printers,
    dedupe_printers,
    extract_eui64,
    fingerprint_records,
    load_oui_db,
    match_fingerprints,
    oui_vendor,
    parse_hp_header,
    read_fingerprints,
    write_fingerprints,
)
from resiscan.grab import (
    OUTCOME_REFUSED,
    OUTCOME_RESPONDED,
    OUTCOME_TIMEOUT,
    GrabRecord,
)
from resiscan.simnet.scenario import eui64_iid


def responded(address="2001:db8::1", service="http", **kw):
    return GrabRecord(address=address, service=service, outcome=OUTCOME_RESPONDED, **kw)


# Server headers as printers of five model families actually present them,
# paired with the exact (model, serial, build) they must parse to.
HP_GOLDEN = [
    (
        "HP HTTP Server; HP Deskjet 3520 series; Serial Number: CN2AQ1B2G305RM; "
        "Built: Mon Feb 25 08:58:38 2013 {MVM2FN1311AR}",
        ("HP Deskjet 3520 series", "CN2AQ1B2G305RM", "Mon Feb 25 08:58:38 2013 {MVM2FN1311AR}"),
    ),
    (
        "HP HTTP Server; HP OfficeJet Pro 8710; Serial Number: TH6CM2N0Y5; "
        "Built: Thu Jun 08 09:10:11 2017 {OJP8710_1717A}",
        ("HP OfficeJet Pro 8710", "TH6CM2N0Y5", "Thu Jun 08 09:10:11 2017 {OJP8710_1717A}"),
    ),
    (
        "HP HTTP Server; HP ENVY 4520 series; Serial Number: CN5C91D2HY06PG",
        ("HP ENVY 4520 series", "CN5C91D2HY06PG", None),
    ),
    (
        "HP HTTP Server; HP LaserJet Pro M148dw; Serial Number: VNC3K12345",
        ("HP LaserJet Pro M148dw", "VNC3K12345", None),
    ),
    (
        "HP HTTP Server; HP Smart Tank 510 series; Serial Number: CN0AB1C2D3; "
        "Built: Wed May 25 10:31:05 2022 {STP51X_2222B}",
        ("HP Smart Tank 510 series", "CN0AB1C2D3", "Wed May 25 10:31:05 2022 {STP51X_2222B}"),
    ),
]

HP_REJECTS = [
    None,
    "",
    "Apache/2.4.41 (Ubuntu)",
    "nginx",
    "HP HTTP Server",
    "HP HTTP Server; HP ENVY 4520 series",  # serial is mandatory
    "HP HTTP Server; HP ENVY 4520 series; Serial Number: ",
    "hp http server; HP ENVY; Serial Number: X",  # vendor tag is case-exact
    "HP-ChaiSOE/1.0",
]


class TestHpHeader:
    @pytest.mark.parametrize("header,expected", HP_GOLDEN, ids=[e[0] for _, e in HP_GOLDEN])
    def test_golden_headers(self, header, expected):
        parsed = parse_hp_header(header)
        assert parsed is not None
        assert (parsed.model, parsed.serial, parsed.build) == expected

    @pytest.mark.parametrize("header", HP_REJECTS)
    def test_non_printer_headers(self, header):
        assert parse_hp_header(header) is None

    def test_whitespace_tolerated(self):
        parsed = parse_hp_header(
            "  HP HTTP Server;  HP DeskJet 2700 series ;  Serial Number:  ABC123  "
        )
        assert (parsed.model, parsed.serial, parsed.build) == (
            "HP DeskJet 2700 series", "ABC123", None,
        )

    def test_collect_skips_failures_and_foreign_servers(self):
        header, (model, serial, build) = HP_GOLDEN[0]
        grabs = [
            responded("2001:db8::a", http_server_header=header),
            responded("2001:db8::b", http_server_header="lighttpd/1.4"),
            GrabRecord(
                address="2001:db8::c", service="http", outcome=OUTCOME_TIMEOUT,
                http_server_header=header,  # stale data on a failed grab
            ),
        ]
        assert collect_hp_printers(grabs) == [
            HpPrinterRecord("2001:db8::a", model, serial, build)
        ]

    def test_dedupe_by_serial(self):
        # The same three physical printers seen at five addresses.
        records = [
            HpPrinterRecord("2001:db8::1", "M1", "SER-A", None),
            HpPrinterRecord("2001:db8::2", "M1", "SER-B", None),
            HpPrinterRecord("2001:db8::3", "M1", "SER-A", None),
            HpPrinterRecord("2001:db8::4", "M2", "SER-C", "b"),
            HpPrinterRecord("2001:db8::5", "M1", "SER-B", None),
        ]
        unique = dedupe_printers(records)
        assert [r.serial for r in unique] == ["SER-A", "SER-B", "SER-C"]
        assert unique[0].address == "2001:db8::1"  # first sighting wins
        assert unique[1].address == "2001:db8::2"


class TestEui64:
    def test_known_vector(self):
        address = parse_address("2001:db8:1:200:21b:2cff:feaa:bbcc")
        assert extract_eui64(address) == "00:1b:2c:aa:bb:cc"

    def test_known_vector_local_bit(self):
        # 6c has the universal/local bit pattern that flips to 6e in the IID
        assert extract_eui64(parse_address("2001:db8::6e55:c3ff:fe01:203")) == "6c:55:c3:01:02:03"

    def test_low_iid_not_extracted(self):
        assert extract_eui64(parse_address("2001:db8::1")) is None
        assert extract_eui64(parse_address("2001:db8::a")) is None

    def test_infix_position_is_exact(self):
        # ff:fe anywhere except bytes 3-4 of the IID must not match
        assert extract_eui64(0xFFFE << 48) is None
        assert extract_eui64(0xFFFE) is None
        assert extract_eui64(0x021B2CFFFEAABBCC) == "00:1b:2c:aa:bb:cc"

    @given(st.binary(min_size=6, max_size=6))
    def test_roundtrip_against_independent_embedder(self, mac_bytes):
        mac = ":".join(f"{b:02x}" for b in mac_bytes)
        iid = eui64_iid(mac)
        assert extract_eui64((0x20010DB8 << 96) | iid) == mac

    def test_mass_roundtrip(self):
        rng = random.Random(2026)
        for _ in range(10_000):
            mac = ":".join(f"{rng.randrange(256):02x}" for _ in range(6))
            value = (0x20010DB8 << 96) | eui64_iid(mac)
            assert extract_eui64(value) == mac

    def test_no_false_extraction_from_random_iids(self):
        rng = random.Random(77)
        checked = 0
        while checked < 100_000:
            iid = rng.getrandbits(64)
            if (iid >> 24) & 0xFFFF == 0xFFFE:  # genuine embedding, skip
                continue
            assert extract_eui64(iid) is None
            checked += 1


class TestOui:
    @pytest.fixture()
    def db(self, tmp_path):
        path = tmp_path / "oui.csv"
        path.write_text(
            "# high-24-bit registrations\n"
            "\n"
            "00:1b:2c,ATRONIC AG\n"
            "6c:55:c3,Shenzhen Terca Technology\n"
            "fc:ec:da,Ubiquiti Networks\n"
        )
        return load_oui_db(str(path))

    def test_lookup_hit(self, db):
        assert oui_vendor("00:1b:2c:aa:bb:cc", db) == "ATRONIC AG"
        assert oui_vendor("FC:EC:DA:00:11:22", db) == "Ubiquiti Networks"

    def test_lookup_miss(self, db):
        assert oui_vendor("de:ad:be:ef:00:01", db) is None

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("00:1b:2c,Vendor,extra\n")
        with pytest.raises(ValueError):
            load_oui_db(str(path))

    def test_extraction_feeds_lookup(self, db):
        mac = extract_eui64(parse_address("2001:db8::21b:2cff:feaa:bbcc"))
        assert oui_vendor(mac, db) == "ATRONIC AG"


class TestMatchers:
    def test_dahua_marker(self):
        rec = responded(banner=b'<script>var appname="cameraNewConfig";</script>')
        hits = match_fingerprints(rec)
        assert [h.kind for h in hits] == [KIND_DAHUA_CAMERA]
        assert hits[0].evidence == DAHUA_MARKER.decode()

    def test_nanoleaf_upgrade_link(self):
        rec = responded(banner=b'<html><a href="/upgrade">Upload New Firmware</a></html>')
        hits = match_fingerprints(rec)
        assert [h.kind for h in hits] == [KIND_NANOLEAF]
        assert "firmware" in hits[0].evidence.lower()

    def test_firmware_form_matches(self):
        rec = responded(banner=b'<form action="/firmware_upload" method="post">')
        assert [h.kind for h in match_fingerprints(rec)] == [KIND_NANOLEAF]

    def test_firmware_mention_outside_element_ignored(self):
        rec = responded(banner=b"<p>firmware upgrade notes</p><a href=\"/\">home</a>")
        assert match_fingerprints(rec) == []

    def test_anchor_without_upload_ignored(self):
        rec = responded(banner=b'<a href="/about">firmware version 1.2</a>')
        assert match_fingerprints(rec) == []

    def test_nokia_cn(self):
        rec = responded(service="https", tls_subject_cn=NOKIA_ROOT_CN)
        hits = match_fingerprints(rec)
        assert [h.kind for h in hits] == [KIND_NOKIA_GATEWAY]
        assert hits[0].evidence == NOKIA_ROOT_CN

    def test_other_cn_ignored(self):
        rec = responded(service="https", tls_subject_cn="igd.local")
        assert match_fingerprints(rec) == []

    def test_plain_record_no_hits(self):
        rec = responded(banner=b"SSH-2.0-dropbear", service="ssh")
        assert match_fingerprints(rec) == []

    def test_failed_grab_never_matches(self):
        rec = GrabRecord(
            address="2001:db8::1", service="https", outcome=OUTCOME_REFUSED,
            tls_subject_cn=NOKIA_ROOT_CN, banner=DAHUA_MARKER,
        )
        assert match_fingerprints(rec) == []

    def test_one_record_can_hit_twice(self):
        header = HP_GOLDEN[0][0]
        rec = responded(http_server_header=header, banner=DAHUA_MARKER)
        kinds = {h.kind for h in match_fingerprints(rec)}
        assert kinds == {KIND_HP_PRINTER, KIND_DAHUA_CAMERA}

    def test_fingerprint_records_flattens(self):
        grabs = [
            responded("2001:db8::1", banner=DAHUA_MARKER),
            responded("2001:db8::2", banner=b"nothing"),
            responded("2001:db8::3", service="https", tls_subject_cn=NOKIA_ROOT_CN),
        ]
        hits = fingerprint_records(grabs)
        assert [(h.address, h.kind) for h in hits] == [
            ("2001:db8::1", KIND_DAHUA_CAMERA),
            ("2001:db8::3", KIND_NOKIA_GATEWAY),
        ]


@pytest.fixture(scope="module")
def hits_and_grabs():
    from conftest import SimService, make_host, make_net, make_scenario, make_subnet
    from resiscan.grab import run_grab_campaign
    from resiscan.services import default_services
    from resiscan.simnet import SimServices

    net = make_net(
        "2001:db8:77::",
        [
            make_subnet(
                1,
                hosts=[
                    make_host(1, services=[SimService(80, "hp_printer_http", {
                        "model": "HP ENVY 6055e", "serial": "TH1122XY",
                        "built": "Thu Feb 09 14:22:41 2023 {EV6055_2306A}",
                    })]),
                    make_host(2, services=[SimService(80, "dahua_http", {})]),
                    make_host(3, services=[SimService(80, "nanoleaf_http", {})]),
                    make_host(4, services=[SimService(443, "tls_http", {
                        "common_name": NOKIA_ROOT_CN,
                    })]),
                ],
            ),
        ],
    )
    sim = SimServices(make_scenario([net]))
    addresses = [f"2001:db8:77:100::{i}" for i in range(1, 5)]
    specs = [s for s in default_services() if s.name in ("http", "https")]
    grabs = run_grab_campaign(addresses, specs, connector=sim.connector(), timeout=1.0)
    return fingerprint_records(grabs), grabs


class TestThroughSimulatedServices:
    """Fingerprints recovered from real grabs against simulated devices."""

    def test_each_device_identified(self, hits_and_grabs):
        hits, _ = hits_and_grabs
        by_address = {h.address: h.kind for h in hits}
        assert by_address == {
            "2001:db8:77:100::1": KIND_HP_PRINTER,
            "2001:db8:77:100::2": KIND_DAHUA_CAMERA,
            "2001:db8:77:100::3": KIND_NANOLEAF,
            "2001:db8:77:100::4": KIND_NOKIA_GATEWAY,
        }

    def test_printer_details_survive_the_wire(self, hits_and_grabs):
        _, grabs = hits_and_grabs
        printers = dedupe_printers(collect_hp_printers(grabs))
        assert len(printers) == 1
        assert printers[0].model == "HP ENVY 6055e"
        assert printers[0].serial == "TH1122XY"
        assert printers[0].build == "Thu Feb 09 14:22:41 2023 {EV6055_2306A}"


class TestFingerprintFile:
    def test_roundtrip_sorted(self):
        hits = [
            FingerprintHit("2001:db8::9", KIND_NANOLEAF, "<a>fw</a>"),
            FingerprintHit("2001:db8::1", KIND_NOKIA_GATEWAY, NOKIA_ROOT_CN),
            FingerprintHit("2001:db8::1", KIND_DAHUA_CAMERA, "x"),
        ]
        buf = io.StringIO()
        write_fingerprints(hits, buf)
        buf.seek(0)
        loaded = read_fingerprints(buf)
        assert loaded == sorted(hits, key=lambda h: (h.address, h.kind))

    @pytest.mark.parametrize("row", ["2001:db8::1,hp_printer", "2001:db8::1,a,b,c"])
    def test_row_without_three_fields_rejected(self, row):
        with pytest.raises(ValueError, match="fingerprint file line 2: expected 3 fields"):
            read_fingerprints(io.StringIO(f"address,kind,evidence\n{row}\n"))

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_fingerprints(io.StringIO("а,b,c\n"))
