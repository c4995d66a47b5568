import csv
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resiscan.addrs import LongestPrefixMap, parse_address
from resiscan.classify import LABEL_EXTERNAL, LABEL_INTERNAL, ClassifiedAddress
from resiscan.fingerprint import FingerprintHit
from resiscan.grab import (
    OUTCOME_REFUSED,
    OUTCOME_RESPONDED,
    OUTCOME_TIMEOUT,
    GrabRecord,
)
from resiscan.report import (
    AsnGeoRecord,
    aggregate,
    emit,
    internal_only_exposures,
    load_asn_geo,
    yield_cdf,
)

NET_A1 = parse_address("2001:db8:a:100::")
NET_A2 = parse_address("2001:db8:a:200::")
NET_B1 = parse_address("2001:db8:b:300::")

A1_INT1 = parse_address("2001:db8:a:100::1")
A1_INT2 = parse_address("2001:db8:a:100::2")
A1_WAN = parse_address("3fff:a:0:1::7")
A2_WAN = parse_address("3fff:a:0:2::7")
B1_INT = parse_address("2001:db8:b:300::a")
B1_WAN = parse_address("3fff:b:0:3::7")


def internal(net56, address, distance):
    return ClassifiedAddress(net56, address, LABEL_INTERNAL, 64, distance)


def external(net56, address, distance):
    return ClassifiedAddress(net56, address, LABEL_EXTERNAL, 255, distance)


def hit(address, service, **kw):
    return GrabRecord(address=address, service=service, outcome=OUTCOME_RESPONDED, **kw)


CLASSIFIED = [
    internal(NET_A1, A1_INT1, 4),
    internal(NET_A1, A1_INT2, 5),
    external(NET_A1, A1_WAN, 3),
    external(NET_A2, A2_WAN, 2),
    internal(NET_B1, B1_INT, 6),
    external(NET_B1, B1_WAN, 6),
]

GRABS = [
    hit("2001:db8:a:100::1", "telnet"),
    hit("2001:db8:a:100::1", "http", http_server_header="BusyBox"),
    hit("2001:db8:a:100::2", "lockdown", lockdown_product_version="17.1"),
    hit("3fff:a:0:1::7", "http"),  # A1's outside address answers: not internal-only
    hit("2001:db8:b:300::a", "telnet"),
    hit("2001:db8:ff::1", "ntp"),  # responded, but never classified
    GrabRecord(address="3fff:b:0:3::7", service="lockdown", outcome=OUTCOME_TIMEOUT),
    GrabRecord(address="3fff:b:0:3::7", service="ssh", outcome=OUTCOME_REFUSED),
]

HITS = [
    FingerprintHit("2001:db8:a:100::1", "dahua_camera", "x"),
    FingerprintHit("2001:db8:b:300::a", "dahua_camera", "x"),
    FingerprintHit("3fff:a:0:1::7", "nokia_gateway", "Nokia DHBU Root CA"),
]


def build_lpm():
    table = LongestPrefixMap()
    table.insert("2001:db8:a::/48", AsnGeoRecord(64500, "Alpha Net", "de"))
    table.insert("2001:db8:b::/48", AsnGeoRecord(64501, "Beta Net", "fr"))
    table.insert("3fff:a::/32", AsnGeoRecord(64500, "Alpha Net", "de"))
    table.insert("3fff:b::/32", AsnGeoRecord(64501, "Beta Net", "fr"))
    return table


@pytest.fixture(scope="module")
def tables():
    return aggregate(CLASSIFIED, GRABS, HITS, build_lpm(), seed_total=7)


def table_rows(tables, name):
    return tables[name][1]


def by_key(tables, name):
    """A table's rows keyed by their first field."""
    return {row[0]: list(row[1:]) for row in table_rows(tables, name)}


def summary(tables):
    return {key: value for key, value in table_rows(tables, "summary.csv")}


class TestAggregate:
    def test_totals(self, tables):
        values = summary(tables)
        assert values["internal_addresses"] == 3
        assert values["external_addresses"] == 3
        assert values["seed_total"] == 7

    def test_country_split(self, tables):
        assert table_rows(tables, "country_split.csv") == [["de", 2, 2], ["fr", 1, 1]]

    def test_asn_split(self, tables):
        assert table_rows(tables, "asn_split.csv") == [
            [64500, "Alpha Net", 2, 2],
            [64501, "Beta Net", 1, 1],
        ]

    def test_yield_per_48(self, tables):
        # Two /48s, one with [2, 2] responsive addresses and one with [1, 1].
        assert summary(tables)["responsive_48s"] == 2
        assert table_rows(tables, "yield_cdf.csv") == [
            [0, "0.000000", "0.000000"],
            [1, "0.500000", "0.500000"],
            [2, "1.000000", "1.000000"],
        ]

    def test_iid_histogram(self, tables):
        expected = {n: 0 for n in range(1, 11)}
        expected[1] = expected[2] = expected[10] = 1
        assert table_rows(tables, "iid_hist.csv") == list(expected.items())

    def test_delta_histogram(self, tables):
        # A1: 4-3 and 5-3; A2 has no internal; B1: 6-6.
        assert table_rows(tables, "delta_hist.csv") == [(0, 1), (1, 1), (2, 1)]
        assert summary(tables)["delta_pairs"] == 3

    def test_protocol_split(self, tables):
        split = by_key(tables, "protocol_split.csv")
        assert split["telnet"] == [23, 2, 0]
        assert split["http"] == [80, 1, 1]
        assert split["lockdown"] == [62078, 1, 0]
        assert split["ssh"] == [22, 0, 0]  # refused grabs don't count
        assert split["ntp"] == [123, 0, 0]  # unclassified address
        assert len(split) == 25  # every configured service has a row

    def test_distinct_ports(self, tables):
        # ::1 answered on {23,80}; the WAN, ::2, ::a and the stray on one each.
        assert table_rows(tables, "distinct_ports.csv") == [(1, 4), (2, 1)]

    def test_lockdown_versions(self, tables):
        assert table_rows(tables, "lockdown_versions.csv") == [("17.1", 1)]

    def test_fingerprint_counts(self, tables):
        assert table_rows(tables, "fingerprints_summary.csv") == [
            ("dahua_camera", 2),
            ("nokia_gateway", 1),
        ]

    def test_internal_only(self, tables):
        assert table_rows(tables, "internal_only.csv") == [
            ["2001:db8:b:300::/56", "2001:db8:b:300::a", "telnet"]
        ]
        assert summary(tables)["internal_only_exposures"] == 1

    def test_unknown_attribution(self):
        t = aggregate(CLASSIFIED, [], [], LongestPrefixMap(), seed_total=7)
        assert table_rows(t, "country_split.csv") == [["unknown", 3, 3]]
        assert table_rows(t, "asn_split.csv") == [["unknown", "", 3, 3]]  # no AS name

    def test_input_order_never_matters(self, tables):
        rng = random.Random(7)
        for _ in range(5):
            classified = CLASSIFIED[:]
            grabs = GRABS[:]
            hits = HITS[:]
            rng.shuffle(classified)
            rng.shuffle(grabs)
            rng.shuffle(hits)
            assert aggregate(classified, grabs, hits, build_lpm(), seed_total=7) == tables

    def test_conservation(self, tables):
        values = summary(tables)
        for col in (0, 1):
            total = (values["internal_addresses"], values["external_addresses"])[col]
            for name in ("country_split.csv", "asn_split.csv"):
                assert sum(row[-2 + col] for row in table_rows(tables, name)) == total
            # Per /48: the counts sum to n48 * sum over x of (1 - CDF(x)).
            n48 = values["responsive_48s"]
            cdf = [float(row[1 + col]) for row in table_rows(tables, "yield_cdf.csv")]
            assert round(n48 * sum(1 - f for f in cdf)) == total
        iid_counts = [count for _, count in table_rows(tables, "iid_hist.csv")]
        assert sum(iid_counts) == values["internal_addresses"]
        delta_counts = [count for _, count in table_rows(tables, "delta_hist.csv")]
        assert sum(delta_counts) == values["delta_pairs"]

    def test_empty_campaign(self):
        t = aggregate([], [], [], LongestPrefixMap(), seed_total=0)
        values = summary(t)
        assert values["internal_addresses"] == 0 and values["external_addresses"] == 0
        assert values["seed_total"] == 0
        assert table_rows(t, "country_split.csv") == []
        assert table_rows(t, "delta_hist.csv") == [] and values["delta_pairs"] == 0
        assert table_rows(t, "iid_hist.csv") == [(n, 0) for n in range(1, 11)]
        assert all(row[2:] == [0, 0] for row in table_rows(t, "protocol_split.csv"))
        assert table_rows(t, "internal_only.csv") == [] and values["internal_only_exposures"] == 0


class TestSkewedCampaign:
    """One country over two /48s, unequal internal and external counts, and
    two pairs with the same delta: a table that swaps, dedupes or miscounts
    these reads differently, where the symmetric fixture above reads the same."""

    @pytest.fixture(scope="class")
    def skewed(self):
        net_c, net_d = parse_address("2001:db8:c:100::"), parse_address("2001:db8:d:200::")
        classified = [
            internal(net_c, parse_address("2001:db8:c:100::1"), 4),
            internal(net_c, parse_address("2001:db8:c:100::2"), 4),
            external(net_c, parse_address("3fff:c:0:1::7"), 3),
            internal(net_d, parse_address("2001:db8:d:200::1"), 5),
        ]
        lpm = LongestPrefixMap()
        for prefix in ("2001:db8:c::/48", "2001:db8:d::/48", "3fff:c::/32"):
            lpm.insert(prefix, AsnGeoRecord(64502, "Gamma Net", "nl"))
        return aggregate(classified, [], [], lpm, seed_total=2)

    def test_country_columns_are_internal_then_external(self, skewed):
        assert table_rows(skewed, "country_split.csv") == [["nl", 3, 1]]

    def test_delta_pairs_counts_pairs_not_deltas(self, skewed):
        assert table_rows(skewed, "delta_hist.csv") == [(1, 2)]
        assert summary(skewed)["delta_pairs"] == 2

    def test_responsive_48s_counts_48s_not_countries(self, skewed):
        assert summary(skewed)["responsive_48s"] == 2


class TestYieldCdf:
    def test_exact_rows(self):
        # Two /48s with [2,2] and [1,1] responsive addresses.
        assert yield_cdf([[2, 2], [1, 1]]) == [
            (0, 0.0, 0.0),
            (1, 0.5, 0.5),
            (2, 1.0, 1.0),
        ]

    def test_monotone_and_terminal(self):
        rows = yield_cdf([[2, 2], [1, 1], [0, 3]])
        for (_, i0, e0), (_, i1, e1) in zip(rows, rows[1:]):
            assert i1 >= i0 and e1 >= e0
        assert rows[-1][1] == 1.0 and rows[-1][2] == 1.0

    @given(st.lists(st.lists(st.integers(0, 60), min_size=2, max_size=2), max_size=40))
    def test_equals_the_definition(self, counts):
        # At each x, the share of /48s with at most x addresses, as the same
        # integer count over the same n, so every formatted row keeps its bytes.
        n = len(counts)
        xs = range(max((max(c) for c in counts), default=-1) + 1)
        assert yield_cdf(counts) == [
            (x, sum(i <= x for i, _ in counts) / n, sum(e <= x for _, e in counts) / n)
            for x in xs
        ]

    def test_empty(self):
        assert yield_cdf([]) == []
        tables = aggregate([], [], [], LongestPrefixMap(), seed_total=0)
        assert table_rows(tables, "yield_cdf.csv") == []


class TestInternalOnly:
    def test_external_response_suppresses_net(self):
        assert internal_only_exposures(
            [internal(NET_A1, A1_INT1, 4), external(NET_A1, A1_WAN, 3)],
            [hit("2001:db8:a:100::1", "telnet"), hit("3fff:a:0:1::7", "http")],
        ) == []

    def test_failed_external_grabs_do_not_suppress(self):
        out = internal_only_exposures(
            [internal(NET_B1, B1_INT, 6), external(NET_B1, B1_WAN, 6)],
            [
                hit("2001:db8:b:300::a", "telnet"),
                GrabRecord(address="3fff:b:0:3::7", service="http", outcome=OUTCOME_TIMEOUT),
            ],
        )
        assert out == [(NET_B1, B1_INT, ("telnet",))]

    def test_quiet_internal_addresses_not_listed(self):
        assert internal_only_exposures(
            [internal(NET_B1, B1_INT, 6), external(NET_B1, B1_WAN, 6)], []
        ) == []

    def test_service_filter(self):
        classified = [internal(NET_B1, B1_INT, 6), external(NET_B1, B1_WAN, 6)]
        grabs = [hit("2001:db8:b:300::a", "telnet"), hit("2001:db8:b:300::a", "mqtt")]
        both = internal_only_exposures(classified, grabs)
        assert both == [(NET_B1, B1_INT, ("mqtt", "telnet"))]

    def test_net_without_external_counts(self):
        # No outside responder was ever seen: nothing to suppress on.
        out = internal_only_exposures(
            [internal(NET_A2, parse_address("2001:db8:a:200::3"), 2)],
            [hit("2001:db8:a:200::3", "ssh")],
        )
        assert out == [(NET_A2, parse_address("2001:db8:a:200::3"), ("ssh",))]


EXPECTED_FILES = [
    "summary.csv",
    "country_split.csv",
    "asn_split.csv",
    "yield_cdf.csv",
    "iid_hist.csv",
    "delta_hist.csv",
    "protocol_split.csv",
    "distinct_ports.csv",
    "internal_only.csv",
    "lockdown_versions.csv",
    "fingerprints_summary.csv",
]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEmit:
    def test_writes_all_tables(self, tables, tmp_path):
        written = emit(tables, str(tmp_path))
        assert written == EXPECTED_FILES
        for name in written:
            assert (tmp_path / name).is_file()

    def test_summary_contents(self, tables, tmp_path):
        emit(tables, str(tmp_path))
        rows = read_rows(tmp_path / "summary.csv")
        assert rows[0] == ["key", "value"]
        values = dict(rows[1:])
        assert values == {
            "internal_addresses": "3",
            "external_addresses": "3",
            "responsive_48s": "2",
            "seed_total": "7",
            "delta_pairs": "3",
            "internal_only_exposures": "1",
        }

    def test_country_rows_sorted(self, tables, tmp_path):
        emit(tables, str(tmp_path))
        assert read_rows(tmp_path / "country_split.csv") == [
            ["country", "internal", "external"],
            ["de", "2", "2"],
            ["fr", "1", "1"],
        ]

    def test_asn_rows(self, tables, tmp_path):
        emit(tables, str(tmp_path))
        assert read_rows(tmp_path / "asn_split.csv") == [
            ["asn", "as_name", "internal", "external"],
            ["64500", "Alpha Net", "2", "2"],
            ["64501", "Beta Net", "1", "1"],
        ]

    def test_cdf_fixed_point_format(self, tables, tmp_path):
        emit(tables, str(tmp_path))
        rows = read_rows(tmp_path / "yield_cdf.csv")
        assert rows[1] == ["0", "0.000000", "0.000000"]
        assert rows[-1] == ["2", "1.000000", "1.000000"]

    def test_internal_only_row(self, tables, tmp_path):
        emit(tables, str(tmp_path))
        assert read_rows(tmp_path / "internal_only.csv") == [
            ["prefix56", "address", "services"],
            ["2001:db8:b:300::/56", "2001:db8:b:300::a", "telnet"],
        ]

    def test_empty_campaign_emits_headers(self, tmp_path):
        written = emit(aggregate([], [], [], LongestPrefixMap(), seed_total=0), str(tmp_path))
        assert written == EXPECTED_FILES
        assert read_rows(tmp_path / "yield_cdf.csv") == [
            ["addresses", "internal_cdf", "external_cdf"]
        ]
        iid_rows = read_rows(tmp_path / "iid_hist.csv")
        assert iid_rows[0] == ["iid", "count"]
        assert [r[0] for r in iid_rows[1:]] == [str(n) for n in range(1, 11)]
        assert all(r[1] == "0" for r in iid_rows[1:])


class TestAsnGeoFile:
    def test_load(self, tmp_path):
        path = tmp_path / "asn_geo.csv"
        path.write_text(
            "# prefix,asn,as_name,country\n"
            "\n"
            "2001:db8:a::/48,64500,Alpha Net,de\n"
            "3fff::/20,64999,Carrier Core,de\n"
        )
        table = load_asn_geo(str(path))
        rec = table.lookup(parse_address("2001:db8:a:100::1"))
        assert rec == AsnGeoRecord(64500, "Alpha Net", "de")
        assert table.lookup(parse_address("3fff:a::1")).as_name == "Carrier Core"
        assert table.lookup(parse_address("2001:db8:b::1")) is None

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2001:db8::/48,64500,No Country\n")
        with pytest.raises(ValueError):
            load_asn_geo(str(path))
