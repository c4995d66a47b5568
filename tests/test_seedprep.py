import pytest
from hypothesis import given
from hypothesis import strategies as st

from resiscan.addrs import format_address, parse_address
from resiscan.seedprep import (
    REASON_CATEGORY,
    REASON_CONNECTION,
    REASON_NO_AS,
    REASON_NO_CONNECTION,
    SeedSet,
    classify_residential,
    filter_seeds,
    load_as_map,
    load_connection_map,
    parse_prefix_list,
)


def p48(text):
    return parse_address(text)


class TestParsePrefixList:
    def test_basic_list_with_comments_and_blanks(self):
        seeds = parse_prefix_list(
            """
            # seed snapshot
            2001:db8:1::/48
            2001:db8:2::/48   # trailing comment

            2001:db8:3::/48
            """
        )
        assert [format_address(p) for p in seeds.prefixes] == [
            "2001:db8:1::",
            "2001:db8:2::",
            "2001:db8:3::",
        ]
        assert seeds.provenance == {
            "lines": 3,
            "prefixes": 3,
            "duplicates": 0,
            "truncated": 0,
            "rejected_short": 0,
        }

    def test_longer_prefixes_truncate_to_48(self):
        seeds = parse_prefix_list("2001:db8:1:ff00::/56\n2001:db8:1::/64\n")
        # Both fall inside the same /48; second one becomes a duplicate.
        assert len(seeds.prefixes) == 1
        assert format_address(seeds.prefixes[0]) == "2001:db8:1::"
        assert seeds.provenance["truncated"] == 2
        assert seeds.provenance["duplicates"] == 1

    def test_shorter_prefixes_rejected_not_widened(self):
        seeds = parse_prefix_list("2001:db8::/32\n2001:db8:9::/48\n")
        assert [format_address(p) for p in seeds.prefixes] == ["2001:db8:9::"]
        assert seeds.provenance["rejected_short"] == 1

    def test_duplicates_keep_first_occurrence(self):
        seeds = parse_prefix_list("2001:db8:2::/48\n2001:db8:1::/48\n2001:db8:2::/48\n")
        assert [format_address(p) for p in seeds.prefixes] == ["2001:db8:2::", "2001:db8:1::"]
        assert seeds.provenance["duplicates"] == 1

    def test_garbage_line_reports_line_number(self):
        with pytest.raises(ValueError) as exc:
            parse_prefix_list("2001:db8:1::/48\n\nnot-a-prefix\n")
        assert str(exc.value).startswith("line 3:")
        assert "not-a-prefix" in str(exc.value)

    def test_bare_address_means_host_prefix(self):
        seeds = parse_prefix_list("2001:db8:7:1::5\n")
        assert format_address(seeds.prefixes[0]) == "2001:db8:7::"
        assert seeds.provenance["truncated"] == 1

    def test_length_grammar(self):
        # Any length of the one CIDR grammar; longer ones truncate, shorter ones are counted.
        seeds = parse_prefix_list("2001:db8:1:ff00::1/0128\n2001:db8:2::/048\n2001:db8::/047\n")
        assert [format_address(p) for p in seeds.prefixes] == ["2001:db8:1::", "2001:db8:2::"]
        assert (seeds.provenance["truncated"], seeds.provenance["rejected_short"]) == (1, 1)
        for length in ("/129", "/+48", "/ 48", "/4_8", "/\u0664\u0668"):
            with pytest.raises(ValueError, match="^line 2: not an IPv6 prefix"):
                parse_prefix_list(f"2001:db8:1::/48\n2001:db8::{length}\n")

    @pytest.mark.parametrize("end", ["\u2028", "\x85", "\x0c"], ids=["u2028", "x85", "x0c"])
    def test_only_newline_ends_a_line(self, end):
        # A /48 commented out after another line break stays commented out.
        seeds = parse_prefix_list(f"# note{end} 2001:db8:1::/48\n2001:db8:2::/48{end}\n")
        assert [format_address(p) for p in seeds.prefixes] == ["2001:db8:2::"]
        assert seeds.provenance["lines"] == 1
        # A fault is named by its "\n" line.
        with pytest.raises(ValueError, match="^line 2: not an IPv6 prefix: 'bogus'"):
            parse_prefix_list(f"# c{end}# d\nbogus\n")
        with pytest.raises(ValueError, match="^line 1: not an IPv6 prefix"):
            parse_prefix_list(f"2001:db8:1::/48{end}2001:db8:2::/48\n")


@pytest.fixture
def maps(tmp_path):
    as_csv = tmp_path / "as.csv"
    as_csv.write_text(
        "# prefix,asn,category,country\n"
        "2001:db8::/32,64500,Internet Service Provider,de\n"
        "2001:db8:00f0::/44,64501,Content Delivery,de\n"
        "3fff:aaaa::/32,64502,internet service provider,jp\n"
        "3fff:bbbb::/32,64503,Education,us\n"
    )
    conn_csv = tmp_path / "conn.csv"
    conn_csv.write_text(
        "2001:db8::/32,Cable/DSL\n"
        "2001:db8:e::/48,cellular\n"
        "3fff:aaaa::/32,dialup\n"
    )
    return load_as_map(str(as_csv)), load_connection_map(str(conn_csv))


class TestClassifyResidential:
    def test_residential_cable(self, maps):
        as_map, conn_map = maps
        assert classify_residential(p48("2001:db8:1::"), as_map, conn_map) is None

    def test_residential_dialup(self, maps):
        as_map, conn_map = maps
        assert classify_residential(p48("3fff:aaaa:1::"), as_map, conn_map) is None

    def test_unmapped_as(self, maps):
        as_map, conn_map = maps
        assert classify_residential(p48("3fff:cccc::"), as_map, conn_map) == REASON_NO_AS

    def test_wrong_category_longest_match_wins(self, maps):
        as_map, conn_map = maps
        # The /44 carve-out overrides the ISP /32 for this /48.
        reason = classify_residential(p48("2001:db8:f1::"), as_map, conn_map)
        assert reason == REASON_CATEGORY

    def test_no_connection_mapping(self, maps):
        as_map, conn_map = maps
        reason = classify_residential(p48("3fff:bbbb::"), as_map, conn_map)
        # Category fails before the connection lookup is consulted.
        assert reason == REASON_CATEGORY

    def test_cellular_carveout_rejected(self, maps):
        as_map, conn_map = maps
        reason = classify_residential(p48("2001:db8:e::"), as_map, conn_map)
        assert reason == REASON_CONNECTION

    def test_missing_connection_row(self, tmp_path, maps):
        as_map, _ = maps
        empty = tmp_path / "empty_conn.csv"
        empty.write_text("")
        conn_map = load_connection_map(str(empty))
        reason = classify_residential(p48("2001:db8:1::"), as_map, conn_map)
        assert reason == REASON_NO_CONNECTION


def test_connection_map_rejects_unknown_type(tmp_path):
    bad = tmp_path / "conn.csv"
    bad.write_text("2001:db8::/32,satellite\n")
    with pytest.raises(ValueError, match="satellite"):
        load_connection_map(str(bad))


def test_as_map_rejects_short_rows(tmp_path):
    bad = tmp_path / "as.csv"
    bad.write_text("2001:db8::/32,64500\n")
    with pytest.raises(ValueError):
        load_as_map(str(bad))


def _inline_maps():
    from resiscan.addrs import LongestPrefixMap

    as_map = LongestPrefixMap()
    as_map.insert("2001:db8::/32", "Internet Service Provider")
    as_map.insert("2001:db8:f0::/44", "Content Delivery")
    as_map.insert("3fff:bbbb::/32", "Education")
    conn_map = LongestPrefixMap()
    conn_map.insert("2001:db8::/32", "cable_dsl")
    return as_map, conn_map


_AS_MAP, _CONN_MAP = _inline_maps()


class TestFilterSeeds:
    def test_two_stage_narrowing_counts(self, maps):
        as_map, conn_map = maps
        listing = "\n".join(
            [
                "2001:db8:1::/48",  # kept
                "2001:db8:2::/48",  # kept
                "2001:db8:f1::/48",  # CDN carve-out: category reject
                "2001:db8:e::/48",  # cellular carve-out: connection reject
                "3fff:aaaa:9::/48",  # kept (dialup)
                "3fff:bbbb:1::/48",  # education: category reject
                "3fff:dddd::/48",  # no AS mapping
            ]
        )
        seeds = parse_prefix_list(listing)
        kept = filter_seeds(seeds, as_map, conn_map)
        assert [format_address(p) for p in kept.prefixes] == [
            "2001:db8:1::",
            "2001:db8:2::",
            "3fff:aaaa:9::",
        ]
        prov = kept.provenance
        assert prov["input"] == 7
        assert prov["after_category"] == 4
        assert prov["after_connection"] == 3
        assert prov[f"rejected_{REASON_CATEGORY}"] == 2
        assert prov[f"rejected_{REASON_NO_AS}"] == 1
        assert prov[f"rejected_{REASON_CONNECTION}"] == 1
        assert prov[f"rejected_{REASON_NO_CONNECTION}"] == 0

    def test_preserves_input_order(self, maps):
        as_map, conn_map = maps
        seeds = parse_prefix_list("3fff:aaaa:2::/48\n2001:db8:1::/48\n3fff:aaaa:1::/48\n")
        kept = filter_seeds(seeds, as_map, conn_map)
        assert [format_address(p) for p in kept.prefixes] == [
            "3fff:aaaa:2::",
            "2001:db8:1::",
            "3fff:aaaa:1::",
        ]

    def test_idempotent(self, maps):
        as_map, conn_map = maps
        seeds = parse_prefix_list("2001:db8:1::/48\n3fff:bbbb:1::/48\n3fff:aaaa:1::/48\n")
        once = filter_seeds(seeds, as_map, conn_map)
        twice = filter_seeds(once, as_map, conn_map)
        assert once.prefixes == twice.prefixes

    @given(st.permutations(list(range(12))))
    def test_survivor_set_is_order_independent(self, order):
        pool = (
            [p48(f"2001:db8:{i:x}::") for i in range(1, 5)]
            + [p48(f"2001:db8:f{i:x}::") for i in range(4)]
            + [p48(f"3fff:dddd:{i:x}::") for i in range(4)]
        )
        shuffled = SeedSet(prefixes=tuple(pool[i] for i in order))
        kept = filter_seeds(shuffled, _AS_MAP, _CONN_MAP)
        expected = {p for p in pool if classify_residential(p, _AS_MAP, _CONN_MAP) is None}
        assert set(kept.prefixes) == expected
        assert len(kept.prefixes) == len(expected)

    @given(st.sets(st.integers(min_value=0, max_value=15), max_size=16))
    def test_dropping_inputs_never_adds_survivors(self, drop):
        pool = [p48(f"2001:db8:{i:x}::") for i in range(8)] + [
            p48(f"3fff:bbbb:{i:x}::") for i in range(8)
        ]
        full = filter_seeds(SeedSet(prefixes=tuple(pool)), _AS_MAP, _CONN_MAP)
        reduced_pool = tuple(p for i, p in enumerate(pool) if i not in drop)
        reduced = filter_seeds(SeedSet(prefixes=reduced_pool), _AS_MAP, _CONN_MAP)
        assert set(reduced.prefixes) <= set(full.prefixes)
