import ipaddress
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resiscan.addrs import (
    IID_MASK,
    PREFIX48_MASK,
    PREFIX56_MASK,
    LongestPrefixMap,
    format_address,
    parse_address,
    parse_cidr,
    parse_prefix,
    prefix48_of,
    prefix56_of,
)


def test_parse_format_examples():
    assert parse_address("::1") == 1
    assert format_address(1) == "::1"
    assert format_address(parse_address("2001:DB8::0001")) == "2001:db8::1"
    assert parse_address(" 2001:db8::2 ") == 0x20010DB8000000000000000000000002


@given(st.integers(min_value=0, max_value=(1 << 128) - 1))
def test_parse_format_roundtrip(value):
    assert parse_address(format_address(value)) == value


# Addresses shaped like the cases text forms treat specially: runs of zero
# words (which "::" compresses), ::1, and the IPv4-compatible and
# IPv4-mapped prefixes (::a.b.c.d, ::ffff:a.b.c.d).
_WORD = st.one_of(
    st.sampled_from([0, 0, 0, 1, 0xFFFF]), st.integers(min_value=0, max_value=0xFFFF)
)
EDGE_SHAPED = st.lists(_WORD, min_size=8, max_size=8).map(
    lambda words: int.from_bytes(b"".join(w.to_bytes(2, "big") for w in words), "big")
)
ANY_ADDRESS = st.one_of(st.integers(min_value=0, max_value=(1 << 128) - 1), EDGE_SHAPED)


@settings(max_examples=500)
@given(ANY_ADDRESS)
def test_format_agrees_with_ipaddress(value):
    assert format_address(value) == ipaddress.IPv6Address(value).compressed


def _ipaddress_parse(text: str) -> int | None:
    try:
        return int(ipaddress.IPv6Address(text.strip()))
    except ValueError:
        return None


def _parse_or_none(text: str) -> int | None:
    try:
        return parse_address(text)
    except ValueError:
        return None


ADDRESS_TEXT = st.one_of(
    st.text(alphabet="0123456789abcdefABCDEF:.% \n", max_size=48),
    ANY_ADDRESS.map(lambda v: ipaddress.IPv6Address(v).exploded),
    ANY_ADDRESS.map(lambda v: ipaddress.IPv6Address(v).compressed.upper()),
    st.text(max_size=12),
)


@settings(max_examples=500)
@given(ADDRESS_TEXT)
def test_parse_agrees_with_ipaddress(text):
    # Same value for every text ipaddress accepts, ValueError for the rest.
    assert _parse_or_none(text) == _ipaddress_parse(text)


def test_parse_keeps_ipaddress_only_forms_and_errors():
    assert parse_address("fe80::1%eth0") == parse_address("fe80::1")
    assert parse_address("::ffff:192.0.2.1") == 0xFFFF_C000_0201
    with pytest.raises(ValueError, match="Leading zeros"):
        parse_address("::01.2.3.4")
    with pytest.raises(ValueError):
        format_address(1 << 128)


# Address text of every form, then a length part that int() would read and
# ipaddress refuses, or one at an edge of 0-128.
CIDR_TEXT = st.builds(
    operator.add,
    st.one_of(
        ANY_ADDRESS.map(format_address),
        ANY_ADDRESS.map(lambda v: ipaddress.IPv6Address(v).exploded),
        st.sampled_from(["fe80::1%eth0", "fe80::1% ", "::ffff:1.2.3.4", " ::1", "::1 ", ""]),
        st.text(alphabet="0123456789abcdef:.% ", max_size=24),
    ),
    st.one_of(
        st.sampled_from(["", "/", "/048", "/+48", "/ 48", "/48 ", "/4_8", "/\u0664\u0668", "/129", "//48"]),
        st.integers(min_value=0, max_value=200).map("/{}".format),
        st.text(max_size=4).map("/{}".format),
    ),
)


def _cidr_network(text: str) -> tuple[int, int] | None:
    try:
        address, length = parse_cidr(text)
    except ValueError:
        return None
    return address >> (128 - length) << (128 - length), length


def _ipaddress_network(text: str) -> tuple[int, int] | None:
    try:
        net = ipaddress.IPv6Network(text, strict=False)
    except ValueError:
        return None
    return int(net.network_address), net.prefixlen


@settings(max_examples=1000)
@given(CIDR_TEXT)
@example("2001:db8::/048")
@example("2001:db8::/")
@example("2001:db8::/+48")
@example("2001:db8::/ 48")
@example("2001:db8::/4_8")
@example("2001:db8::/\u0664\u0668")  # Arabic-Indic 48
@example("2001:db8::/129")
@example("2001:db8:://48")
@example("2001:db8::1")
@example("fe80::1%eth0/64")
@example("::ffff:1.2.3.4/128")
def test_parse_cidr_agrees_with_ipaddress(text):
    # Same network and length for every text ipaddress accepts, ValueError for the rest.
    assert _cidr_network(text) == _ipaddress_network(text)


def test_parse_prefix_needs_the_exact_length_and_no_host_bits():
    # Stage files and the scenario.
    assert parse_prefix("2001:db8:1::/048", 48) == parse_address("2001:db8:1::")
    for text in ("2001:db8:1::/47", "2001:db8:1::/56", "2001:db8:1::", "2001:db8:1::1/48"):
        with pytest.raises(ValueError, match="is not a /48 network"):
            parse_prefix(text, 48)


def test_lpm_takes_any_length_and_no_host_bits():
    # The reference tables.
    table = LongestPrefixMap()
    table.insert("2001:db8::/032", "wide")
    table.insert("2001:db8::5", "host")  # a bare address is a /128
    assert table.lookup(parse_address("2001:db8::5")) == "host"
    assert table.lookup(parse_address("2001:db8::6")) == "wide"
    with pytest.raises(ValueError, match="has host bits set"):
        table.insert("2001:db8::1/32", "x")
    with pytest.raises(ValueError, match="no prefix length from 0 to 128"):
        table.insert("2001:db8::/129", "x")


def test_iid_and_prefix_slicing():
    addr = parse_address("2001:db8:1:2345:6789:abcd:ef01:2345")
    assert addr & IID_MASK == 0x6789ABCDEF012345
    assert format_address(prefix48_of(addr)) == "2001:db8:1::"
    assert format_address(prefix56_of(addr)) == "2001:db8:1:2300::"


def test_masks_are_consistent():
    assert PREFIX48_MASK | ((1 << 80) - 1) == (1 << 128) - 1
    assert PREFIX56_MASK & IID_MASK == 0
    assert bin(PREFIX56_MASK ^ PREFIX48_MASK).count("1") == 8


def test_lpm_prefers_longest_match():
    table = LongestPrefixMap()
    table.insert("2001:db8::/32", "wide")
    table.insert("2001:db8:5::/48", "narrow")
    table.insert("2001:db8:5:ab00::/56", "narrowest")
    assert table.lookup(parse_address("2001:db8:5:ab00::1")) == "narrowest"
    assert table.lookup(parse_address("2001:db8:5:ac00::1")) == "narrow"
    assert table.lookup(parse_address("2001:db8:ffff::1")) == "wide"
    assert table.lookup(parse_address("2001:db9::1")) is None
    assert {plen: len(bucket) for plen, bucket in table._by_len.items()} == {32: 1, 48: 1, 56: 1}


def test_lpm_default_route_and_overwrite():
    table = LongestPrefixMap()
    table.insert("::/0", "default")
    assert table.lookup(parse_address("fe80::1")) == "default"
    table.insert("::/0", "replaced")
    assert table.lookup(0) == "replaced"
    assert table._by_len == {0: {0: "replaced"}}


@given(st.integers(min_value=0, max_value=(1 << 128) - 1), st.integers(min_value=0, max_value=128))
def test_lpm_agrees_with_ipaddress_containment(addr, plen):
    net = ipaddress.IPv6Network((addr, plen), strict=False)
    table = LongestPrefixMap()
    table.insert(str(net), "hit")
    probe_in = int(net.network_address)
    assert table.lookup(probe_in) == "hit"
    if plen > 0:
        outside = int(net.network_address) ^ (1 << (128 - plen))
        assert table.lookup(outside) is None
