import ipaddress

from hypothesis import given
from hypothesis import strategies as st

from resiscan.addrs import (
    IID_MASK,
    PREFIX48_MASK,
    PREFIX56_MASK,
    LongestPrefixMap,
    format_address,
    parse_address,
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
    assert len(table) == 3


def test_lpm_default_route_and_overwrite():
    table = LongestPrefixMap()
    table.insert("::/0", "default")
    assert table.lookup(parse_address("fe80::1")) == "default"
    table.insert("::/0", "replaced")
    assert table.lookup(0) == "replaced"
    assert len(table) == 1


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
