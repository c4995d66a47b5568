"""IPv6 address and prefix primitives shared across the pipeline.

Addresses travel through the hot paths as plain 128-bit ints; text form is
only produced at file boundaries and is always the lowercase canonical
(compressed) representation, so parse/format round-trips are exact.
"""

from __future__ import annotations

import ipaddress
import socket

from .csvio import table_rows

IID_MASK = (1 << 64) - 1
SUBNET_SHIFT = 72  # /56 index byte occupies bits 72..79
PREFIX48_MASK = ((1 << 48) - 1) << 80
PREFIX56_MASK = ((1 << 56) - 1) << 72


def parse_address(text: str) -> int:
    """Parse IPv6 text, whitespace around it ignored, to its 128-bit integer value."""
    return _address(text.strip())


def _address(text: str) -> int:
    try:
        return int.from_bytes(socket.inet_pton(socket.AF_INET6, text), "big")
    except (OSError, ValueError):
        # ipaddress also takes a scope id and words the error.
        return int(ipaddress.IPv6Address(text))


def format_address(value: int) -> str:
    """Render the canonical lowercase compressed form."""
    if value >> 32 in (0, 0xFFFF) or value >> 128:
        # inet_ntop prints ::a.b.c.d and ::ffff:a.b.c.d dotted; ipaddress
        # also rejects a value out of range.
        return ipaddress.IPv6Address(value).compressed
    return socket.inet_ntop(socket.AF_INET6, value.to_bytes(16, "big"))


def parse_cidr(text: str) -> tuple[int, int]:
    """The address and length of ``address/length`` text, as ``IPv6Network(text,
    strict=False)`` reads it but with bits below the length kept; a bare address is a /128."""
    address, slash, length = text.partition("/")
    plen = 128
    # int() alone would also take " 48", "+48", "4_8" and other scripts' digits.
    if slash and not (length.isascii() and length.isdigit() and (plen := int(length)) <= 128):
        raise ValueError(f"{text!r} has no prefix length from 0 to 128")
    return _address(address), plen


def parse_prefix(text: str, length: int) -> int:
    """The network of ``address/length`` text; any other length, or a bit
    set below it, raises ValueError."""
    network, plen = parse_cidr(text)
    if plen != length or network & ((1 << (128 - length)) - 1):
        raise ValueError(f"{text!r} is not a /{length} network")
    return network


def prefix48_of(address: int) -> int:
    return address & PREFIX48_MASK


def prefix56_of(address: int) -> int:
    return address & PREFIX56_MASK


class LongestPrefixMap:
    """Longest-prefix-match lookup over IPv6 networks of any length, none with host bits set.

    Entries are bucketed by prefix length; a lookup masks the address at each
    populated length, longest first. Fine for offline datasets of the sizes
    we load (a bucket scan is at most 129 dict probes).
    """

    def __init__(self) -> None:
        self._by_len: dict[int, dict[int, object]] = {}
        self._lens_desc: list[int] = []

    @classmethod
    def load(cls, path: str, what: str, width: int, value) -> LongestPrefixMap:
        """A table of the ``prefix,...`` rows in ``path``: each row's stripped
        fields after the prefix become ``value(*fields)``."""
        table = cls()

        def insert(row: list[str]) -> None:
            prefix, *fields = (f.strip() for f in row)
            table.insert(prefix, value(*fields))

        table_rows(path, what, width, insert)
        return table

    def insert(self, cidr: str, value: object) -> None:
        network, plen = parse_cidr(cidr)
        if network & ((1 << (128 - plen)) - 1):
            raise ValueError(f"{cidr!r} has host bits set")
        bucket = self._by_len.get(plen)
        if bucket is None:
            bucket = self._by_len[plen] = {}
            self._lens_desc = sorted(self._by_len, reverse=True)
        bucket[network] = value

    def lookup(self, address: int) -> object | None:
        for plen in self._lens_desc:
            mask = ((1 << plen) - 1) << (128 - plen)  # 0 for the default route
            hit = self._by_len[plen].get(address & mask)
            if hit is not None:
                return hit
        return None
