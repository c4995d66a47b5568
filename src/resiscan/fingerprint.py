"""Device fingerprinting over grab results.

Four deliberately narrow matchers, each tied to evidence a single response
can carry: HP printers self-describe (model, serial, build) in their Server
header; certain camera DVR login pages embed appname="cameraNewConfig";
smart-light panels expose a firmware-upload link on their landing page; and
one family of carrier gateways presents a TLS certificate whose subject CN
names the vendor's root CA. Separately, EUI-64-shaped interface IDs leak the
device MAC, which an OUI registry turns into a vendor.

Serial numbers dedupe HP devices: the same printer reachable at several
addresses counts once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .csvio import read_rows, table_rows, write_rows
from .grab import OUTCOME_RESPONDED, GrabRecord

NOKIA_ROOT_CN = "Nokia DHBU Root CA"
DAHUA_MARKER = b'appname="cameraNewConfig"'

KIND_HP_PRINTER = "hp_printer"
KIND_DAHUA_CAMERA = "dahua_camera"
KIND_NANOLEAF = "nanoleaf_panel"
KIND_NOKIA_GATEWAY = "nokia_gateway"

# "HP HTTP Server; <model>; Serial Number: <serial>[; Built: <date> {<build>}]"
_HP_RE = re.compile(
    r"^HP HTTP Server;\s*(?P<model>[^;]+?)\s*;\s*Serial Number:\s*(?P<serial>[^;]+?)\s*"
    r"(?:;\s*Built:\s*(?P<build>.+?)\s*)?$"
)

_ELEMENT_RE = re.compile(
    rb"<a\b[^>]*>.{0,300}?</a>|<form\b[^>]*>", re.IGNORECASE | re.DOTALL
)
_FIRMWARE_RE = re.compile(rb"firmware", re.IGNORECASE)
_UPLOAD_RE = re.compile(rb"upload|upgrade", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class HpHeader:
    model: str
    serial: str
    build: str | None


@dataclass(frozen=True, slots=True)
class HpPrinterRecord:
    address: str
    model: str
    serial: str
    build: str | None


@dataclass(frozen=True, slots=True)
class FingerprintHit:
    address: str
    kind: str
    evidence: str


def parse_hp_header(server_header: str | None) -> HpHeader | None:
    """Parse the HP printer Server header; None when it isn't one.

    The serial is mandatory - a header without it is not treated as a
    printer - while the Built clause is optional and kept verbatim
    (build date plus braced build number) when present.
    """
    if not server_header:
        return None
    m = _HP_RE.match(server_header.strip())
    if m is None:
        return None
    return HpHeader(m.group("model"), m.group("serial"), m.group("build"))


def collect_hp_printers(grabs: Iterable[GrabRecord]) -> list[HpPrinterRecord]:
    out = []
    for g in grabs:
        if g.outcome != OUTCOME_RESPONDED:
            continue
        parsed = parse_hp_header(g.http_server_header)
        if parsed is not None:
            out.append(HpPrinterRecord(g.address, parsed.model, parsed.serial, parsed.build))
    return out


def dedupe_printers(records: Iterable[HpPrinterRecord]) -> list[HpPrinterRecord]:
    """One record per serial number (first sighting wins), input order kept."""
    seen: set[str] = set()
    unique = []
    for r in records:
        if r.serial in seen:
            continue
        seen.add(r.serial)
        unique.append(r)
    return unique


def extract_eui64(address: int) -> str | None:
    """Recover the MAC from an EUI-64 interface ID, or None.

    The IID must carry the ff:fe infix at bytes 4-5 (0-indexed 3 and 4);
    undoing the universal/local bit flip on the first byte yields the MAC.
    """
    iid = (address & ((1 << 64) - 1)).to_bytes(8, "big")
    if iid[3] != 0xFF or iid[4] != 0xFE:
        return None
    mac = bytes([iid[0] ^ 0x02, iid[1], iid[2], iid[5], iid[6], iid[7]])
    return ":".join(f"{b:02x}" for b in mac)


def load_oui_db(path: str) -> dict[str, str]:
    """Read ``xx:xx:xx,vendor name`` registration rows."""
    return dict(table_rows(path, "oui db", 2, lambda row: (row[0].strip().lower(), row[1].strip())))


def oui_vendor(mac: str, db: dict[str, str]) -> str | None:
    """Vendor registered for the MAC's high 24 bits."""
    return db.get(mac.lower()[:8])


def match_fingerprints(g: GrabRecord) -> list[FingerprintHit]:
    """All fingerprint hits supported by one grab record."""
    hits: list[FingerprintHit] = []
    if g.outcome != OUTCOME_RESPONDED:
        return hits
    hp = parse_hp_header(g.http_server_header)
    if hp is not None:
        hits.append(FingerprintHit(g.address, KIND_HP_PRINTER, g.http_server_header or ""))
    if DAHUA_MARKER in g.banner:
        hits.append(FingerprintHit(g.address, KIND_DAHUA_CAMERA, DAHUA_MARKER.decode()))
    for element in _ELEMENT_RE.finditer(g.banner):
        chunk = element.group(0)
        if _FIRMWARE_RE.search(chunk) and _UPLOAD_RE.search(chunk):
            hits.append(
                FingerprintHit(
                    g.address, KIND_NANOLEAF, chunk[:200].decode("latin-1", "replace")
                )
            )
            break
    if g.tls_subject_cn == NOKIA_ROOT_CN:
        hits.append(FingerprintHit(g.address, KIND_NOKIA_GATEWAY, g.tls_subject_cn))
    return hits


def fingerprint_records(grabs: Iterable[GrabRecord]) -> list[FingerprintHit]:
    hits: list[FingerprintHit] = []
    for g in grabs:
        hits.extend(match_fingerprints(g))
    return hits


_FINGERPRINT_FIELDS = ("address", "kind", "evidence")


def write_fingerprints(hits: Iterable[FingerprintHit], fh) -> None:
    ordered = sorted(hits, key=lambda h: (h.address, h.kind))
    write_rows(fh, ((h.address, h.kind, h.evidence) for h in ordered), header=_FINGERPRINT_FIELDS)


def read_fingerprints(fh) -> list[FingerprintHit]:
    rows = read_rows(fh, "fingerprint file", 3, _FINGERPRINT_FIELDS)
    return [FingerprintHit(*row) for row in rows]
