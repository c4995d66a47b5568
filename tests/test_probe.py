import errno
import io
import random
import socket
import struct
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_host, make_net, make_scenario, make_subnet
from resiscan.addrs import parse_address
from resiscan.probe import (
    ICMP6_DEST_UNREACH,
    ICMP6_ECHO_REPLY,
    ICMP6_ECHO_REQUEST,
    KIND_DEST_UNREACH,
    KIND_ECHO_REPLY,
    KIND_OTHER,
    SEND_TRIES,
    TOKEN_LEN,
    IcmpEvent,
    LiveTransport,
    RateLimiter,
    ResponseRecord,
    build_echo_request,
    encode_token,
    parse_icmp6_packet,
    read_response_log,
    run_scan,
    validate_token,
    write_response_log,
)
from resiscan.simnet import SimTransport
from resiscan.targetgen import build_plan

SECRET = b"\x01\x02\x03\x04\x05\x06\x07\x08"
CONTACT_URL = "https://scan.example/opt-out"


class TestToken:
    def test_roundtrip(self):
        target = parse_address("2001:db8:1:200::7")
        ident, seq, payload = encode_token(target, SECRET)
        assert len(payload) == TOKEN_LEN
        assert 0 <= ident <= 0xFFFF and 0 <= seq <= 0xFFFF
        assert validate_token(ident, seq, payload, SECRET) == target
        # A live probe carries the contact URL after the token; only the token is read.
        assert validate_token(ident, seq, payload + CONTACT_URL.encode(), SECRET) == target

    def test_target_recoverable_from_payload_prefix(self):
        target = parse_address("2001:db8::9")
        _, _, payload = encode_token(target, SECRET)
        assert int.from_bytes(payload[:16], "big") == target

    def test_wrong_key_rejected(self):
        target = parse_address("2001:db8::1")
        ident, seq, payload = encode_token(target, SECRET)
        assert validate_token(ident, seq, payload, b"different-secret") is None

    def test_any_tampered_field_rejected(self):
        target = parse_address("2001:db8::1")
        ident, seq, payload = encode_token(target, SECRET)
        assert validate_token(ident ^ 1, seq, payload, SECRET) is None
        assert validate_token(ident, seq ^ 0x8000, payload, SECRET) is None
        flipped = bytes([payload[0] ^ 0x80]) + payload[1:]
        assert validate_token(ident, seq, flipped, SECRET) is None
        assert validate_token(ident, seq, payload[:-1] + b"\x00", SECRET) is None

    def test_known_answers(self):
        # Fixed wire bytes: no change to the token code may move them.
        cases = [
            ("2001:db8:1:200::7", SECRET, 32591, 22867,
             "20010db8000102000000000000000007aed652e384b09f4f"),
            ("2001:db8::1", SECRET, 50650, 6633,
             "20010db8000000000000000000000001744992bb905da97d"),
            ("2001:db8::1", bytes(range(16)), 19861, 54661,
             "20010db800000000000000000000000138a1aed5caf4fa76"),
        ]
        for text, secret, ident, seq, payload_hex in cases:
            target = parse_address(text)
            assert encode_token(target, secret) == (ident, seq, bytes.fromhex(payload_hex))
            assert validate_token(ident, seq, bytes.fromhex(payload_hex), secret) == target

    def test_interleaved_secrets_never_cross_validate(self):
        other = b"another-secret-16"
        targets = [parse_address(f"2001:db8:7:{i:x}00::{i % 10 + 1:x}") for i in range(64)]
        tokens = []
        for t in targets:  # alternate secrets call by call
            tokens.append((t, SECRET, encode_token(t, SECRET)))
            tokens.append((t, other, encode_token(t, other)))
        for t, secret, (ident, seq, payload) in tokens:
            wrong = other if secret == SECRET else SECRET
            assert validate_token(ident, seq, payload, wrong) is None
            assert validate_token(ident, seq, payload, secret) == t

    def test_short_payload_rejected(self):
        assert validate_token(0, 0, b"short", SECRET) is None
        assert validate_token(0, 0, b"", SECRET) is None

    def test_forgery_acceptance_below_one_in_a_million(self):
        # 10^6 adversarial events that never saw the key: none may validate.
        rng = random.Random(2024)
        real_target = parse_address("2001:db8:5:100::1")
        accepted = 0
        trials = 1_000_000
        target_bytes = real_target.to_bytes(16, "big")
        for i in range(trials):
            if i % 2 == 0:
                payload = rng.getrandbits(TOKEN_LEN * 8).to_bytes(TOKEN_LEN, "big")
            else:
                # Plausible forgery: correct target, guessed MAC.
                payload = target_bytes + rng.getrandbits(64).to_bytes(8, "big")
            if validate_token(rng.getrandbits(16), rng.getrandbits(16), payload, SECRET):
                accepted += 1
        assert accepted / trials < 1e-6


class TestRateLimiter:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0)

    def test_paces_to_target_rate(self):
        limiter = RateLimiter(1000)
        t0 = time.monotonic()
        for _ in range(120):
            limiter.wait()
        elapsed = time.monotonic() - t0
        # 120 sends at 1000 pps: ~0.12 s minus one burst allowance (10 sends).
        assert elapsed >= 0.10
        assert elapsed < 0.35

    def test_burst_credit_is_capped(self):
        limiter = RateLimiter(500)  # burst: 5 sends
        limiter.wait()
        time.sleep(0.1)  # bank far more credit than the burst cap
        t0 = time.monotonic()
        for _ in range(50):
            limiter.wait()
        elapsed = time.monotonic() - t0
        # Only 5 sends may ride the banked credit; the rest are paced.
        assert elapsed >= 0.040


def scan_scenario(scenario, seeds, rng_seed=3, **kw):
    plan = build_plan(seeds, rng_seed)
    transport = SimTransport(scenario)
    log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.2, **kw)
    return plan, transport, log


class RecordingTransport(SimTransport):
    """Keeps every probe as it was handed to ``send``."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.probes = []

    def send(self, dst, ident, seq, payload):
        self.probes.append((dst, ident, seq, payload))
        super().send(dst, ident, seq, payload)


class TestRunScan:
    def test_each_address_sent_once_with_its_token(self, tiny_scenario):
        seeds = [tiny_scenario.nets[0].prefix48, parse_address("2001:db8:11::")]
        plan = build_plan(seeds, 9)
        transport = RecordingTransport(tiny_scenario)
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.2)
        assert log.complete and log.sent == len(transport.probes) == plan.budget
        sent = [dst for dst, _, _, _ in transport.probes]
        assert sent == list(plan.addresses())  # plan order, nothing dropped or added
        assert len(set(sent)) == plan.budget  # one probe per address
        for dst, ident, seq, payload in transport.probes:
            assert (ident, seq, payload) == encode_token(dst, SECRET)

    def test_full_sweep_counts(self, tiny_scenario):
        seeds = [tiny_scenario.nets[0].prefix48]
        plan, transport, log = scan_scenario(tiny_scenario, seeds)
        assert log.complete
        assert log.sent == transport.sent == plan.budget == 2816
        # 3 populated /56s answer all 11 probes each; the rest are silent.
        assert len(log.records) == 33
        assert log.spurious == 0

    def test_every_response_maps_to_a_probed_target(self, tiny_scenario):
        seeds = [tiny_scenario.nets[0].prefix48]
        plan, _, log = scan_scenario(tiny_scenario, seeds)
        probed = {t.address for t in plan}
        assert all(rec.probed_target in probed for rec in log.records)

    def test_expected_reply_mix(self, tiny_scenario):
        seeds = [tiny_scenario.nets[0].prefix48]
        _, _, log = scan_scenario(tiny_scenario, seeds)
        by_kind = {}
        for rec in log.records:
            by_kind.setdefault(rec.kind, []).append(rec)
        # allow subnet: 2 host replies; aliased subnet: 11 self replies.
        assert len(by_kind[KIND_ECHO_REPLY]) == 13
        # 9 unassigned probes in the allow subnet (code 3) + 11 denied (code 1).
        unreach = by_kind[KIND_DEST_UNREACH]
        assert len(unreach) == 20
        assert sum(1 for r in unreach if r.icmp_code == 1) == 11
        assert sum(1 for r in unreach if r.icmp_code == 3) == 9

    def test_forged_injections_counted_spurious(self, tiny_scenario):
        seeds = [tiny_scenario.nets[0].prefix48]
        plan = build_plan(seeds, 3)
        transport = SimTransport(tiny_scenario)
        for i in range(5):
            transport.inject(
                IcmpEvent(
                    source=parse_address("2001:db8:10:500::1"),
                    icmp_type=ICMP6_ECHO_REPLY,
                    icmp_code=0,
                    hop_limit=60,
                    ident=i,
                    seq=i,
                    payload=b"\x00" * TOKEN_LEN,
                    timestamp_us=1,
                )
            )
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.2)
        assert log.spurious == 5
        assert len(log.records) == 33

    def test_valid_token_but_wrong_quote_rejected(self, tiny_scenario):
        # An error that quotes a different destination than its token claims
        # is inconsistent and must be dropped.
        seeds = [tiny_scenario.nets[0].prefix48]
        plan = build_plan(seeds, 3)
        transport = SimTransport(tiny_scenario)
        target = parse_address("2001:db8:10:500::1")
        ident, seq, payload = encode_token(target, SECRET)
        transport.inject(
            IcmpEvent(
                source=parse_address("3fff:64:0:1::1"),
                icmp_type=ICMP6_DEST_UNREACH,
                icmp_code=1,
                hop_limit=60,
                ident=ident,
                seq=seq,
                payload=payload,
                quoted_target=target + 1,
                timestamp_us=1,
            )
        )
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.2)
        assert log.spurious == 1

    def test_send_failure_aborts_with_partial_log(self, tiny_scenario):
        class FlakyTransport(SimTransport):
            def send(self, dst, ident, seq, payload):
                if self.sent >= 2000:
                    raise OSError("ENOBUFS")
                super().send(dst, ident, seq, payload)

        seeds = [tiny_scenario.nets[0].prefix48]
        plan = build_plan(seeds, 3)
        _, _, full = scan_scenario(tiny_scenario, seeds)
        first = {t.address for _, t in zip(range(2000), plan)}
        t0 = time.monotonic()
        log = run_scan(plan.addresses(), FlakyTransport(tiny_scenario), SECRET, quiescence_s=30)
        assert time.monotonic() - t0 < 2.0
        assert not log.complete
        assert log.sent == 2000
        # Replies queued before the failure, including those past the last
        # periodic drain at 1024 sends, all survive.
        expected = [r for r in full.records if r.probed_target in first]
        assert len(expected) > 0
        assert log.records == expected

    @pytest.mark.parametrize(
        "failing_poll, sent, drained_before",
        [(2, 2048, 1024), (3, 2816, 2048)],
        ids=["while-sending", "in-quiescence"],
    )
    def test_poll_failure_returns_partial_log(
        self, tiny_scenario, failing_poll, sent, drained_before
    ):
        class FailingPoll(SimTransport):
            polls = 0

            def poll(self, max_wait):
                self.polls += 1
                if self.polls >= failing_poll:
                    raise OSError("ENETDOWN")
                return super().poll(max_wait)

        seeds = [tiny_scenario.nets[0].prefix48]
        plan = build_plan(seeds, 3)
        _, _, full = scan_scenario(tiny_scenario, seeds)
        transport = FailingPoll(tiny_scenario)
        t0 = time.monotonic()
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=30)
        assert time.monotonic() - t0 < 2.0
        assert not log.complete
        assert log.sent == sent
        assert transport.polls == failing_poll  # never polled again after the failure
        first = {t.address for _, t in zip(range(drained_before), plan)}
        expected = [r for r in full.records if r.probed_target in first]
        assert 0 < len(expected) < len(full.records)
        assert log.records == expected


    def test_sim_scan_ends_without_waiting_out_quiescence(self, tiny_scenario):
        seeds = [tiny_scenario.nets[0].prefix48]
        _, _, short = scan_scenario(tiny_scenario, seeds)
        t0 = time.monotonic()
        addresses = build_plan(seeds, 3).addresses()
        log = run_scan(addresses, SimTransport(tiny_scenario), SECRET, quiescence_s=30)
        assert time.monotonic() - t0 < 2.0
        assert log.complete
        assert len(log.records) == 33
        assert log.records == short.records

    def test_late_reply_kept_and_quiet_time_counted_from_it(self, tiny_scenario):
        class LateTransport:
            """Answers the first probe 0.1 s after the last send; never drained."""

            def __init__(self):
                self.first = None
                self.due = None
                self.delivered_at = None

            def send(self, dst, ident, seq, payload):
                if self.first is None:
                    self.first = IcmpEvent(dst, ICMP6_ECHO_REPLY, 0, 60, ident, seq, payload)
                self.due = time.monotonic() + 0.1

            def poll(self, max_wait):
                if self.delivered_at is None:
                    time.sleep(max(0.0, min(max_wait, self.due - time.monotonic())))
                    if time.monotonic() >= self.due:
                        self.delivered_at = time.monotonic()
                        return [self.first]
                else:
                    time.sleep(max_wait)
                return []

            def drained(self):
                return False

        plan = build_plan([tiny_scenario.nets[0].prefix48], 3)
        transport = LateTransport()
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.3)
        done = time.monotonic()
        assert log.complete
        assert [r.probed_target for r in log.records] == [next(iter(plan)).address]
        assert done - transport.delivered_at >= 0.3
        assert done - transport.delivered_at < 1.5

    def test_progress_callback_fires(self):
        # 100k+ probes would be slow; shrink the reporting interval indirectly
        # by scanning 37 seeds of nothing (budget > 100_000).
        net = make_net("2001:db8:77::", [make_subnet(0, hosts=[make_host(1)])])
        scenario = make_scenario([net])
        seeds = [net.prefix48 + (i << 80) for i in range(37)]
        calls = []
        plan = build_plan(seeds, 1)
        run_scan(
            plan.addresses(), SimTransport(scenario), SECRET, quiescence_s=0.05,
            progress=calls.append,
        )
        assert calls == [100_000]


class FaultyTransport(SimTransport):
    """Raises ``faults[dst]`` (a list of errors, first one next) on a send to dst."""

    def __init__(self, scenario, faults):
        super().__init__(scenario)
        self.faults = faults
        self.tries = 0

    def send(self, dst, ident, seq, payload):
        self.tries += 1
        pending = self.faults.get(dst)
        if pending:
            raise pending.pop(0)
        super().send(dst, ident, seq, payload)


def _oserror(code):
    return OSError(code, "injected")


class TestSendErrnoPolicy:
    @pytest.fixture()
    def plan(self, tiny_scenario):
        return build_plan([tiny_scenario.nets[0].prefix48], 3)

    @pytest.fixture()
    def full(self, tiny_scenario, plan):
        return run_scan(plan.addresses(), SimTransport(tiny_scenario), SECRET, quiescence_s=0.2)

    @staticmethod
    def _answered(log):
        return {(r.probed_target, r.source, r.kind) for r in log.records}

    def test_unreachable_destinations_counted_and_skipped(self, tiny_scenario, plan, full):
        responsive = sorted({r.probed_target for r in full.records})
        codes = [errno.ENETUNREACH, errno.EHOSTUNREACH, errno.EHOSTUNREACH, errno.EADDRNOTAVAIL]
        faults = {dst: [_oserror(code)] for dst, code in zip(responsive, codes)}
        transport = FaultyTransport(tiny_scenario, faults)
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.2)
        assert log.complete
        assert log.send_errors == {"ENETUNREACH": 1, "EHOSTUNREACH": 2, "EADDRNOTAVAIL": 1}
        assert log.sent == transport.sent == plan.budget - 4
        skipped = set(responsive[:4])
        assert self._answered(log) == {a for a in self._answered(full) if a[0] not in skipped}

    def test_full_buffer_retries_the_same_probe(self, tiny_scenario, plan, full):
        dst = next(iter(plan)).address
        faults = {dst: [_oserror(errno.ENOBUFS), BlockingIOError(errno.EAGAIN, "full")]}
        transport = FaultyTransport(tiny_scenario, faults)
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=0.2)
        assert log.complete
        assert log.send_errors == {}
        assert transport.tries == plan.budget + 2
        assert log.sent == transport.sent == plan.budget  # each probe left once
        assert log.records == full.records

    def test_full_buffer_past_the_cap_aborts(self, tiny_scenario, plan):
        dst = [t.address for t in plan][1500]
        faults = {dst: [_oserror(errno.ENOBUFS) for _ in range(SEND_TRIES + 1)]}
        transport = FaultyTransport(tiny_scenario, faults)
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=30)
        assert not log.complete
        assert log.sent == 1500
        assert transport.tries == 1500 + SEND_TRIES
        assert len(faults[dst]) == 1

    @pytest.mark.parametrize(
        "code", [errno.EPERM, errno.EINVAL, None], ids=["EPERM", "EINVAL", "no-errno"]
    )
    def test_other_errors_abort_at_once(self, tiny_scenario, plan, code):
        dst = [t.address for t in plan][100]
        error = _oserror(code) if code is not None else OSError("socket gone")
        transport = FaultyTransport(tiny_scenario, {dst: [error]})
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=30)
        assert not log.complete
        assert log.sent == 100
        assert transport.tries == 101
        assert log.send_errors == {}


    def test_failed_abort_drain_keeps_what_was_validated(self, tiny_scenario, plan, full):
        # A send fails with EPERM, and the drain of what is pending fails too:
        # the scan still ends, with the replies the periodic drain validated.
        class PollFailsAfterFirst(FaultyTransport):
            polls = 0

            def poll(self, max_wait):
                self.polls += 1
                if self.polls > 1:
                    raise OSError(errno.ENETDOWN, "injected")
                return super().poll(max_wait)

        dst = [t.address for t in plan][1500]
        transport = PollFailsAfterFirst(tiny_scenario, {dst: [_oserror(errno.EPERM)]})
        log = run_scan(plan.addresses(), transport, SECRET, quiescence_s=30)
        assert not log.complete
        assert (log.sent, transport.polls) == (1500, 2)
        first = {t.address for _, t in zip(range(1024), plan)}  # drained at 1024 sends
        expected = [r for r in full.records if r.probed_target in first]
        assert 0 < len(expected) < len(full.records)
        assert log.records == expected


class TestResponseLog:
    def test_roundtrip_all_kinds(self):
        records = [
            ResponseRecord(
                probed_target=parse_address("2001:db8::1"),
                source=parse_address("2001:db8::1"),
                kind=KIND_ECHO_REPLY,
                icmp_type=ICMP6_ECHO_REPLY,
                icmp_code=0,
                hop_limit=57,
                timestamp_us=12345,
            ),
            ResponseRecord(
                probed_target=parse_address("2001:db8::2"),
                source=parse_address("3fff:64::9"),
                kind=KIND_DEST_UNREACH,
                icmp_type=ICMP6_DEST_UNREACH,
                icmp_code=1,
                hop_limit=250,
                timestamp_us=99,
            ),
            ResponseRecord(
                probed_target=parse_address("2001:db8::3"),
                source=parse_address("3fff:64::a"),
                kind=KIND_OTHER,
                icmp_type=3,
                icmp_code=0,
                hop_limit=61,
                timestamp_us=7,
            ),
        ]
        buf = io.StringIO()
        write_response_log(records, buf)
        buf.seek(0)
        assert read_response_log(buf) == records

    def test_echo_reply_line_has_empty_code(self):
        rec = ResponseRecord(
            probed_target=1, source=1, kind=KIND_ECHO_REPLY,
            icmp_type=ICMP6_ECHO_REPLY, icmp_code=0, hop_limit=64, timestamp_us=0,
        )
        buf = io.StringIO()
        write_response_log([rec], buf)
        assert buf.getvalue() == "::1,::1,echo_reply,,64,0\n"

    def test_comments_and_blanks_skipped(self):
        buf = io.StringIO("# header\n\n::1,::1,echo_reply,,64,0\n")
        assert len(read_response_log(buf)) == 1

    def test_malformed_line_raises_with_lineno(self):
        with pytest.raises(ValueError, match="line 1"):
            read_response_log(io.StringIO("only,three,fields\n"))
        with pytest.raises(ValueError, match="unknown kind"):
            read_response_log(io.StringIO("::1,::1,mystery,,64,0\n"))

    @pytest.mark.parametrize("hop_limit", [256, 300, -1])
    def test_hop_limit_outside_a_byte_raises_with_lineno(self, hop_limit):
        text = f"# header\n::1,::1,echo_reply,,64,0\n::2,::2,echo_reply,,{hop_limit},0\n"
        message = f"^response log line 3: hop limit out of range: {hop_limit}$"
        with pytest.raises(ValueError, match=message):
            read_response_log(io.StringIO(text))


class TestPacketCodec:
    def test_echo_reply_parses(self):
        target = parse_address("2001:db8::5")
        ident, seq, payload = encode_token(target, SECRET)
        wire = struct.pack("!BBHHH", ICMP6_ECHO_REPLY, 0, 0, ident, seq) + payload
        ev = parse_icmp6_packet(wire, source=target, hop_limit=55, ts_us=1)
        assert ev is not None
        assert (ev.icmp_type, ev.ident, ev.seq) == (ICMP6_ECHO_REPLY, ident, seq)
        assert ev.payload == payload
        assert ev.quoted_target is None
        assert validate_token(ev.ident, ev.seq, ev.payload, SECRET) == target

    def test_error_recovers_quote(self):
        target = parse_address("2001:db8:1:200::3")
        source = parse_address("2001:db8:99::1")
        ident, seq, payload = encode_token(target, SECRET)
        inner_ip = (
            bytes([0x60, 0, 0, 0])
            + struct.pack("!HBB", 8 + len(payload), 58, 64)
            + source.to_bytes(16, "big")
            + target.to_bytes(16, "big")
        )
        inner_icmp = build_echo_request(ident, seq, payload)
        wire = struct.pack("!BBHI", ICMP6_DEST_UNREACH, 1, 0, 0) + inner_ip + inner_icmp
        ev = parse_icmp6_packet(wire, source=parse_address("3fff::1"), hop_limit=200, ts_us=2)
        assert ev is not None
        assert ev.quoted_target == target
        assert validate_token(ev.ident, ev.seq, ev.payload, SECRET) == target

    def test_error_quoting_non_echo_ignored(self):
        inner_ip = bytes(8) + bytes(16) + bytes(16)
        inner_payload = bytes([6]) + bytes(7)  # quoted TCP, not our echo
        wire = struct.pack("!BBHI", ICMP6_DEST_UNREACH, 1, 0, 0) + inner_ip + inner_payload
        assert parse_icmp6_packet(wire, 0, 64, 0) is None

    def test_truncated_packets_ignored(self):
        assert parse_icmp6_packet(b"", 0, 64, 0) is None
        assert parse_icmp6_packet(bytes([1, 0, 0]), 0, 64, 0) is None
        wire = struct.pack("!BBHI", ICMP6_DEST_UNREACH, 1, 0, 0) + bytes(20)
        assert parse_icmp6_packet(wire, 0, 64, 0) is None

    def test_unknown_informational_type_ignored(self):
        wire = struct.pack("!BBHHH", 135, 0, 0, 0, 0) + bytes(24)  # neighbor solicit
        assert parse_icmp6_packet(wire, 0, 64, 0) is None

    def test_missing_hop_limit_drops_packet(self):
        target = parse_address("2001:db8::5")
        ident, seq, payload = encode_token(target, SECRET)
        wire = struct.pack("!BBHHH", ICMP6_ECHO_REPLY, 0, 0, ident, seq) + payload
        assert parse_icmp6_packet(wire, source=target, hop_limit=None, ts_us=1) is None
        assert parse_icmp6_packet(wire, source=target, hop_limit=0, ts_us=1) is not None

    @given(
        data=st.binary(max_size=128),
        hop_limit=st.none() | st.integers(0, 255),
        itype=st.integers(0, 127),
        quoted_ip=st.binary(min_size=40, max_size=40),
        quoted_echo=st.binary(min_size=7, max_size=40),
    )
    def test_hostile_bytes_never_raise(self, data, hop_limit, itype, quoted_ip, quoted_echo):
        # Arbitrary bytes, and arbitrary error messages quoting an echo
        # request: parsing never raises, and every error event carries the
        # quoted destination and the ident/seq of the quoted echo header.
        error = bytes([itype]) + bytes(7) + quoted_ip + bytes([ICMP6_ECHO_REQUEST]) + quoted_echo
        assert (parse_icmp6_packet(error, 1, hop_limit, 0) is None) == (hop_limit is None)
        for wire in (data, error):
            ev = parse_icmp6_packet(wire, 1, hop_limit, 0)
            if ev is None or wire[0] >= 128:
                continue
            assert ev.hop_limit == hop_limit
            assert ev.quoted_target == int.from_bytes(wire[32:48], "big")
            assert wire[48] == ICMP6_ECHO_REQUEST
            assert (ev.ident, ev.seq) == struct.unpack_from("!HH", wire, 52)

    def test_echo_request_wire_shape(self):
        pkt = build_echo_request(0x1234, 0x5678, b"abc")
        assert pkt[0] == ICMP6_ECHO_REQUEST
        assert pkt[4:8] == bytes.fromhex("12345678")
        assert pkt.endswith(b"abc")


class TestLivePoll:
    """LiveTransport.poll over a UDP socket on ::1 standing in for the raw one."""

    @staticmethod
    def _transport(recv_hop_limit):
        rx = socket.socket(socket.AF_INET6, socket.SOCK_DGRAM)
        rx.bind(("::1", 0))
        rx.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_RECVHOPLIMIT, int(recv_hop_limit))
        rx.setblocking(False)
        transport = LiveTransport.__new__(LiveTransport)
        transport._sock = rx
        return transport

    @staticmethod
    def _send_replies(transport, n):
        with socket.socket(socket.AF_INET6, socket.SOCK_DGRAM) as tx:
            for i in range(n):
                target = parse_address("2001:db8::1") + i
                ident, seq, payload = encode_token(target, SECRET)
                wire = struct.pack("!BBHHH", ICMP6_ECHO_REPLY, 0, 0, ident, seq) + payload
                tx.sendto(wire, transport._sock.getsockname())

    def test_nonblocking_poll_returns_every_pending_reply(self):
        transport = self._transport(recv_hop_limit=True)
        try:
            assert transport.poll(0) == []
            self._send_replies(transport, 5)
            events = transport.poll(1.0)
            events += transport.poll(0)  # in case the first wake-up saw only some
            assert len(events) == 5
            assert all(ev.hop_limit == 64 for ev in events)  # loopback default
            assert all(validate_token(ev.ident, ev.seq, ev.payload, SECRET) for ev in events)
            assert not transport.drained()
        finally:
            transport.close()

    def test_reply_without_hop_limit_is_dropped(self):
        transport = self._transport(recv_hop_limit=False)
        try:
            self._send_replies(transport, 1)
            assert transport.poll(1.0) == []
        finally:
            transport.close()


class TestLiveSend:
    """LiveTransport.send into a stub socket, so no raw socket is needed."""

    class _StubSocket:
        def __init__(self):
            self.sent = []

        def sendto(self, packet, address):
            self.sent.append((packet, address))

    def _transport(self, contact_url: str = "") -> LiveTransport:
        transport = LiveTransport.__new__(LiveTransport)
        transport._sock = self._StubSocket()
        transport._contact = contact_url.encode()
        return transport

    @pytest.mark.parametrize(
        "text", ["2001:db8::1", "2001:db8:1:200:5f11:fc94:8c6f:1a58", "::ffff:192.0.2.1", "::1"]
    )
    def test_packet_unchanged_and_destination_parses_back(self, text):
        transport = self._transport()
        dst = parse_address(text)
        ident, seq, payload = encode_token(dst, SECRET)
        transport.send(dst, ident, seq, payload)
        [(packet, (host, port, flowinfo, scope))] = transport._sock.sent
        assert packet == build_echo_request(ident, seq, payload)
        assert parse_address(host) == dst
        assert (port, flowinfo, scope) == (0, 0, 0)

    def test_contact_url_follows_token(self):
        transport = self._transport(CONTACT_URL)
        dst = parse_address("2001:db8::1")
        ident, seq, payload = encode_token(dst, SECRET)
        transport.send(dst, ident, seq, payload)
        [(packet, _address)] = transport._sock.sent
        assert packet == build_echo_request(ident, seq, payload + CONTACT_URL.encode())
        assert packet[8:] == payload + CONTACT_URL.encode()
