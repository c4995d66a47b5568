import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resiscan.addrs import PREFIX48_MASK, SUBNET_SHIFT, parse_address, prefix56_of
from resiscan.classify import (
    LABEL_EXTERNAL,
    LABEL_INTERNAL,
    ClassifiedAddress,
    classify_log,
    hop_distance,
    infer_initial_hop_limit,
    pair_deltas,
    read_classification,
    write_classification,
)
from resiscan.probe import (
    ICMP6_DEST_UNREACH,
    ICMP6_ECHO_REPLY,
    KIND_DEST_UNREACH,
    KIND_ECHO_REPLY,
    KIND_OTHER,
    ResponseRecord,
)
from resiscan.targetgen import alias_target_for

NET56 = parse_address("2001:db8:1:500::")
WAN = parse_address("3fff:64:0:1::9")
PLAN = {"seeds": [NET56 & PREFIX48_MASK], "rng_seed": 1}  # the plan that probed NET56


def reply(target, source=None, hop=60, kind=KIND_ECHO_REPLY, code=0, itype=None, ts=0):
    if itype is None:
        itype = ICMP6_ECHO_REPLY if kind == KIND_ECHO_REPLY else ICMP6_DEST_UNREACH
    return ResponseRecord(
        probed_target=target,
        source=source if source is not None else target,
        kind=kind,
        icmp_type=itype,
        icmp_code=code,
        hop_limit=hop,
        timestamp_us=ts,
    )


def plateau_oracle(received):
    # Independent formulation: smallest common initial value >= received.
    return min(v for v in (64, 128, 255) if v >= received)


class TestHopLimitInference:
    def test_textbook_example(self):
        initial, distance = hop_distance(118)
        assert initial == 128
        assert distance == 10

    def test_all_byte_values_match_plateau_oracle(self):
        for received in range(256):
            assert infer_initial_hop_limit(received) == plateau_oracle(received)
            initial, distance = hop_distance(received)
            assert distance == plateau_oracle(received) - received
            assert distance >= 0

    def test_boundaries(self):
        assert infer_initial_hop_limit(64) == 64
        assert infer_initial_hop_limit(65) == 128
        assert infer_initial_hop_limit(128) == 128
        assert infer_initial_hop_limit(129) == 255
        assert infer_initial_hop_limit(255) == 255

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            infer_initial_hop_limit(256)
        with pytest.raises(ValueError):
            infer_initial_hop_limit(-1)


def aliased(records) -> bool:
    return classify_log(records, **PLAN).aliased_nets == {NET56}


class TestDetectAliased:
    """A /56 is aliased when its alias probe draws an echo from itself."""

    def test_alias_echo_from_itself_triggers(self):
        alias_addr = NET56 | (0x55 << 64) | 0xDEADBEEF
        assert aliased([reply(alias_addr)])

    def test_low_iid_echo_does_not_trigger(self):
        assert not aliased([reply(NET56 | n) for n in range(1, 11)])

    def test_alias_error_does_not_trigger(self):
        alias_addr = NET56 | 0xDEADBEEF
        assert not aliased([reply(alias_addr, source=WAN, kind=KIND_DEST_UNREACH, code=3)])

    def test_alias_echo_from_other_source_does_not_trigger(self):
        alias_addr = NET56 | 0xDEADBEEF
        assert not aliased([reply(alias_addr, source=alias_addr + 1)])


class TestClassifyLog:
    def test_internal_and_external_split(self):
        records = [
            reply(NET56 | 1, hop=60),  # internal, 64-60=4
            reply(NET56 | 3, source=WAN, kind=KIND_DEST_UNREACH, code=1, hop=252),
            reply(NET56 | 0xABCDEF, source=WAN, kind=KIND_DEST_UNREACH, code=3, hop=252),
        ]
        result = classify_log(records, **PLAN)
        internal = [c for c in result.classified if c.label == LABEL_INTERNAL]
        external = [c for c in result.classified if c.label == LABEL_EXTERNAL]
        assert [c.address for c in internal] == [NET56 | 1]
        assert internal[0].distance == 4
        assert internal[0].initial_hop_limit == 64
        assert internal[0].net56 == NET56
        assert internal[0].iid == 1
        # Both errors come from the same WAN address: deduplicated.
        assert [c.address for c in external] == [WAN]
        assert external[0].distance == 3
        assert not result.aliased_nets and not result.anomalous

    def test_aliased_net_contributes_nothing(self):
        alias_addr = NET56 | (0x7 << 64) | 0xFEED
        records = [
            reply(NET56 | n) for n in range(1, 11)
        ] + [reply(alias_addr)]
        result = classify_log(records, **PLAN)
        assert result.aliased_nets == {NET56}
        assert result.classified == []

    def test_net_without_alias_outcome_is_flagged(self):
        result = classify_log([reply(NET56 | 1)], **PLAN)
        assert result.missing_alias_nets == {NET56}
        # Still classified: a missing alias outcome flags, not discards.
        assert len([c for c in result.classified if c.label == LABEL_INTERNAL]) == 1

    def test_echo_from_wrong_source_is_anomalous(self):
        rec = reply(NET56 | 2, source=NET56 | 9)
        result = classify_log(
            [rec, reply(NET56 | 0xBEEF, source=WAN, kind=KIND_DEST_UNREACH)], **PLAN
        )
        assert result.anomalous == [rec]
        assert [c for c in result.classified if c.label == LABEL_INTERNAL] == []

    def test_error_from_probed_source_is_anomalous(self):
        # The "gateway" claims to be one of our probed low-IID targets.
        rec = reply(NET56 | 5, source=NET56 | 1, kind=KIND_DEST_UNREACH, code=1)
        seeds = [NET56 & ~((1 << 80) - 1)]
        result = classify_log([rec], seeds=seeds, rng_seed=1)
        assert result.anomalous == [rec]
        assert result.classified == []

    def test_seed_reconstruction_catches_cross_net_collision(self):
        # Error source is a probed address in a DIFFERENT /56 that never
        # appears in this log; only seed reconstruction can notice.
        seeds = [NET56 & ~((1 << 80) - 1)]
        other_net_target = (NET56 | (0x9 << SUBNET_SHIFT)) | 2
        rec = reply(NET56 | 4, source=other_net_target, kind=KIND_DEST_UNREACH, code=3)
        with_seeds = classify_log([rec], seeds=seeds, rng_seed=1)
        assert with_seeds.anomalous == [rec]

    def test_seed_reconstruction_catches_alias_collision(self):
        seeds = [NET56 & ~((1 << 80) - 1)]
        rng_seed = 77
        alias_addr = alias_target_for(NET56, rng_seed)
        rec = reply(NET56 | 4, source=alias_addr, kind=KIND_DEST_UNREACH, code=3)
        result = classify_log([rec], seeds=seeds, rng_seed=rng_seed)
        assert result.anomalous == [rec]

    def test_other_error_types_classify_external(self):
        rec = reply(NET56 | 6, source=WAN, kind=KIND_OTHER, itype=3, code=0, hop=61)
        result = classify_log([rec], **PLAN)
        ext = [c for c in result.classified if c.label == LABEL_EXTERNAL]
        assert [c.address for c in ext] == [WAN]
        assert ext[0].initial_hop_limit == 64

    def test_informational_chatter_ignored(self):
        rec = reply(NET56 | 6, source=WAN, kind=KIND_OTHER, itype=135, code=0)
        result = classify_log([rec], **PLAN)
        assert result.classified == [] and result.anomalous == []

    def test_internal_dedupe_keeps_first_record(self):
        records = [reply(NET56 | 1, hop=60, ts=1), reply(NET56 | 1, hop=50, ts=2)]
        result = classify_log(records, **PLAN)
        internal = [c for c in result.classified if c.label == LABEL_INTERNAL]
        assert len(internal) == 1
        assert internal[0].distance == 4  # from the hop=60 record

    def test_partition_is_total_and_disjoint(self):
        # Every record lands in exactly one bucket (or is skipped as
        # informational / alias echo); nothing is double-counted.
        alias_net = NET56 | (0xAA << SUBNET_SHIFT)
        records = [
            reply(NET56 | 1),
            reply(NET56 | 2, source=NET56 | 3),  # anomalous
            reply(NET56 | 0xFEED, source=WAN, kind=KIND_DEST_UNREACH, code=3),
            reply(NET56 | 6, source=WAN, kind=KIND_OTHER, itype=135),  # skipped
            reply(alias_net | (5 << 64) | 0xBEEF),  # aliased net
            reply(alias_net | 1),
        ]
        result = classify_log(records, **PLAN)
        n_classified = len(result.classified)
        n_anomalous = len(result.anomalous)
        aliased_records = sum(
            1 for r in records if prefix56_of(r.probed_target) in result.aliased_nets
        )
        skipped_info = 1
        assert n_classified + n_anomalous + aliased_records + skipped_info == len(records)
        assert result.aliased_nets == {alias_net}


class TestPairDeltas:
    def test_cartesian_within_net(self):
        classified = [
            ClassifiedAddress(NET56, NET56 | 1, LABEL_INTERNAL, 64, 5),
            ClassifiedAddress(NET56, NET56 | 2, LABEL_INTERNAL, 128, 6),
            ClassifiedAddress(NET56, WAN, LABEL_EXTERNAL, 255, 5),
            ClassifiedAddress(NET56, WAN + 1, LABEL_EXTERNAL, 255, 4),
        ]
        deltas = pair_deltas(classified)
        assert len(deltas) == 4
        assert sorted(d.delta for d in deltas) == [0, 1, 1, 2]

    def test_no_pairs_across_nets(self):
        other = parse_address("2001:db8:1:900::")
        classified = [
            ClassifiedAddress(NET56, NET56 | 1, LABEL_INTERNAL, 64, 5),
            ClassifiedAddress(other, WAN, LABEL_EXTERNAL, 255, 2),
        ]
        assert pair_deltas(classified) == []

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=5),
        st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=5),
    )
    def test_pair_count_is_product(self, internal_d, external_d):
        classified = [
            ClassifiedAddress(NET56, NET56 | (i + 1), LABEL_INTERNAL, 64, d)
            for i, d in enumerate(internal_d)
        ] + [
            ClassifiedAddress(NET56, WAN + i, LABEL_EXTERNAL, 255, d)
            for i, d in enumerate(external_d)
        ]
        deltas = pair_deltas(classified)
        assert len(deltas) == len(internal_d) * len(external_d)
        for d in deltas:
            assert d.delta == d.internal_distance - d.external_distance


class TestClassificationFile:
    def test_roundtrip_sorted(self):
        classified = [
            ClassifiedAddress(NET56, WAN, LABEL_EXTERNAL, 255, 3),
            ClassifiedAddress(NET56, NET56 | 1, LABEL_INTERNAL, 64, 4),
        ]
        buf = io.StringIO()
        write_classification(classified, buf)
        buf.seek(0)
        back = read_classification(buf)
        assert back == sorted(classified, key=lambda c: (c.net56, c.label, c.address))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "2001:db8:1:500::/56,3fff:64:0:1::9,external,255,3"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError, match="expected 5 fields"):
            read_classification(io.StringIO("a,b,c\n"))
        with pytest.raises(ValueError, match="bad label"):
            read_classification(io.StringIO("2001:db8::/56,::1,sideways,64,0\n"))

    @pytest.mark.parametrize(
        "row",
        [
            "2001:db8::1/99,2001:db8::5,internal,64,3",  # not a /56
            "2001:db8::/48,2001:db8::5,internal,64,3",
            "2001:db8::/garbage,2001:db8::5,internal,64,3",
            "2001:db8::,2001:db8::5,internal,64,3",
            "2001:db8:0:1::/56,2001:db8::5,internal,64,3",  # bits below /56
            "2001:db8::/56,2001:db8:0:100::5,internal,64,3",  # internal outside its /56
        ],
    )
    def test_rejects_row_outside_its_56(self, row):
        with pytest.raises(ValueError, match="classification line 1: "):
            read_classification(io.StringIO(row + "\n"))

    def test_external_address_may_lie_outside_its_56(self):
        row = "2001:db8::/56,3fff:64::9,external,255,3\n"
        (c,) = read_classification(io.StringIO(row))
        assert (c.net56, c.address) == (parse_address("2001:db8::"), parse_address("3fff:64::9"))
