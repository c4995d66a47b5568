import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resiscan import targetgen
from resiscan.addrs import SUBNET_SHIFT, format_address, parse_address, prefix56_of
from resiscan.targetgen import (
    ALIAS_MIN_IID,
    LOW_IIDS_PER_56,
    SUBNETS_PER_48,
    TARGETS_PER_48,
    TARGETS_PER_56,
    PlanError,
    ProbeTarget,
    ScanPlan,
    _least_factor,
    _next_prime,
    _prime_factors,
    alias_target_for,
    build_plan,
    probed_low_iid,
)

SEED48 = parse_address("2001:db8:1::")


def test_counting_constants():
    assert SUBNETS_PER_48 == 256
    assert LOW_IIDS_PER_56 == 10
    assert TARGETS_PER_56 == 11
    assert TARGETS_PER_48 == 256 * 11 == 2816


def test_low_iid_targets_are_the_first_ten_addresses():
    plan = ScanPlan((SEED48,), 1)
    targets = [plan.address_at(i) for i in range(LOW_IIDS_PER_56)]
    assert [t - SEED48 for t in targets] == list(range(1, 11))
    assert [probed_low_iid(t) for t in targets] == list(range(1, 11))
    assert {prefix56_of(t) for t in targets} == {SEED48}


class TestAliasProbe:
    def test_deterministic_per_net_and_seed(self):
        net56 = SEED48 | (7 << SUBNET_SHIFT)
        a = alias_target_for(net56, 99)
        b = alias_target_for(net56, 99)
        assert a == b
        assert alias_target_for(net56, 100) != a

    def test_stays_inside_its_56(self):
        net56 = SEED48 | (0xFE << SUBNET_SHIFT)
        t = ProbeTarget(alias_target_for(net56, 5))
        assert prefix56_of(t.address) == net56
        assert probed_low_iid(t.address) is None

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=2**32))
    def test_never_collides_with_low_iid_probes(self, sub, rng_seed):
        net56 = SEED48 | (sub << SUBNET_SHIFT)
        address = alias_target_for(net56, rng_seed)
        iid = address & ((1 << 64) - 1)
        assert iid >= ALIAS_MIN_IID
        assert probed_low_iid(address) is None

    def test_distinct_nets_get_distinct_targets(self):
        nets = [SEED48 | (i << SUBNET_SHIFT) for i in range(SUBNETS_PER_48)]
        targets = {alias_target_for(n, 3) for n in nets}
        assert len(targets) == 256

    def test_alias_target_for_matches(self):
        # Any address inside the /56 names the same alias target.
        net56 = SEED48 | (9 << SUBNET_SHIFT)
        assert alias_target_for(net56 | 0x1234, 4) == alias_target_for(net56, 4)

    @pytest.mark.parametrize("first_iid", [0, ALIAS_MIN_IID - 1])
    def test_low_iid_digest_is_drawn_again(self, monkeypatch, first_iid):
        # A digest whose IID could shadow a low-IID target is rejected, and the
        # next counter's digest gives the address.
        class Digests:
            """A keyed hash whose digest is chosen by the counter last hashed in."""

            def __init__(self):
                self.counters = []

            def copy(self):
                return self

            def update(self, data):
                self.counters.append(int.from_bytes(data[-2:], "big"))

            def digest(self):
                selector, iid = [(0x42, first_iid), (0x07, ALIAS_MIN_IID)][self.counters[-1]]
                return bytes([selector]) + iid.to_bytes(8, "big")

        digests = Digests()
        monkeypatch.setattr(targetgen, "_alias_hash_state", lambda rng_seed: digests)
        net56 = SEED48 | (9 << SUBNET_SHIFT)
        assert alias_target_for(net56, 1) == net56 | (0x07 << 64) | ALIAS_MIN_IID
        assert digests.counters == [0, 1]


def test_alias_probe_known_answers():
    # Fixed addresses: no change to the alias hash may move them.
    cases = [
        ("2001:db8:1:100::", 1, "2001:db8:1:12f:5f11:fc94:8c6f:1a58"),
        ("2001:db8:1:100::", 7, "2001:db8:1:1c0:784f:d10e:f9f9:9743"),
        ("2a02:8070:ab00:ff00::", 2**64 + 5, "2a02:8070:ab00:ff48:327e:7f85:a582:2b37"),
        ("2001:db8:ffff:ff00::", 0, "2001:db8:ffff:ffba:5491:3ad7:33cf:3132"),
    ]
    for net, rng_seed, expected in cases:
        assert alias_target_for(parse_address(net), rng_seed) == parse_address(expected)


def test_probed_low_iid_shapes():
    net56 = SEED48 | (3 << SUBNET_SHIFT)
    assert probed_low_iid(net56 | 1) == 1
    assert probed_low_iid(net56 | 10) == 10
    assert probed_low_iid(net56 | 11) is None
    assert probed_low_iid(net56) is None  # ::0 is not probed
    assert probed_low_iid(net56 | (1 << 64) | 5) is None  # wrong /64


class TestPrimes:
    def test_known_values(self):
        assert _next_prime(1) == 2
        assert _next_prime(2816) == 2819
        assert _next_prime(28160) == 28163
        for p in (2, 3, 5, 7, 97, 2819, 1_000_003):
            assert _least_factor(p) == p
        composites = {4: 2, 9: 3, 91: 7, 2817: 3, 561: 3, 41041: 7, 25326001: 2251}
        for c, least in composites.items():  # incl. Carmichael numbers
            assert _least_factor(c) == least

    def test_prime_factors_are_distinct_and_ascending(self):
        # The group orders of the plan moduli above, then every n against a brute force.
        assert _prime_factors(2818) == [2, 1409]
        assert _prime_factors(180232) == [2, 13, 1733]
        assert _prime_factors(7_040_000_002) == [2, 7, 3517, 142979]
        for n in range(1, 600):
            primes = [q for q in range(2, n + 1) if n % q == 0 and _least_factor(q) == q]
            assert _prime_factors(n) == primes

    def test_plan_moduli_known_answers(self):
        # Budgets of 1, 2, 64 and 200 seeds and the paper's 7.04 B probes.
        cases = [
            (2816, 2819),
            (5632, 5639),
            (180224, 180233),
            (563200, 563219),
            (7_040_000_000, 7_040_000_003),
        ]
        for budget, prime in cases:
            assert _next_prime(budget) == prime

    def test_next_prime_agrees_with_sieve(self):
        limit = 3000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                for j in range(i * i, limit, i):
                    sieve[j] = False
        assert [i >= 2 and _least_factor(i) == i for i in range(limit)] == sieve
        primes = [i for i, is_p in enumerate(sieve) if is_p]
        random_points = random.Random(1).sample(range(limit - 200), 50)
        for n in random_points:
            expected = next(p for p in primes if p > n)
            assert _next_prime(n) == expected


class TestScanPlan:
    def test_budget_scales_with_seeds(self):
        assert build_plan([SEED48], 1).budget == 2816
        seeds = [SEED48 + (i << 80) for i in range(5)]
        assert build_plan(seeds, 1).budget == 5 * 2816

    def test_rejects_empty_seed_set(self):
        with pytest.raises(PlanError):
            build_plan([], 1)

    def test_permutation_covers_exact_target_multiset(self):
        # Independent oracle: construct the full expected multiset directly
        # from the counting rules, then compare against one full iteration.
        seeds = [parse_address("2001:db8:1::"), parse_address("2001:db8:2::")]
        rng_seed = 13
        expected = Counter()
        for seed in seeds:
            for sub in range(256):
                net56 = seed | (sub << SUBNET_SHIFT)
                for n in range(1, 11):
                    expected[(net56 | n, "low", n)] += 1
                expected[(alias_target_for(net56, rng_seed), "alias", None)] += 1
        plan = build_plan(seeds, rng_seed)
        got = Counter()
        for t in plan:
            n = probed_low_iid(t.address)
            got[(t.address, "alias" if n is None else "low", n)] += 1
        assert got == expected
        assert sum(got.values()) == plan.budget

    def test_iteration_order_is_not_sequential(self):
        plan = build_plan([SEED48], 3)
        first = [t.address for _, t in zip(range(64), iter(plan))]
        ordered = sorted(first)
        assert first != ordered

    def test_different_seeds_give_different_orders(self):
        a = [t.address for _, t in zip(range(32), iter(build_plan([SEED48], 1)))]
        b = [t.address for _, t in zip(range(32), iter(build_plan([SEED48], 2)))]
        assert a != b

    def test_same_seed_reproduces_order(self):
        a = [t.address for t in build_plan([SEED48], 5)]
        b = [t.address for t in build_plan([SEED48], 5)]
        assert a == b

    def test_address_ranges_partition_the_plan(self):
        plan = build_plan([SEED48], 21)
        cycle = plan.cycle_len
        cuts = [0, cycle // 5, cycle // 2, cycle - 7, cycle]
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            pieces.extend(plan.addresses(lo, hi))
        assert pieces == list(plan.addresses())
        assert Counter(pieces) == Counter(t.address for t in plan)
        assert len(pieces) == plan.budget

    def test_addresses_validates_range(self):
        plan = build_plan([SEED48], 1)
        with pytest.raises(PlanError):
            list(plan.addresses(5, 3))
        with pytest.raises(PlanError):
            list(plan.addresses(0, plan.cycle_len + 1))
        with pytest.raises(PlanError):
            list(plan.addresses(-1))

    def test_address_at_bounds(self):
        plan = build_plan([SEED48], 1)
        with pytest.raises(PlanError):
            plan.address_at(-1)
        with pytest.raises(PlanError):
            plan.address_at(plan.budget)

    def test_address_at_decodes_structure(self):
        seeds = [parse_address("2001:db8:1::"), parse_address("2001:db8:2::")]
        plan = build_plan(seeds, 2)
        t0 = plan.address_at(0)
        assert t0 == seeds[0] | 1 and probed_low_iid(t0) == 1
        t10 = plan.address_at(10)
        assert probed_low_iid(t10) is None and prefix56_of(t10) == seeds[0]
        # Slot 3 of the first seed's /56 number 0x2a.
        assert plan.address_at(0x2A * TARGETS_PER_56 + 3) == seeds[0] | (0x2A << SUBNET_SHIFT) | 4
        # First slot of the second seed's first /56.
        assert plan.address_at(TARGETS_PER_48) == seeds[1] | 1
        # Last slot overall: alias probe of the last /56 of the last seed.
        t_last = plan.address_at(plan.budget - 1)
        assert t_last == alias_target_for(seeds[1] | (255 << SUBNET_SHIFT), 2)
        assert prefix56_of(t_last) == seeds[1] | (255 << SUBNET_SHIFT)

    def test_iteration_wraps_addresses(self):
        # The plan's elements carry ``.address``; the walk underneath is addresses().
        plan = build_plan([SEED48], 4)
        targets = list(plan)
        assert all(isinstance(t, ProbeTarget) for t in targets)
        assert [t.address for t in targets] == list(plan.addresses())

    def test_repeated_seed_refused(self):
        # Each address of a repeated /48 would be probed twice.
        with pytest.raises(PlanError, match="distinct /48"):
            build_plan([SEED48, SEED48], 1)
        with pytest.raises(PlanError, match="distinct /48"):
            ScanPlan((SEED48, parse_address("2001:db8:2::"), SEED48), 1)
        # Distinct seeds in any order are accepted.
        assert build_plan([parse_address("2001:db8:2::"), SEED48], 1).budget == 2 * TARGETS_PER_48

    @pytest.mark.parametrize("seed", ["2001:db8:1:500::7", "2001:db8:1:100::", "2001:db8:1::1"])
    def test_seed_with_bits_below_48_refused(self, seed):
        # 2001:db8:1:500::7 would give 2,816 targets over only 192 distinct addresses.
        with pytest.raises(PlanError, match="distinct /48"):
            build_plan([parse_address(seed)], 1)

    def test_first_targets_known_answer(self):
        # Fixed order and addresses: no change to the plan code may move them.
        seeds = [parse_address(t) for t in ("2001:db8:1::", "2001:db8:2::", "2a02:8070:ab00::")]
        texts = [format_address(t.address) for _, t in zip(range(500), build_plan(seeds, 42))]
        assert texts[:5] == [
            "2001:db8:2:322b:378:b43e:2788:b55",
            "2001:db8:1:4400::8",
            "2001:db8:2:f800::2",
            "2001:db8:1:4400::5",
            "2001:db8:1:b200::7",
        ]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "d28abeed5834afbf8a6b5b2120f9fb849a4d8ff92c62caae9a00da8c58e695f9"

    def test_dump_format(self, tmp_path):
        plan = build_plan([SEED48], 1)
        out = tmp_path / "plan.txt"
        with out.open("w") as fh:
            n = plan.dump(fh, 100)
        lines = out.read_text().splitlines()
        assert n == len(lines) == 100
        first = [t for _, t in zip(range(100), plan)]
        assert [line.split(",")[0] for line in lines] == [format_address(t.address) for t in first]
        kinds = set()
        for line, t in zip(lines, first):
            addr, kind, net = line.split(",")
            n = probed_low_iid(t.address)
            assert kind == ("alias_probe" if n is None else f"low_iid_{n}")
            assert net == f"{format_address(prefix56_of(t.address))}/56"
            kinds.add(kind)
        assert "alias_probe" in kinds and "low_iid_3" in kinds

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_plan_is_always_a_permutation(self, rng_seed):
        plan = ScanPlan((SEED48,), rng_seed)
        addresses = [t.address for t in plan]
        assert len(addresses) == 2816
        assert len(set(addresses)) == 2816
