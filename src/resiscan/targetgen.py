"""Probe-target expansion and the streaming scan-plan permutation.

Every residential /48 expands to its 256 /56 customer delegations; each /56
receives eleven probes: the ten lowest interface IDs (::1 through ::a, where
DHCPv6 pools start) and one random high-IID address used as an alias check.
A plan over N seeds therefore has a fixed budget of N * 2816 probes.

Probe order is a pseudorandom permutation of the index space [0, budget),
walked with a multiplicative generator over Z_p* for the smallest prime
p > budget.  Successive powers of a primitive root visit every index exactly
once (indices >= budget are skipped), so the whole ordering needs three ints
of state - no shuffled target list is ever materialized, which is what lets
a multi-billion-probe plan run on a small box.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterator

from .addrs import IID_MASK, PREFIX48_MASK, PREFIX56_MASK, SUBNET_SHIFT, format_address

SUBNETS_PER_48 = 256
LOW_IIDS_PER_56 = 10
TARGETS_PER_56 = LOW_IIDS_PER_56 + 1
TARGETS_PER_48 = SUBNETS_PER_48 * TARGETS_PER_56  # 2816
ALIAS_MIN_IID = 0x0B  # alias probes never collide with the ten low-IID targets

KIND_LOW_IID = "low_iid"
KIND_ALIAS = "alias_probe"


@dataclass(slots=True)  # not frozen: one is built per plan element, and frozen init costs 3x
class ProbeTarget:
    address: int


@functools.lru_cache(maxsize=8)
def _alias_hash_state(rng_seed: int):
    """The alias-probe hash keyed with ``rng_seed``, keyed once; callers hash into a ``.copy()``."""
    return hashlib.blake2b(key=(rng_seed & ((1 << 64) - 1)).to_bytes(8, "big"), digest_size=9)


def alias_target_for(net56: int, rng_seed: int) -> int:
    """The /56's single alias-check probe: a random address high in the IID space.

    ``net56`` may be any address inside the /56. Both the /64 selector byte
    and the IID are drawn from a keyed hash of the /56, so the same
    (rng_seed, net56) pair always yields the same address, independent of
    where the probe lands in the plan. The IID is uniform over [0x0b, 2^64),
    rejection-sampled so it can never shadow a low-IID target.
    """
    net56 &= PREFIX56_MASK
    keyed = _alias_hash_state(rng_seed)
    net_bytes = net56.to_bytes(16, "big")
    counter = 0
    while True:
        h = keyed.copy()
        h.update(net_bytes + counter.to_bytes(2, "big"))
        digest = h.digest()
        iid = int.from_bytes(digest[1:9], "big")
        if iid >= ALIAS_MIN_IID:
            selector = digest[0]
            return net56 | (selector << 64) | iid
        counter += 1


def _least_factor(n: int) -> int:
    """The smallest prime factor of ``n`` >= 2, by trial division up to sqrt(n):
    ~42k steps for a prime near the paper's 7.04 B-probe budget, once per plan."""
    if n % 2 == 0:
        return 2
    return next((d for d in range(3, math.isqrt(n) + 1, 2) if n % d == 0), n)


def _next_prime(n: int) -> int:
    return next(c for c in itertools.count(n + 1) if _least_factor(c) == c)


def _prime_factors(n: int) -> list[int]:
    factors = []
    while n > 1:
        factors.append(_least_factor(n))
        while n % factors[-1] == 0:
            n //= factors[-1]
    return factors


def _find_generator(p: int, rng: random.Random) -> int:
    # g generates Z_p* iff g^((p-1)/q) != 1 for every prime factor q of p-1.
    group_order = p - 1
    checks = [group_order // q for q in _prime_factors(group_order)]
    while True:
        g = rng.randrange(2, p - 1)
        if all(pow(g, c, p) != 1 for c in checks):
            return g


class PlanError(ValueError):
    pass


def _distinct_48s(seeds: tuple[int, ...]) -> bool:
    """True if every seed is a /48 network and no /48 repeats."""
    if any(s & ~PREFIX48_MASK for s in seeds):
        return False
    # Ascending seeds, the usual order of a seed file, need no set of millions.
    return all(map(operator.lt, seeds, seeds[1:])) or len(set(seeds)) == len(seeds)


class ScanPlan:
    """Lazy, seeded permutation of every probe target for a seed set.

    ``addresses`` yields each of the ``budget`` probe addresses exactly once
    in permuted order, as 128-bit ints; ``address_at`` maps a plan index to
    its address directly.
    """

    def __init__(self, seeds: tuple[int, ...], rng_seed: int):
        if not seeds:
            raise PlanError("cannot plan a scan over zero seed prefixes")
        if not _distinct_48s(seeds):  # else some address would be probed twice
            raise PlanError("the seeds must be distinct /48 prefixes")
        self.seeds = seeds
        self.rng_seed = rng_seed
        self.budget = len(seeds) * TARGETS_PER_48
        rng = random.Random(rng_seed)
        self._modulus = _next_prime(self.budget)
        self._generator = _find_generator(self._modulus, rng)
        self._start = rng.randrange(1, self._modulus)

    def address_at(self, index: int) -> int:
        """Decode plan index -> probe address (no permutation applied)."""
        if not 0 <= index < self.budget:
            raise PlanError(f"index {index} outside budget {self.budget}")
        n, slot = divmod(index, TARGETS_PER_56)  # n counts /56s over all seeds
        net56 = self.seeds[n >> 8] | ((n & 0xFF) << SUBNET_SHIFT)
        if slot < LOW_IIDS_PER_56:
            return net56 | (slot + 1)
        return alias_target_for(net56, self.rng_seed)

    @property
    def cycle_len(self) -> int:
        return self._modulus - 1

    def addresses(self, lo: int = 0, hi: int | None = None) -> Iterator[int]:
        """Probe addresses emitted during generator-cycle steps [lo, hi).

        Steps with a skipped index (>= budget) emit nothing; the full range
        [0, cycle_len) emits every address exactly once, so disjoint step
        ranges partition the plan.
        """
        hi = self.cycle_len if hi is None else hi
        if not 0 <= lo <= hi <= self.cycle_len:
            raise PlanError("step range outside the generator cycle")
        p, g, budget, address_at = self._modulus, self._generator, self.budget, self.address_at
        x = (self._start * pow(g, lo + 1, p)) % p
        for _ in range(hi - lo):
            if x <= budget:
                yield address_at(x - 1)
            x = x * g % p

    def __iter__(self) -> Iterator[ProbeTarget]:
        """``addresses()`` as ``ProbeTarget``s, for callers that read ``.address``."""
        return map(ProbeTarget, self.addresses())

    def dump(self, fh, limit: int) -> int:
        """Write the first ``limit`` addresses of the permuted order as
        ``address,kind,prefix56`` lines; returns how many were written."""
        count = 0
        for address in itertools.islice(self.addresses(), limit):
            n = probed_low_iid(address)
            kind = KIND_ALIAS if n is None else f"{KIND_LOW_IID}_{n}"
            net56 = format_address(address & PREFIX56_MASK)
            fh.write(f"{format_address(address)},{kind},{net56}/56\n")
            count += 1
        return count


def build_plan(seeds, rng_seed: int) -> ScanPlan:
    """Build the scan plan for an ordered seed collection.

    ``seeds`` is any iterable of distinct /48 network ints.
    Budget is always len(seeds) * 2816; no target is materialized.
    """
    return ScanPlan(tuple(seeds), rng_seed)


def probed_low_iid(address: int) -> int | None:
    """Return n if ``address`` has the shape of a low-IID probe target (::n)."""
    if address & (0xFF << 64):  # selector byte must be zero
        return None
    iid = address & IID_MASK
    return iid if 1 <= iid <= LOW_IIDS_PER_56 else None
