import hashlib
import random
import statistics
import struct
import time

import pytest

from ropsum import (
    MultilinearPoly,
    PreconditionViolated,
    elementary_symmetric,
    prime_field,
)
from ropsum import oracle
from ropsum.oracle import (
    PackedPoly,
    RopClass,
    closure_report,
    enumerate_rops,
    min_k,
    pack,
    unpack,
)

F2 = prime_field(2)


def test_univariate_class_is_all_affine():
    cls = enumerate_rops(2, 1)
    assert sorted(cls.members) == [0, 1, 2, 3]


def test_bivariate_class_is_everything():
    cls = enumerate_rops(2, 2)
    assert len(cls) == 16
    x1x2 = pack(MultilinearPoly(2, F2, {0b11: 1}))
    x1px2 = pack(MultilinearPoly(2, F2, {0b01: 1, 0b10: 1}))
    assert x1x2.value in cls and x1px2.value in cls


def test_triangle_is_missing_at_three_variables():
    cls = enumerate_rops(2, 3)
    s32 = pack(elementary_symmetric(3, 2, F2))
    assert s32.value not in cls


def test_pack_unpack_round_trip():
    rng = random.Random(41)
    for p in (2, 3, 5):
        field = prime_field(p)
        for _ in range(50):
            n = rng.randint(1, 3)
            coeffs = {
                m: field.elem(rng.randrange(p)) for m in range(1 << n)
            }
            poly = MultilinearPoly(n, field, coeffs)
            assert unpack(pack(poly)) == poly


def test_pack_needs_prime_field():
    from ropsum import QQ

    with pytest.raises(PreconditionViolated, match="^packing needs a prime-field polynomial$"):
        pack(MultilinearPoly(2, QQ, {0b01: 1}))


def test_min_k_monomial_is_one():
    cls = enumerate_rops(2, 3)
    t = pack(MultilinearPoly(3, F2, {0b011: 1}))
    assert min_k(t, cls, 3) == 1


def test_min_k_triangle_is_two():
    cls = enumerate_rops(2, 3)
    t = pack(elementary_symmetric(3, 2, F2))
    assert min_k(t, cls, 3) == 2


def test_min_k_checks_parameters():
    cls = enumerate_rops(2, 3)
    with pytest.raises(
        PreconditionViolated, match=r"^target is \(p=2, n=4\), class is \(p=2, n=3\)$"
    ):
        min_k(PackedPoly(2, 4, 0), cls, 2)
    with pytest.raises(PreconditionViolated):
        min_k(PackedPoly(2, 3, 0), cls, 5)
    for value in (-1, 2 ** 8):
        with pytest.raises(PreconditionViolated, match="packed value outside its digit range"):
            PackedPoly(2, 3, value)


def test_min_k_monotone_under_member_shifts():
    rng = random.Random(43)
    cls = enumerate_rops(2, 3)
    members = cls.members
    for _ in range(100):
        a = rng.choice(members)
        b = rng.choice(members)
        k = min_k(PackedPoly(2, 3, a ^ b), cls, 3)
        assert k is not None and k <= 2


INFEASIBLE = "^supported: p=2 with n<=5, p=3 with n<=4, p=5 with n<=3$"


def test_enumeration_feasibility_table():
    for p, n in [(2, 6), (3, 5), (5, 4), (7, 1), (4, 1)]:
        with pytest.raises(PreconditionViolated, match=INFEASIBLE):
            enumerate_rops(p, n)
    # pack and PackedPoly refuse before p^(2^n): one F_3 monomial took seconds at n=22
    start = time.perf_counter()
    with pytest.raises(PreconditionViolated, match=INFEASIBLE):
        pack(MultilinearPoly(22, prime_field(3), {(1 << 22) - 1: 1}))
    with pytest.raises(PreconditionViolated, match=INFEASIBLE):
        PackedPoly(3, 30, 0)
    assert time.perf_counter() - start < 0.5


def test_odd_prime_class_contains_and_excludes():
    cls = enumerate_rops(3, 3)
    F3 = prime_field(3)
    mono = pack(MultilinearPoly(3, F3, {0b111: 2}))
    assert mono.value in cls
    s32 = pack(elementary_symmetric(3, 2, F3))
    assert s32.value not in cls
    assert min_k(s32, cls, 3) == 2


def test_odd_prime_affine_closure_of_members():
    # alpha * f + beta stays in the class for every member f
    rng = random.Random(44)
    cls = enumerate_rops(3, 2)
    for _ in range(100):
        v = rng.choice(cls.members)
        poly = unpack(PackedPoly(3, 2, v))
        scaled = poly.scale(2) + MultilinearPoly.constant(2, poly.field, 1)
        assert pack(scaled).value in cls


def test_closure_under_derivatives_and_restrictions_small():
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        rep = closure_report(enumerate_rops(p, n))
        assert rep.ok, (rep.derivative_violations, rep.restriction_violations)


def test_enumeration_is_deterministic():
    a = enumerate_rops(2, 3)
    b = enumerate_rops(2, 3)
    assert a.members == b.members


def test_closure_of_empty_class_is_vacuous():
    rep = closure_report(RopClass(2, 2, ()))
    assert rep.ok and rep.members_checked == 0


def test_closure_report_lists_every_violation_of_an_unclosed_class():
    # {x1*x2} over F_2 holds neither partial (x2, x1) nor any restriction
    # (0 at x_i = 0, the other variable at x_i = 1); x1*x2 packs to 2^3
    x1x2 = pack(MultilinearPoly(2, F2, {0b11: 1})).value
    rep = closure_report(RopClass(2, 2, (x1x2,)))
    assert not rep.ok and rep.members_checked == 1
    assert rep.derivative_violations == [(8, 1), (8, 2)]
    assert rep.restriction_violations == [(8, 1, 0), (8, 1, 1), (8, 2, 0), (8, 2, 1)]


# -- sumset queries against a full-scan reference ------------------------------


def _reference_sub(t, s, p):
    """Digitwise t - s mod p, one base-p digit at a time."""
    if p == 2:
        return t ^ s
    out, place = 0, 1
    while t or s:
        out += (t % p - s % p) % p * place
        t, s, place = t // p, s // p, place * p
    return out


def _reference_min_k(t, members, p, kmax, planted=None):
    """min_k by full scans: t is in kS when t - s is in (k-1)S for some
    member s.  A target built as a sum of ``planted`` members is in that
    sumset, so that level needs no scan."""
    mset = frozenset(members)

    def reach(t, k):
        if k == 1:
            return t in mset
        return any(reach(_reference_sub(t, s, p), k - 1) for s in members)

    for k in range(1, kmax + 1):
        if k == planted or reach(t, k):
            return k
    return None


def _planted(rng, members, p, count):
    """A sum of ``count`` members drawn with repetition."""
    value = 0
    for _ in range(count):
        # value + s, as value - (0 - s)
        value = _reference_sub(value, _reference_sub(0, rng.choice(members), p), p)
    return value


@pytest.fixture(scope="module")
def classes():
    cache = {}

    def get(p, n):
        if (p, n) not in cache:
            cache[(p, n)] = enumerate_rops(p, n)
        return cache[(p, n)]

    return get


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_min_k_matches_reference_on_every_target(classes, p, n):
    cls = classes(p, n)
    for value in range(p ** (1 << n)):
        expected = _reference_min_k(value, cls.members, p, 3)
        assert min_k(PackedPoly(p, n, value), cls, 3) == expected, value


# (p, n, uniform targets, kmax for them, planted 2-sums, planted 3-sums).
# A uniform target that is not a 2-sum costs the reference a quadratic scan
# at k=3, so the larger classes ask uniform targets only up to k=2.
SAMPLED_QUERIES = [
    (2, 4, 40, 3, 10, 10),
    (2, 5, 12, 2, 4, 4),
    (3, 4, 4, 2, 3, 3),
    (5, 3, 4, 2, 3, 3),
]


@pytest.mark.parametrize("p, n, uniform, kmax, twos, threes", SAMPLED_QUERIES)
def test_min_k_matches_reference_on_sampled_targets(
    classes, p, n, uniform, kmax, twos, threes
):
    cls = classes(p, n)
    rng = random.Random(100 * p + n)
    queries = [(rng.randrange(p ** (1 << n)), kmax, None) for _ in range(uniform)]
    queries += [(_planted(rng, cls.members, p, 2), 3, 2) for _ in range(twos)]
    queries += [(_planted(rng, cls.members, p, 3), 3, 3) for _ in range(threes)]
    for value, k, planted in queries:
        expected = _reference_min_k(value, cls.members, p, k, planted)
        assert min_k(PackedPoly(p, n, value), cls, k) == expected, value


@pytest.mark.parametrize(
    "p, n, size", [(2, 3, 12), (2, 4, 60), (3, 2, 12), (3, 3, 40), (5, 2, 20)]
)
def test_min_k_assumes_no_closure_or_order(p, n, size):
    # a shuffled random subset of the universe is no read-once class: it is
    # not closed under the affine maps and its members come shuffled, to be
    # sorted on construction; it is sparse enough that every answer from 1
    # to None occurs
    rng = random.Random(size)
    universe = p ** (1 << n)
    members = list(range(p)) + rng.sample(range(p, universe), size - p)
    rng.shuffle(members)
    cls = RopClass(p, n, tuple(members))
    assert cls.members == tuple(sorted(members))
    for _ in range(30):
        if rng.random() < 0.5:
            value, planted = rng.randrange(universe), None
        else:
            planted = rng.choice((2, 3))
            value = _planted(rng, members, p, planted)
        expected = _reference_min_k(value, members, p, 3, planted)
        assert min_k(PackedPoly(p, n, value), cls, 3) == expected, value


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_min_k_two_on_every_target_of_sparse_classes(p, n):
    # a set that is not closed may reach a target only through a pair from
    # one hi-group other than 0 (over F_2 n=2, x2 + (1 + x2) = 1) or from
    # one key group
    rng = random.Random(10 * p + n)
    universe = p ** (1 << n)
    for size in (2, 3, 5, 8):
        members = rng.sample(range(universe), min(size, universe))
        cls = RopClass(p, n, tuple(members))
        for value in range(universe):
            expected = _reference_min_k(value, members, p, 2)
            assert min_k(PackedPoly(p, n, value), cls, 2) == expected, (members, value)


class _CountingSet:
    """A member set that counts the membership tests made on it."""

    def __init__(self, inner):
        self.inner = inner
        self.probes = 0

    def __contains__(self, value):
        self.probes += 1
        return value in self.inner


def test_min_k_two_examines_a_tenth_of_the_class_at_most(classes):
    cls = classes(2, 5)
    counting = _CountingSet(cls._member_set)
    cls._member_set = counting
    rng = random.Random(52)
    negatives = 0
    try:
        for _ in range(40):
            counting.probes = 0
            if min_k(PackedPoly(2, 5, rng.randrange(1 << 32)), cls, 2) is None:
                negatives += 1
                assert counting.probes <= len(cls) // 10
    finally:
        cls._member_set = counting.inner
    assert negatives >= 20


def test_min_k_two_visits_half_the_hi_groups_at_most(classes, monkeypatch):
    # every hi-group key the join examines costs one subtraction, t_hi - a,
    # so the subtractions a negative makes bound the keys it examines
    cls = classes(2, 5)
    calls = []
    real_sub = oracle._packed_sub

    def counting_sub(t, s, p):
        calls.append(None)
        return real_sub(t, s, p)

    monkeypatch.setattr(oracle, "_packed_sub", counting_sub)
    rng = random.Random(53)
    work = []
    while len(work) < 25:
        calls.clear()
        if min_k(PackedPoly(2, 5, rng.randrange(1 << 32)), cls, 2) is None:
            work.append(len(calls))
    assert statistics.median(work) <= len(cls._by_hi) // 2


# member count and sha256 of struct.pack("<%dQ", *members), for every feasible
# class: the enumeration's output, bit for bit
CLASS_DIGESTS = {
    (2, 1): (4, "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77"),
    (2, 2): (16, "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee"),
    (2, 3): (152, "412eadf3a49a33a8ce8153f6e23f9890a2fc61d7ecbdf03ed0a80854afee4607"),
    (2, 4): (2680, "3548d9f4ab27ae73d72f034c346e727a8cbb6a29524326baa3826f18b354d148"),
    (2, 5): (68968, "678fdd892b107b01641cef5b4081350dd958ec4c936c08604a29d5b1ba73c5a0"),
    (3, 1): (9, "419ce84f0e9d892643ed1279ee8cdaa70ddc452e676dfe448cbeaaa830c06567"),
    (3, 2): (81, "59b1c3b9082da2f7d0cd6c28dd712d157c525ac39c94c5c161fae3a779d12339"),
    (3, 3): (2025, "b0472094cc2877019d29d2c2d86374c78ef9f725e78da3d905abfc2a6a56c014"),
    (3, 4): (89721, "f44bf43b15a7ad0b770b56798511f16c7448c96f53092f9f387db0b074894e43"),
    (5, 1): (25, "2a0a16a7ce85c211f6b6e8a758e7ec09f9fd77e230e81d74c30a857dd51e2de6"),
    (5, 2): (625, "00e8934acf30e378fed47a04200363e3dbe0eb56695e801b5e3c6ee400d6be8e"),
    (5, 3): (46625, "5692611b3a87404d9a8c8d75d5dfb045521352664b23dec291b8c1f39b5971f1"),
}


@pytest.mark.parametrize("p, n", sorted(CLASS_DIGESTS))
def test_every_feasible_class_is_pinned(classes, p, n):
    count, digest = CLASS_DIGESTS[(p, n)]
    members = classes(p, n).members
    assert len(members) == count
    assert hashlib.sha256(struct.pack("<%dQ" % count, *members)).hexdigest() == digest
