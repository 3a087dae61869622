import os
import random
import struct

import pytest

from ropsum import (
    InfeasibleParameters,
    ParseError,
    MultilinearPoly,
    ParameterMismatch,
    PreconditionViolated,
    elementary_symmetric,
    prime_field,
)
from ropsum.oracle import (
    PackedPoly,
    RopClass,
    closure_report,
    enumerate_rops,
    load_class,
    min_k,
    pack,
    save_class,
    unpack,
)

F2 = prime_field(2)


def test_univariate_class_is_all_affine():
    cls = enumerate_rops(2, 1)
    assert sorted(cls.members) == [0, 1, 2, 3]


def test_bivariate_class_is_everything():
    cls = enumerate_rops(2, 2)
    assert len(cls) == 16
    x1x2 = pack(MultilinearPoly.from_terms(2, F2, {0b11: 1}))
    x1px2 = pack(MultilinearPoly.from_terms(2, F2, {0b01: 1, 0b10: 1}))
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

    with pytest.raises(ParameterMismatch):
        pack(MultilinearPoly.from_terms(2, QQ, {0b01: 1}))


def test_min_k_monomial_is_one():
    cls = enumerate_rops(2, 3)
    t = pack(MultilinearPoly.from_terms(3, F2, {0b011: 1}))
    assert min_k(t, cls, 3) == 1


def test_min_k_triangle_is_two():
    cls = enumerate_rops(2, 3)
    t = pack(elementary_symmetric(3, 2, F2))
    assert min_k(t, cls, 3) == 2


def test_min_k_checks_parameters():
    cls = enumerate_rops(2, 3)
    with pytest.raises(ParameterMismatch):
        min_k(PackedPoly(2, 4, 0), cls, 2)
    with pytest.raises(PreconditionViolated):
        min_k(PackedPoly(2, 3, 0), cls, 5)


def test_min_k_monotone_under_member_shifts():
    rng = random.Random(43)
    cls = enumerate_rops(2, 3)
    members = cls.members
    for _ in range(100):
        a = rng.choice(members)
        b = rng.choice(members)
        k = min_k(PackedPoly(2, 3, a ^ b), cls, 3)
        assert k is not None and k <= 2


def test_enumeration_feasibility_table():
    for p, n in [(2, 6), (3, 5), (5, 4), (7, 1), (4, 1)]:
        with pytest.raises(InfeasibleParameters):
            enumerate_rops(p, n)


def test_odd_prime_class_contains_and_excludes():
    cls = enumerate_rops(3, 3)
    F3 = prime_field(3)
    mono = pack(MultilinearPoly.from_terms(3, F3, {0b111: 2}))
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
        scaled = poly.scale(2).add_constant(1)
        assert pack(scaled).value in cls


def test_closure_under_derivatives_and_restrictions_small():
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        rep = closure_report(enumerate_rops(p, n))
        assert rep.ok, (rep.derivative_violations, rep.restriction_violations)


def test_persistence_round_trip(tmp_path):
    cls = enumerate_rops(2, 4)
    path = str(tmp_path / "class.ropc")
    save_class(cls, path)
    loaded = load_class(path)
    assert loaded.p == cls.p and loaded.n == cls.n
    assert loaded.members == cls.members
    with open(path, "rb") as fh:
        assert fh.read(4) == b"ROPC"


def test_enumeration_is_deterministic():
    a = enumerate_rops(2, 3)
    b = enumerate_rops(2, 3)
    assert a.members == b.members


def test_closure_of_empty_class_is_vacuous():
    rep = closure_report(RopClass(2, 2, ()))
    assert rep.ok and rep.members_checked == 0


def _write_class_file(path, p, n, members, extra=b""):
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIQ", b"ROPC", 1, p, n, len(members)))
        fh.write(struct.pack("<%dQ" % len(members), *members))
        fh.write(extra)


@pytest.mark.parametrize(
    "p, n, members, extra",
    [
        (2, 1, (0, 1, 2, 3), b"\0"),  # trailing bytes
        (2, 1, (0, 1, 3, 2), b""),  # not increasing
        (2, 1, (0, 1, 2, 2), b""),  # repeated member
        (2, 1, (0, 1, 2, 16), b""),  # outside [0, 2^(2^1))
        (2, 6, (0, 1), b""),  # infeasible n
        (7, 1, tuple(range(7)), b""),  # infeasible p
        (2, 1, (1, 2, 3), b""),  # lacks the constant 0
        (3, 1, (), b""),  # empty
    ],
)
def test_load_class_rejects_malformed_files(tmp_path, p, n, members, extra):
    path = str(tmp_path / "bad.ropc")
    _write_class_file(path, p, n, members, extra)
    with pytest.raises(ParseError):
        load_class(path)


def test_save_class_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "class.ropc"
    save_class(enumerate_rops(2, 2), str(path))
    before = path.read_bytes()
    with pytest.raises(struct.error):  # a negative member fails to pack
        save_class(RopClass(2, 2, (0, 1, -1)), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["class.ropc"]
