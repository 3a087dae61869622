import math
import random
from fractions import Fraction

import pytest

from ropsum import (
    QQ,
    DivisionByZero,
    FieldMismatch,
    ParseError,
    PreconditionViolated,
    format_scalar,
    parse_scalar,
    prime_field,
    sqrt_in_field,
)
from ropsum.scalars import is_prime

F7 = prime_field(7)


def test_rational_arithmetic_exact():
    assert QQ.elem(Fraction(2, 3)) + QQ.elem(Fraction(1, 6)) == Fraction(5, 6)
    assert QQ.elem(2) - QQ.elem(5) == -3
    assert QQ.elem(Fraction(3, 4)) * QQ.elem(Fraction(2, 3)) == Fraction(1, 2)
    assert QQ.elem(1) / QQ.elem(3) == Fraction(1, 3)


def test_prime_field_arithmetic():
    assert F7.elem(3) * F7.elem(5) == 1
    assert F7.elem(3) + F7.elem(5) == 1
    assert -F7.elem(2) == 5
    assert F7.elem(3).inverse() == 5


def test_constants_and_prime_fields_are_shared():
    for field in (QQ, F7):
        assert field.zero() is field.zero() and field.one() is field.one()
        assert (field.zero().value, field.one().value) == (field.raw(0), field.raw(1))
    assert type(QQ.one().value) is Fraction
    assert prime_field(7) is F7


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.elem(0).inverse()
    with pytest.raises(DivisionByZero):
        F7.elem(3) / F7.elem(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ.elem(1) + F7.elem(1)
    with pytest.raises(FieldMismatch):
        prime_field(5).elem(1) * F7.elem(1)


def test_arithmetic_with_the_scalar_on_the_left():
    for field in (QQ, F7):
        x = field.elem(3)
        assert 2 - x == field.elem(-1)
        assert 1 / x == x.inverse() and (1 / x) * x == 1
        with pytest.raises(DivisionByZero):
            1 / field.zero()
        # an operand that is no scalar is refused by both sides
        for call in (lambda: x + "a", lambda: "a" - x, lambda: x * [1], lambda: x / None):
            with pytest.raises(TypeError):
                call()


def test_prime_validation():
    with pytest.raises(PreconditionViolated):
        prime_field(6)
    with pytest.raises(PreconditionViolated):
        prime_field(1)
    prime_field(2)
    prime_field(2147483647)  # largest prime below 2^31


def test_is_prime_agrees_with_trial_division():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

    assert all(is_prime(p) == trial_division(p) for p in range(-3, 200_000))
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7
    for n in (2047, 1373653, 25326001, 3215031751):
        assert not is_prime(n)
    assert is_prime(2**31 - 1)
    # composite, and a strong pseudoprime to every base up to 37
    with pytest.raises(PreconditionViolated, match="decided only below"):
        is_prime(318665857834031151167461)


def test_sqrt_rational():
    assert sqrt_in_field(QQ.elem(Fraction(9, 4))) == Fraction(3, 2)
    assert sqrt_in_field(QQ.elem(0)) == 0
    assert sqrt_in_field(QQ.elem(2)) is None
    assert sqrt_in_field(QQ.elem(-4)) is None
    assert sqrt_in_field(QQ.elem(Fraction(1, 3))) is None


def test_sqrt_prime_field_smaller_root():
    r = sqrt_in_field(F7.elem(2))
    assert r == 3  # 3^2 = 4^2 = 2 mod 7; the smaller representative wins


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_sqrt_prime_field_matches_exhaustive_search(p):
    field = prime_field(p)
    for v in range(p):
        roots = [r for r in range(p) if r * r % p == v]
        got = sqrt_in_field(field.elem(v))
        if roots:
            assert got is not None and got.value == min(roots)
            assert got * got == v
        else:
            assert got is None


@pytest.mark.parametrize("p", [257, 65537, 2013265921, 2147483647])
def test_sqrt_prime_field_large_moduli(p):
    # 2013265921 = 15 * 2^27 + 1 takes many Tonelli-Shanks rounds
    field = prime_field(p)
    rng = random.Random(p)
    roots = 0
    for _ in range(200):
        v = rng.randrange(p)
        r = sqrt_in_field(field.elem(v))
        if r is None:
            assert pow(v, (p - 1) // 2, p) == p - 1
        else:
            roots += 1
            assert r.value * r.value % p == v
            assert r.value <= p - r.value
    assert roots > 50


def test_sqrt_squares_back():
    rng = random.Random(11)
    for _ in range(200):
        x = QQ.elem(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        sq = x * x
        r = sqrt_in_field(sq)
        assert r is not None and r * r == sq


@pytest.mark.parametrize("field", [QQ, F7, prime_field(13)])
def test_field_axioms_random(field):
    rng = random.Random(101)

    def rand():
        if field.kind == "prime":
            return field.elem(rng.randrange(field.p))
        return field.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_parse_and_format_round_trip():
    for text, field in [
        ("5", QQ),
        ("-3/4", QQ),
        ("0", QQ),
        ("5", F7),
        ("13 mod 7", F7),
    ]:
        x = parse_scalar(text, field)
        assert parse_scalar(format_scalar(x), field) == x
    assert parse_scalar("13 mod 7", F7) == 6
    assert parse_scalar("3/2", F7) == F7.elem(3) / F7.elem(2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("2 mod 5", F7)
    with pytest.raises(ParseError):
        parse_scalar("2 mod 7", QQ)
    with pytest.raises(ParseError):
        parse_scalar("1/0", QQ)
    with pytest.raises(ParseError):
        parse_scalar("abc", QQ)


def test_immutability():
    x = QQ.elem(1)
    with pytest.raises(AttributeError):
        x.value = 2
    with pytest.raises(AttributeError):
        QQ.kind = "prime"
