import random
import time
from fractions import Fraction

import pytest

from ropsum import (
    QQ,
    FieldMismatch,
    IndexOutOfRange,
    MultilinearPoly,
    PreconditionViolated,
    commutator,
    elementary_symmetric,
    family4,
    linear_dependent,
    m_poly,
    prime_field,
)
from ropsum.mpoly import SparsePoly, format_poly

from helpers import product_sum, random_linear_form, random_poly, random_scalar

F2 = prime_field(2)


def P(n, terms, field=QQ):
    return MultilinearPoly(n, field, terms)


def test_add_cancels_to_zero():
    p = P(2, {0b11: 1})
    assert (p + p.scale(-1)).is_zero()


def test_add_refuses_two_variable_counts():
    with pytest.raises(IndexOutOfRange, match="^polynomials on 2 and 3 variables$"):
        P(2, {0b11: 1}) + P(3, {0b11: 1})


def test_char2_doubling():
    s = elementary_symmetric(4, 2, F2)
    assert (s + s).is_zero()


def test_scale():
    p = P(2, {0b01: 1, 0b10: Fraction(1, 3)})
    assert p.scale(2) == P(2, {0b01: 2, 0b10: Fraction(2, 3)})


def test_mul_disjoint():
    p = P(2, {0b01: 1, 0: 1})
    q = P(2, {0b10: 1, 0: 5})
    assert p.mul_disjoint(q) == P(2, {0b11: 1, 0b01: 5, 0b10: 1, 0: 5})


def test_mul_disjoint_rejects_shared():
    p = P(1, {0b1: 1})
    with pytest.raises(PreconditionViolated, match=r"^factors share variables \[1\]$"):
        p.mul_disjoint(p)


def test_restrict_family_recursion():
    rng = random.Random(5)
    for n in range(2, 8):
        for _ in range(20):
            a, b, g = (random_scalar(rng, QQ) for _ in range(3))
            left = m_poly(n, a, b).restrict(n, g).with_n(n - 1)
            right = m_poly(n - 1, a * g + b, b * g)
            assert left == right


def test_restrict_examples():
    assert P(2, {0b11: 1, 0b10: 1}).restrict(2, 0).is_zero()
    f = family4(2, 4, 5).restrict(1, 1).restrict(2, 1)
    assert f.coeff(0b1100) == 2


def test_partial_of_family():
    f = family4(2, 4, 5)
    assert f.partial(1) == P(4, {0b0010: 2, 0b0100: 4, 0b1000: 5})


def test_partial_of_hierarchy_polynomial():
    rng = random.Random(6)
    for n in range(2, 8):
        a, b = random_scalar(rng, QQ), random_scalar(rng, QQ)
        assert m_poly(n, a, b).partial(n).with_n(n - 1) == m_poly(n - 1, a, b)


def test_partial_of_constant_is_zero():
    assert P(3, {0: 7}).partial(1).is_zero()


def test_partial_index_checked():
    with pytest.raises(IndexOutOfRange):
        P(2, {0b01: 1}).partial(3)


def test_commutator_of_family():
    # -bc (x3^2 + x4^2) + (a^2 - b^2 - c^2) x3 x4
    for a, b, c in [(1, 1, 1), (2, 4, 5), (1, 2, 3)]:
        got = commutator(family4(a, b, c), 1, 2)
        expected = SparsePoly(
            4,
            QQ,
            {
                (0, 0, 2, 0): QQ.elem(-b * c),
                (0, 0, 0, 2): QQ.elem(-b * c),
                (0, 0, 1, 1): QQ.elem(a * a - b * b - c * c),
            },
        )
        assert got == expected


def test_commutator_refuses_equal_indices():
    p = P(2, {0b11: 1})
    with pytest.raises(PreconditionViolated, match="^commutator needs two distinct variables$"):
        commutator(p, 2, 2)


def test_commutator_of_separated_product_vanishes():
    p = P(4, {0b0001: 1, 0b0100: 1}).mul_disjoint(P(4, {0b0010: 1, 0b1000: 1}))
    assert commutator(p, 1, 2).is_zero()


def test_commutator_divisibility_shape_vanishing():
    # l(x_i-linear) times m(x_j-linear), no shared variables beyond the split
    rng = random.Random(52)
    for _ in range(500):
        n = 4
        l = random_linear_form(rng, n, (1, 3), QQ)
        m = random_linear_form(rng, n, (2, 4), QQ)
        assert commutator(l.mul_disjoint(m), 1, 2).is_zero()


@pytest.mark.parametrize("field", [QQ, prime_field(3), prime_field(101)], ids=str)
def test_commutator_matches_definition(field):
    # (p|_{i=0,j=0})(p|_{i=1,j=1}) - (p|_{i=0,j=1})(p|_{i=1,j=0}), every pair
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = random_poly(rng, n, field, density=rng.choice([0.3, 0.6, 0.9]))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                at = {
                    (a, b): p.restrict(i, a).restrict(j, b) for a in (0, 1) for b in (0, 1)
                }
                expected = product_sum(n, field, [(1, at[0, 0], at[1, 1]), (-1, at[0, 1], at[1, 0])])
                assert commutator(p, i, j) == expected


def test_elementary_symmetric_shape():
    s = elementary_symmetric(4, 2)
    assert len(s.coeffs) == 6
    assert all(s.coeff(m) == 1 for m in s.coeffs)
    assert all(m.bit_count() == 2 for m in s.coeffs)
    assert elementary_symmetric(3, 0) == P(3, {0: 1})


def test_elementary_symmetric_refuses_large_n_before_enumerating():
    # k = n: a single mask, but each of its n bits costs a big-int OR
    start = time.perf_counter()
    with pytest.raises(IndexOutOfRange, match="variable count 1000000 outside 0..30"):
        elementary_symmetric(10**6, 10**6)
    assert time.perf_counter() - start < 0.5


def test_elementary_symmetric_refuses_a_degree_outside_0_to_n():
    # the degree is checked before the variable count
    for n, k in ((3, 4), (31, 40)):
        with pytest.raises(IndexOutOfRange) as exc:
            elementary_symmetric(n, k)
        assert str(exc.value) == "need 0 <= k <= n, got k=%d, n=%d" % (k, n)


def test_variable_refuses_an_index_outside_1_to_n():
    with pytest.raises(IndexOutOfRange) as exc:
        MultilinearPoly.variable(2, QQ, 3)
    assert str(exc.value) == "variable x3 outside 1..2"


def test_m_poly_is_symmetric_combination():
    assert m_poly(3, 0, 1) == elementary_symmetric(3, 2)
    assert m_poly(3, 2, 3) == P(
        3, {0b111: 2, 0b011: 3, 0b101: 3, 0b110: 3}
    )


def test_family4_coefficients():
    f = family4(2, 4, 5)
    assert f.coeff(0b1001) == 5  # x1 x4
    assert f.coeff(0b0110) == 5  # x2 x3
    assert f.coeff(0b0011) == 2
    assert f.coeff(0b0101) == 4


def test_linear_dependent_examples():
    f = family4(1, 2, 2)
    polys = [
        MultilinearPoly.variable(4, QQ, 1),
        MultilinearPoly.variable(4, QQ, 2),
        f.partial(1),
        f.partial(2),
        MultilinearPoly.constant(4, QQ, 1),
    ]
    dep = linear_dependent(polys)
    assert dep is not None
    acc = MultilinearPoly.zero(4, QQ)
    for coeff, poly in zip(dep, polys):
        acc = acc + poly.scale(coeff)
    assert acc.is_zero()

    assert linear_dependent(
        [MultilinearPoly.constant(2, QQ, 1), MultilinearPoly.variable(2, QQ, 1)]
    ) is None

    p = P(2, {0b11: 3, 0: 1})
    assert linear_dependent([p, p]) == [QQ.one(), QQ.elem(-1)]


def test_linear_dependent_of_nothing_and_of_mixed_variable_counts():
    assert linear_dependent([]) is None
    with pytest.raises(IndexOutOfRange) as exc:
        linear_dependent([MultilinearPoly.variable(2, QQ, 1), MultilinearPoly.variable(3, QQ, 1)])
    assert str(exc.value) == "mixed variable counts in dependence test"


def test_linear_dependent_field_mismatch():
    with pytest.raises(FieldMismatch):
        linear_dependent(
            [MultilinearPoly.variable(2, QQ, 1), MultilinearPoly.variable(2, F2, 1)]
        )


def test_mixed_partials_commute():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(2, 6)
        p = random_poly(rng, n)
        i, j = rng.sample(range(1, n + 1), 2)
        assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_restrict_commutes_with_partial():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(2, 6)
        p = random_poly(rng, n)
        i, j = rng.sample(range(1, n + 1), 2)
        v = random_scalar(rng, QQ)
        assert p.partial(i).restrict(j, v) == p.restrict(j, v).partial(i)


def test_hierarchy_recursions_up_to_ten():
    rng = random.Random(12)
    for n in range(2, 11):
        for _ in range(50):
            a = random_scalar(rng, QQ)
            b = random_scalar(rng, QQ)
            g = random_scalar(rng, QQ)
            mn = m_poly(n, a, b)
            assert mn.restrict(n, g).with_n(n - 1) == m_poly(n - 1, a * g + b, b * g)
            assert mn.partial(n).with_n(n - 1) == m_poly(n - 1, a, b)


def test_restricted_hierarchy_polynomial_keeps_degree():
    rng = random.Random(13)
    for n in range(2, 9):
        b = random_scalar(rng, QQ, nonzero=True)
        a = random_scalar(rng, QQ)
        assert m_poly(n, a, b).restrict(n, 0).degree() == n - 1


def test_format_round_trip_via_repr():
    p = P(3, {0: 1, 0b001: Fraction(-1, 2), 0b110: 3})
    assert format_poly(p) == "1 - 1/2*x1 + 3*x2*x3"


def test_variable_count_cap():
    with pytest.raises(IndexOutOfRange):
        MultilinearPoly(31, QQ, {})
    with pytest.raises(IndexOutOfRange, match=r"^monomial mask 4 outside \[0, 2\^2\)$"):
        MultilinearPoly(2, QQ, {0b100: 1})


def test_sparse_poly_refuses_a_count_outside_the_range():
    for n in (-1, 31, 32):
        with pytest.raises(IndexOutOfRange, match="variable count %d outside 0..30" % n):
            SparsePoly(n, QQ, {})
    with pytest.raises(IndexOutOfRange, match="^exponent vector length 3 != 2$"):
        SparsePoly(2, QQ, {(1, 0, 0): 1})
    with pytest.raises(IndexOutOfRange, match="^individual exponent outside 0..4$"):
        SparsePoly(2, QQ, {(5, 0): 1})


def test_with_n_refuses_a_count_outside_the_range():
    # checked before 1 << n is built, which a negative n cannot be
    p = P(2, {0b11: 1})
    for n in (-1, 31):
        with pytest.raises(IndexOutOfRange, match="variable count %d outside" % n):
            p.with_n(n)
