import hashlib
import itertools
import json
import math
import random

import pytest

from ropsum import (
    QQ,
    MultilinearPoly,
    PreconditionViolated,
    elementary_symmetric,
    m_poly,
    prime_field,
)
from ropsum.decompose import _bivariate_rof, generic, pair_monomials, sympoly4, symmetric_halves
from ropsum.rof import ADD, MUL, Gate, Leaf, evaluate, print_rof, validate, verify_against

from helpers import random_poly, random_scalar

F2 = prime_field(2)
F5 = prime_field(5)


def P(n, terms, field=QQ):
    return MultilinearPoly(n, field, terms)


def assert_good(s, target, max_count):
    assert verify_against(s, target)
    assert len(s.summands) <= max_count
    for rof in s.summands:
        assert validate(rof) == []


# -- pair_monomials ------------------------------------------------------------


def test_pairing_disjoint_supports():
    p = P(4, {0b1001: 2, 0b0110: 3})
    s = pair_monomials(p)
    assert_good(s, p, 1)


def test_pairing_shared_core():
    p = P(4, {0b0111: 1, 0b1110: 1})  # x1x2x3 + x2x3x4
    s = pair_monomials(p)
    assert_good(s, p, 1)
    # the single tree multiplies the shared core x2 x3 into (x1 + x4)
    assert "add" in print_rof(s.summands[0])


def test_pairing_symmetric_count():
    p = elementary_symmetric(5, 4)
    s = pair_monomials(p)
    assert len(s.summands) == 3
    assert_good(s, p, 3)


def test_pairing_nested_and_constant_monomials():
    p = P(3, {0: 4, 0b011: 2, 0b111: 5})
    s = pair_monomials(p)
    assert_good(s, p, 2)


def test_pairing_respects_ceiling_bound():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 8)
        p = random_poly(rng, n, QQ, density=0.4)
        if p.is_zero():
            continue
        s = pair_monomials(p)
        assert_good(s, p, math.ceil(len(p.coeffs) / 2))


def test_pairing_of_zero_is_the_empty_sum():
    zero = MultilinearPoly(3, QQ, {})
    s = pair_monomials(zero)
    assert s.summands == () and verify_against(s, zero)


# -- generic --------------------------------------------------------------------


def test_generic_bivariate_single_summand():
    rng = random.Random(32)
    for _ in range(100):
        p = random_poly(rng, 2, QQ, density=0.8)
        if p.is_zero():
            continue
        s = generic(p)
        assert_good(s, p, 1)


def test_generic_no_quadratic_branch():
    p = P(4, {0: 1, 0b0001: 1, 0b0111: 1, 0b1101: 2, 0b1111: 3})
    s = generic(p)
    assert_good(s, p, 3)


# the quadratic masks in the order generic picks its pivot
QUADRATICS = (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)


def _base4_block(rng, field, case):
    """Coefficients on x1..x4 whose first quadratic is QUADRATICS[case], or
    with no quadratic for case 6; later quadratics appear at random, and
    every other entry is nonzero with probability 3/4."""
    block = {}
    for mask in range(16):
        if mask in QUADRATICS:
            rank = QUADRATICS.index(mask)
            if rank < case or (rank > case and rng.random() < 0.5):
                continue
        elif rng.random() < 0.25:
            continue
        block[mask] = random_scalar(rng, field, nonzero=True)
    return block


def test_generic_pivot_branch_every_quadratic():
    # exercise each possible first nonzero quadratic coefficient
    for pair_mask in QUADRATICS:
        p = P(4, {pair_mask: 2, 0b1111: 1, 0b0001: 3})
        s = generic(p)
        assert_good(s, p, 3)
    # and each of the seven base-4 cases, with random cubic and quartic
    # entries, alone and as the blocks of n = 5 and 6
    rng = random.Random(71)
    for field in (QQ, F2, prime_field(3), prime_field(10007)):
        for case in range(7):
            for _ in range(8):
                p = P(4, _base4_block(rng, field, case), field)
                assert_good(generic(p), p, 3)
            for n in (5, 6):
                coeffs = {}
                for high in range(1 << (n - 4)):
                    block = _base4_block(rng, field, (case + high) % 7)
                    coeffs.update({high << 4 | mask: c for mask, c in block.items()})
                p = P(n, coeffs, field)
                assert_good(generic(p), p, 3 << (n - 4))


def test_bivariate_rof_every_branch():
    """a + b x_u + c x_v + d x_u x_v from raw values, in each field kind and
    with u > v as well: each branch gives its shape, and zero gives None."""
    rng = random.Random(72)
    nonzero, free, zero = "nonzero", "free", "zero"
    # (a, b, c, d), and the gate op or the variable of the leaf
    branches = [
        ((free, free, free, nonzero), MUL),
        ((free, nonzero, nonzero, zero), ADD),
        ((free, nonzero, zero, zero), "u"),
        ((free, zero, nonzero, zero), "v"),
        ((nonzero, zero, zero, zero), "u"),
        ((zero, zero, zero, zero), None),
    ]
    for field in (QQ, F2, prime_field(3), prime_field(10007)):

        def draw(kind):
            return field.zero() if kind == zero else random_scalar(rng, field, kind == nonzero)

        for u, v in ((1, 2), (2, 4), (4, 3)):
            for kinds, shape in branches:
                for _ in range(4):
                    a, b, c, d = (draw(kind) for kind in kinds)
                    rof = _bivariate_rof(u, v, a.value, b.value, c.value, d.value, field)
                    if shape is None:
                        assert rof is None
                        continue
                    if shape in (ADD, MUL):
                        assert isinstance(rof, Gate) and rof.op == shape
                    else:
                        assert isinstance(rof, Leaf) and rof.var == {"u": u, "v": v}[shape]
                    assert validate(rof) == [] and rof.alpha.field == field
                    bu, bv = 1 << (u - 1), 1 << (v - 1)
                    assert evaluate(rof, 4) == P(4, {0: a, bu: b, bv: c, bu | bv: d}, field)


def test_generic_counts_by_arity():
    rng = random.Random(33)
    for n, bound in [(1, 1), (2, 1), (3, 2), (4, 3), (5, 6), (6, 12), (7, 24), (8, 48)]:
        for _ in range(25):
            p = random_poly(rng, n, QQ, density=0.6)
            if p.is_zero():
                continue
            s = generic(p)
            assert_good(s, p, bound)


def test_generic_over_prime_fields():
    rng = random.Random(34)
    for field in (F2, F5):
        for _ in range(50):
            p = random_poly(rng, 5, field, density=0.6)
            s = generic(p)
            assert_good(s, p, 6)


def test_generic_zero_gives_empty_sum():
    assert len(generic(MultilinearPoly(4, QQ, {})).summands) == 0


def test_pairing_and_generic_refuse_an_empty_variable_range():
    # a constant on n = 0 variables has no leaf to sit on
    one = MultilinearPoly(0, QQ, {0: 1})
    with pytest.raises(PreconditionViolated, match="^monomial pairing needs .* n >= 1$"):
        pair_monomials(one)
    with pytest.raises(PreconditionViolated, match="^decomposition needs .* n >= 1$"):
        generic(one)


# -- symmetric halves -----------------------------------------------------------


def test_symmetric_halves_small_even():
    s = symmetric_halves(4, 0, 1)
    assert len(s.summands) == 2
    assert_good(s, elementary_symmetric(4, 3), 2)


def test_symmetric_halves_small_odd():
    s = symmetric_halves(5, 0, 1)
    assert len(s.summands) == 3
    assert_good(s, elementary_symmetric(5, 4), 3)


def test_symmetric_halves_two_vars():
    s = symmetric_halves(2, 0, 1)
    assert len(s.summands) == 1


def test_symmetric_halves_exact_count_up_to_twelve():
    rng = random.Random(35)
    for n in range(1, 13):
        for _ in range(20):
            a = random_scalar(rng, QQ)
            b = random_scalar(rng, QQ, nonzero=True)
            s = symmetric_halves(n, a, b)
            assert len(s.summands) == math.ceil(n / 2)
            assert_good(s, m_poly(n, a, b), math.ceil(n / 2))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("field", [QQ, prime_field(3), prime_field(10007)], ids=str)
def test_symmetric_halves_count_table(field, n):
    # ceil(n/2) with beta != 0, one formula for alpha*S_n^n alone, and the
    # empty sum for the zero target, at every parity
    for a in (-1, 0, 1, 2):
        for b in (-1, 0, 1, 2):
            s = symmetric_halves(n, a, b, field)
            if b:
                expected = math.ceil(n / 2)
            else:
                expected = 1 if a else 0
            assert len(s.summands) == expected, (a, b)
            assert_good(s, m_poly(n, a, b, field), expected)


def test_symmetric_halves_f2():
    s = symmetric_halves(5, 0, 1, F2)
    assert len(s.summands) == 3
    assert_good(s, elementary_symmetric(5, 4, F2), 3)
    s = symmetric_halves(4, 1, 1, F2)
    assert_good(s, m_poly(4, 1, 1, F2), 2)


# -- weighted symmetric combinations ---------------------------------------------


def combo(field, a0, a1, a2, a3, a4):
    out = MultilinearPoly(4, field, {})
    for k, c in enumerate((a0, a1, a2, a3, a4)):
        out = out + elementary_symmetric(4, k, field).scale(c)
    return out


def test_sympoly4_no_quadratic_no_cubic():
    s = sympoly4(2, 3, 0, 0, 5)
    assert_good(s, combo(QQ, 2, 3, 0, 0, 5), 2)


def test_sympoly4_cubic_row_matches_expected_shape():
    s = sympoly4(0, 1, 0, 1, 0)
    target = combo(QQ, 0, 1, 0, 1, 0)
    assert_good(s, target, 2)
    # both summands multiply a (1 + product) block into a two-variable sum
    for rof in s.summands:
        assert evaluate(rof, 4).degree() == 3


def test_sympoly4_balanced_row():
    s = sympoly4(1, 1, 1, 1, 1)
    assert_good(s, combo(QQ, 1, 1, 1, 1, 1), 2)


def test_sympoly4_general_row():
    s = sympoly4(1, 2, 3, 4, 5)
    assert_good(s, combo(QQ, 1, 2, 3, 4, 5), 2)


def test_sympoly4_all_cases_random():
    rng = random.Random(36)
    for _ in range(300):
        coeffs = [random_scalar(rng, QQ) for _ in range(5)]
        s = sympoly4(*coeffs)
        assert_good(s, combo(QQ, *coeffs), 2)


def test_sympoly4_prime_field():
    rng = random.Random(37)
    for _ in range(100):
        coeffs = [random_scalar(rng, F5) for _ in range(5)]
        s = sympoly4(*coeffs, field=F5)
        assert_good(s, combo(F5, *coeffs), 2)


def test_sympoly4_every_combination_over_f2():
    # the case table divides only by a2, a3 and a2*a4 - a3^2, so F_2 needs
    # no refusal
    for coeffs in itertools.product(range(2), repeat=5):
        s = sympoly4(*coeffs, field=F2)
        assert_good(s, combo(F2, *coeffs), 2)


def test_strategies_build_from_coefficients_and_expand_once(monkeypatch):
    """generic, pair_monomials, symmetric_halves and sympoly4 build their
    formulas straight from coefficients: no polynomial ring operation, and
    one expansion of the sum, the final check."""
    import ropsum.decompose as decompose_module
    import ropsum.rof as rof_module

    ring_calls = []
    for name in ("partial", "restrict", "__add__", "__sub__", "scale"):
        def spy(*args, _name=name, _original=getattr(MultilinearPoly, name)):
            ring_calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(MultilinearPoly, name, spy)
    expansions = []

    def counting_sum_evaluate(s, _original=rof_module.sum_evaluate):
        expansions.append(len(s.summands))
        return _original(s)

    monkeypatch.setattr(rof_module, "sum_evaluate", counting_sum_evaluate)
    # also counted when a strategy reads the name from its own module
    monkeypatch.setattr(decompose_module, "sum_evaluate", counting_sum_evaluate, raising=False)

    rng = random.Random(47)
    calls = []
    for field in (QQ, F5, prime_field(10007)):
        for n in (1, 2, 3, 4, 5, 7, 9):
            p = random_poly(rng, n, field, density=0.6)
            calls += [lambda p=p: generic(p), lambda p=p: pair_monomials(p)]
        for n in range(1, 10):
            for beta in (0, 3):
                calls.append(lambda n=n, b=beta, field=field: symmetric_halves(n, 2, b, field))
        # every row of the case table: a2 = a3 = 0; a2 = 0; a2*a4 = a3^2; general
        for coeffs in ((1, 2, 0, 0, 3), (1, 2, 0, 3, 4), (1, 3, 1, 1, 1), (1, 2, 3, 4, 5)):
            calls.append(lambda coeffs=coeffs, field=field: sympoly4(*coeffs, field=field))
    for call in calls:
        ring_calls.clear()
        expansions.clear()
        call()
        assert ring_calls == []
        assert len(expansions) == 1


# -- pinned outputs ---------------------------------------------------------------
#
# The digest of every summand's text and three verify_against answers (the
# target, the target plus 1, a random polynomial) over a fixed-seed corpus of
# the four strategies, computed before evaluation moved to raw coefficient
# maps; any change to a witness or an answer changes it.

CORPUS_FIELDS = [QQ, F2, prime_field(3), F5, prime_field(10007)]
CORPUS_SIZE = 1480
CORPUS_DIGEST = "1d6a7959bcca5104b00d2c3f6d85199f6663d7e977d5d7364aa0aff8bb7aa747"


def _decomposition_corpus():
    rng = random.Random(4242)
    lines = []

    def record(name, s, target):
        others = (
            target + MultilinearPoly(target.n, target.field, {0: 1}),
            random_poly(rng, target.n, target.field, 0.5),
        )
        answers = [verify_against(s, t) for t in (target,) + others]
        text = [print_rof(rof) for rof in s.summands]
        lines.append(json.dumps([name, str(target.field), target.n, text, answers]))

    for field in CORPUS_FIELDS:
        for n in range(1, 8):
            for density in (0.3, 0.8):
                for _ in range(8):
                    p = random_poly(rng, n, field, density)
                    record("generic", generic(p), p)
                    record("pair_monomials", pair_monomials(p), p)
        for n in range(1, 11):
            for _ in range(4):
                a, b = random_scalar(rng, field), random_scalar(rng, field)
                record("symmetric_halves", symmetric_halves(n, a, b, field), m_poly(n, a, b, field))
        if field.p != 2:
            for _ in range(40):
                coeffs = [
                    random_scalar(rng, field) if rng.random() < 0.6 else field.zero()
                    for _ in range(5)
                ]
                record("sympoly4", sympoly4(*coeffs, field=field), combo(field, *coeffs))
    return lines


def test_decompositions_are_pinned():
    lines = _decomposition_corpus()
    assert len(lines) == CORPUS_SIZE
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CORPUS_DIGEST


# A second pinned corpus for what the first misses: generic and
# pair_monomials at n = 8..10, where every block of generic has high
# variables, and sympoly4 over F_2, all 32 combinations.  The digest was
# computed before the builders moved to raw field values.

WIDE_CORPUS_SIZE = 122
WIDE_CORPUS_DIGEST = "e4028b582853972b220840d4776d70a7542613bd5a9807a020f82328acdd1a54"


def _wide_decomposition_corpus():
    rng = random.Random(4343)
    lines = []

    def record(name, s, target):
        text = [print_rof(rof) for rof in s.summands]
        lines.append(json.dumps([name, str(target.field), target.n, text]))

    for field in CORPUS_FIELDS:
        for n in (8, 9, 10):
            for density in (0.15, 0.4, 0.9):
                p = random_poly(rng, n, field, density)
                record("generic", generic(p), p)
                record("pair_monomials", pair_monomials(p), p)
    for coeffs in itertools.product(range(2), repeat=5):
        record("sympoly4", sympoly4(*coeffs, field=F2), combo(F2, *coeffs))
    return lines


def test_wide_decompositions_are_pinned():
    lines = _wide_decomposition_corpus()
    assert len(lines) == WIDE_CORPUS_SIZE
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WIDE_CORPUS_DIGEST
