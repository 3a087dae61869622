"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything here is exact arithmetic; the stated time
limits are asserted too.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import permutations

import pytest

from ropsum import (
    QQ,
    MultilinearPoly,
    elementary_symmetric,
    family4,
    m_poly,
    prime_field,
    sqrt_in_field,
)
from ropsum.decompose import generic, pair_monomials, sympoly4, symmetric_halves
from ropsum.mpoly import commutator
from ropsum.oracle import closure_report, enumerate_rops, min_k, pack, unpack, PackedPoly
from ropsum.recognize import family4_decide, is_rop
from ropsum.rof import evaluate, mrops_witness, validate, verify_against

from helpers import (
    f2_evals_to_coeff_mask,
    f2_rof_summaries,
    product_sum,
    random_linear_form,
    random_poly,
    random_rof,
    random_scalar,
    random_variable_subset,
)

F2 = prime_field(2)


@contextmanager
def criterion(num, label, limit_seconds=None):
    start = time.time()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.time() - start
        print(
            "\nACCEPTANCE %d (%s): %s in %.2fs"
            % (num, label, "PASS" if ok else "FAIL", elapsed)
        )
    if limit_seconds is not None:
        assert elapsed < limit_seconds, (
            "criterion %d exceeded its %.0fs budget: %.1fs"
            % (num, limit_seconds, elapsed)
        )


@pytest.fixture(scope="module")
def class_f2_n3():
    return enumerate_rops(2, 3)


@pytest.fixture(scope="module")
def class_f2_n4():
    return enumerate_rops(2, 4)


@pytest.fixture(scope="module")
def class_f2_n5():
    return enumerate_rops(2, 5)


def _summand_polys(decision):
    return sorted(
        (evaluate(r, 4) for r in decision.witness.summands),
        key=lambda p: sorted(p.coeffs),
    )


def _expected_pair(polys):
    return sorted(polys, key=lambda p: sorted(p.coeffs))


def test_criterion_1_family_decisions():
    with criterion(1, "family decisions on the worked examples", 1.0):
        d = family4_decide(2, 4, 5)
        assert d.outcome == "not_expressible"
        assert [v.value for v in d.d] == [-231, -231, -231]

        def lin(pairs):
            coeffs = {}
            for var, c in pairs:
                coeffs[1 << (var - 1)] = QQ.elem(c)
            return MultilinearPoly(4, QQ, coeffs)

        def pairsum(c, m1, m2):
            return MultilinearPoly(4, QQ, {m1: c, m2: c})

        cases = [
            (
                (2, 2, 3),
                [
                    lin([(1, 1), (4, 1)]).mul_disjoint(lin([(2, 1), (3, 1)])).scale(2),
                    pairsum(3, 0b1001, 0b0110),
                ],
            ),
            (
                (2, -2, 3),
                [
                    lin([(1, 1), (4, -1)]).mul_disjoint(lin([(2, 1), (3, -1)])).scale(2),
                    pairsum(3, 0b1001, 0b0110),
                ],
            ),
            (
                (1, 2, 3),
                [
                    lin([(1, 1), (3, 1)]).mul_disjoint(lin([(2, 1), (4, 1)])),
                    lin([(1, 1), (2, 1)]).mul_disjoint(lin([(3, 1), (4, 1)])).scale(2),
                ],
            ),
        ]
        for params, expected in cases:
            d = family4_decide(*params)
            assert d.outcome == "expressible"
            assert verify_against(d.witness, family4(*params))
            assert _summand_polys(d) == _expected_pair(expected)


def test_criterion_2_hierarchy_desk_scale(class_f2_n3, class_f2_n4, class_f2_n5):
    with criterion(2, "tight hierarchy bounds over F_2 at n=3,4,5", 300.0):
        classes = {3: class_f2_n3, 4: class_f2_n4, 5: class_f2_n5}
        for n, expected in [(3, 2), (4, 2), (5, 3)]:
            target = elementary_symmetric(n, n - 1, F2)
            assert min_k(pack(target), classes[n], 3) == expected

            s = symmetric_halves(n, 0, 1, F2)
            assert len(s.summands) == math.ceil(n / 2) == expected
            assert verify_against(s, target)
            for rof in s.summands:
                assert validate(rof) == []


def test_criterion_3_recognizer_oracle_equivalence(class_f2_n4):
    with criterion(3, "recognizer matches the oracle on all 65536 polynomials", 120.0):
        for v in range(1 << 16):
            poly = unpack(PackedPoly(2, 4, v))
            assert (is_rop(poly) is not None) == (v in class_f2_n4)


def test_criterion_4_derivative_and_multiplicativity_suites(
    class_f2_n3, class_f2_n4
):
    with criterion(4, "derivative closure and multiplicativity agreement"):
        # closure of the F_2 classes under derivatives and restrictions
        for cls in (class_f2_n3, class_f2_n4):
            rep = closure_report(cls)
            assert rep.ok and rep.members_checked == len(cls)

        # every partial derivative of a random rational formula stays
        # recognizable as read-once
        rng = random.Random(404)
        for _ in range(500):
            n = rng.randint(2, 7)
            variables = random_variable_subset(rng, n, rng.randint(2, n))
            t = random_rof(rng, variables, QQ, nonzero_scales=rng.random() < 0.9)
            p = evaluate(t, n)
            for i in variables:
                assert is_rop(p.partial(i)) is not None

        # structural (after constant pruning) == semantic multiplicativity,
        # exhaustively over every F_2 formula on subsets of 4 variables
        n = 4
        for subset, summaries in f2_rof_summaries(n).items():
            allowed = {i + 1 for i in range(n) if subset & (1 << i)}
            for packed_evals, has_plus, _is_const in summaries:
                mask = f2_evals_to_coeff_mask(packed_evals, n)
                coeffs = {m: 1 for m in range(1 << n) if (mask >> m) & 1}
                p = MultilinearPoly(n, F2, coeffs)
                var_list = p.variables()
                assert set(var_list) <= allowed
                semantic = all(
                    not p.partial(i).partial(j).is_zero()
                    for ai, i in enumerate(var_list)
                    for j in var_list[ai + 1 :]
                )
                assert semantic == (not has_plus)


def test_criterion_5_constructive_upper_bounds():
    with criterion(5, "constructive bounds on 200 random inputs per strategy"):
        rng = random.Random(505)

        for _ in range(200):
            n = rng.randint(1, 8)
            p = random_poly(rng, n, QQ, density=rng.uniform(0.2, 0.8))
            if p.is_zero():
                p = p + MultilinearPoly.constant(n, QQ, 1)
            s = pair_monomials(p)
            assert len(s.summands) <= math.ceil(len(p.coeffs) / 2)
            assert verify_against(s, p)

        for _ in range(200):
            n = rng.randint(4, 8)
            p = random_poly(rng, n, QQ, density=rng.uniform(0.2, 0.9))
            s = generic(p)
            assert len(s.summands) <= 3 * 2 ** (n - 4)
            assert verify_against(s, p)
            for rof in s.summands:
                assert validate(rof) == []

        for _ in range(200):
            n = rng.randint(1, 12)
            a = random_scalar(rng, QQ)
            b = random_scalar(rng, QQ, nonzero=True)
            s = symmetric_halves(n, a, b)
            assert len(s.summands) == math.ceil(n / 2)
            assert verify_against(s, m_poly(n, a, b))

        branch_makers = [
            lambda: (random_scalar(rng, QQ), random_scalar(rng, QQ), QQ.zero(), QQ.zero(), random_scalar(rng, QQ)),
            lambda: (random_scalar(rng, QQ), random_scalar(rng, QQ), QQ.zero(), random_scalar(rng, QQ, nonzero=True), random_scalar(rng, QQ)),
            lambda: (lambda a2, a3: (random_scalar(rng, QQ), random_scalar(rng, QQ), a2, a3, a3 * a3 / a2))(
                random_scalar(rng, QQ, nonzero=True), random_scalar(rng, QQ)
            ),
            lambda: (random_scalar(rng, QQ), random_scalar(rng, QQ), random_scalar(rng, QQ, nonzero=True), random_scalar(rng, QQ), random_scalar(rng, QQ)),
        ]
        for i in range(200):
            a0, a1, a2, a3, a4 = branch_makers[i % 4]()
            if i % 4 == 3 and (a2 * a4) == (a3 * a3):
                a4 = a4 + QQ.one()
            s = sympoly4(a0, a1, a2, a3, a4)
            assert len(s.summands) <= 2
            target = MultilinearPoly.zero(4, QQ)
            for k, c in enumerate((a0, a1, a2, a3, a4)):
                target = target + elementary_symmetric(4, k, QQ).scale(c)
            assert verify_against(s, target)


def test_criterion_6_commutator_divisibility_and_witness_identity():
    with criterion(6, "commutator divisibility and the vanishing-derivative witness"):
        rng = random.Random(606)
        for _ in range(500):
            l1 = random_linear_form(rng, 4, (1, 2), QQ)
            l2 = random_linear_form(rng, 4, (3, 4), QQ)
            l3 = random_linear_form(rng, 4, (1, 3), QQ)
            l4 = random_linear_form(rng, 4, (2, 4), QQ)
            f = l1.mul_disjoint(l2) + l3.mul_disjoint(l4)
            # A*D - B*C = l2 * q, q = a0*b1*d2 - a1*a2*l2 - a1*d2*(b0 + b3 x3) - a2*b1*(d0 + d4 x4)
            (a0, a1, a2), b1, d2 = map(l1.coeff, (0, 1, 2)), l3.coeff(1), l4.coeff(2)
            q = MultilinearPoly.constant(4, QQ, a0 * b1 * d2) - l2.scale(a1 * a2)
            q = q - l3.restrict(1, 0).scale(a1 * d2) - l4.restrict(2, 0).scale(a2 * b1)
            assert commutator(f, 1, 2) == product_sum(4, QQ, [(1, q, l2)])

        for _ in range(500):
            n = rng.randint(2, 7)
            variables = random_variable_subset(rng, n, rng.randint(2, n))
            t = random_rof(rng, variables, QQ, multiplicative=True)
            i = rng.choice(variables)
            j, gamma = mrops_witness(t, i)
            assert evaluate(t, n).partial(j).restrict(i, gamma).is_zero()


def test_criterion_7_decision_invariances():
    with criterion(7, "family decision invariances under permutation and scaling"):
        rng = random.Random(707)
        for _ in range(200):
            trip = tuple(random_scalar(rng, QQ) for _ in range(3))
            base = family4_decide(*trip)
            for perm in permutations(trip):
                assert family4_decide(*perm).outcome == base.outcome
            c = random_scalar(rng, QQ, nonzero=True)
            scaled = family4_decide(*(c * t for t in trip))
            assert scaled.outcome == base.outcome
            if base.outcome == "not_expressible":
                assert all(sqrt_in_field(v) is None for v in base.d)
