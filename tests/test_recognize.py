import hashlib
import json
import random
from collections import Counter
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest

from ropsum import (
    QQ,
    MultilinearPoly,
    PreconditionViolated,
    elementary_symmetric,
    family4,
    prime_field,
)
from ropsum import recognize
from ropsum.oracle import enumerate_rops, min_k, pack
from ropsum.recognize import (
    check_c1prime,
    check_c2prime,
    disjoint_factorization,
    family4_decide,
    family_delta_roots,
    interaction_graph,
    is_rop,
    sum2_refute,
)
from ropsum.rof import evaluate, validate, verify_against

from helpers import random_poly, random_rof, random_scalar, random_variable_subset

F2 = prime_field(2)
F7 = prime_field(7)


def P(n, terms, field=QQ):
    return MultilinearPoly(n, field, terms)


# -- interaction graph -------------------------------------------------------


def test_interaction_graph_linear_is_empty():
    g = interaction_graph(P(3, {0b001: 1, 0b010: 1, 0b100: 1}))
    assert g == {1: set(), 2: set(), 3: set()}


def test_interaction_graph_path():
    g = interaction_graph(P(3, {0b011: 1, 0b110: 1}))
    assert g == {1: {2}, 2: {1, 3}, 3: {2}}


def test_interaction_graph_complete_on_family():
    g = interaction_graph(family4(1, 1, 1))
    assert all(g[i] == {1, 2, 3, 4} - {i} for i in range(1, 5))


# -- disjoint factorization --------------------------------------------------


def test_factor_monomial():
    fs = disjoint_factorization(P(2, {0b11: 1}))
    assert [f.variables() for f in fs] == [[1], [2]]
    prod = fs[0].mul_disjoint(fs[1])
    assert prod == P(2, {0b11: 1})


def test_factor_with_constant_parts():
    p = P(3, {0b001: 1, 0b010: 1}).mul_disjoint(P(3, {0b100: 1, 0: 1}))
    fs = disjoint_factorization(p)
    assert len(fs) == 2
    assert fs[0].mul_disjoint(fs[1]) == p


def test_factor_irreducible():
    p = P(3, {0b011: 1, 0b101: 1, 0: 1})
    assert disjoint_factorization(p) == [p]


def test_factor_random_products():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 7)
        cut = rng.randint(1, n - 1)
        left_vars = set(random_variable_subset(rng, n, cut))
        left = MultilinearPoly.zero(n, QQ)
        right = MultilinearPoly.zero(n, QQ)
        while left.is_constant():
            left = MultilinearPoly(
                n,
                QQ,
                {
                    m: random_scalar(rng, QQ)
                    for m in range(1 << n)
                    if all((i + 1) in left_vars for i in range(n) if m & (1 << i))
                    and rng.random() < 0.6
                },
            )
        while right.is_constant():
            right = MultilinearPoly(
                n,
                QQ,
                {
                    m: random_scalar(rng, QQ)
                    for m in range(1 << n)
                    if all((i + 1) not in left_vars for i in range(n) if m & (1 << i))
                    and rng.random() < 0.6
                },
            )
        p = left.mul_disjoint(right)
        fs = disjoint_factorization(p)
        assert len(fs) >= 2
        prod = fs[0]
        for f in fs[1:]:
            prod = prod.mul_disjoint(f)
        assert prod == p


def _all_pairs_blocks(p):
    """Reference blocks: the components of "not separable" over all variable
    pairs, each as a bit mask, ordered by lowest variable."""
    bits = [1 << (v - 1) for v in p.variables()]
    joined = {b: b for b in bits}
    for bi, bj in combinations(bits, 2):
        if not recognize._separable(p.coeffs, bi, bj, p.field):
            joined[bi] |= bj
            joined[bj] |= bi
    blocks, seen = [], 0
    for b in bits:
        if b & seen:
            continue
        comp, todo = 0, [b]
        while todo:
            v = todo.pop()
            if not v & comp:
                comp |= v
                todo += [u for u in bits if u & joined[v]]
        seen |= comp
        blocks.append(comp)
    return blocks


def _random_factor(rng, n, field, group):
    """A random polynomial whose monomials use only the variables in group."""
    gmask = sum(1 << (v - 1) for v in group)
    return MultilinearPoly(
        n,
        field,
        {
            m: random_scalar(rng, field)
            for m in range(1 << n)
            if m & ~gmask == 0 and rng.random() < 0.7
        },
    )


@pytest.mark.parametrize("field", [QQ, prime_field(3), prime_field(101)], ids=str)
def test_factor_blocks_match_all_pairs_components(field):
    rng = random.Random(7)
    for trial in range(120):
        n = rng.randint(2, 7)
        variables = list(range(1, n + 1))
        rng.shuffle(variables)
        if trial % 3 == 0:
            groups = [variables]  # one random factor, usually a single block
        elif trial % 3 == 1:
            groups = [[v] for v in variables]  # one variable per block
        else:
            k = rng.randint(2, min(4, n))
            cuts = sorted(rng.sample(range(1, n), k - 1))
            groups = [variables[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        p = MultilinearPoly.constant(n, field, 1)
        for group in groups:
            factor = MultilinearPoly.constant(n, field, 0)
            while any(not factor.partial(v).coeffs for v in group):
                factor = _random_factor(rng, n, field, group)
            p = p.mul_disjoint(factor)
        factors = disjoint_factorization(p)
        blocks = [sum(1 << (v - 1) for v in f.variables()) for f in factors]
        assert blocks == _all_pairs_blocks(p)
        if trial % 3 == 1:
            assert blocks == sorted(1 << (v - 1) for v in variables)


def test_factor_rejects_constant():
    with pytest.raises(PreconditionViolated):
        disjoint_factorization(P(2, {0: 3}))


def test_is_rop_refuses_an_empty_variable_range():
    with pytest.raises(PreconditionViolated, match="^recognition needs .* n >= 1$"):
        is_rop(MultilinearPoly(0, QQ, {0: 1}))


# -- read-once recognition ---------------------------------------------------


def test_is_rop_work_on_certified_non_rop(monkeypatch):
    # a planted ROP on x1..x7 times S_3^2 on x8..x10: not read-once, since
    # fixing x1..x7 where the ROP is a nonzero constant leaves c * S_3^2
    n = 10
    rop = evaluate(random_rof(random.Random(5), list(range(1, 8)), QQ), n)
    s3 = P(n, {0b0110000000: 1, 0b1010000000: 1, 0b1100000000: 1})
    p = rop.mul_disjoint(s3)

    separable_tests = [0]
    calls = []  # (input map, separable tests, sizes of the returned blocks)
    real_separable, real_factor_blocks = recognize._separable, recognize._factor_blocks

    def separable(*args):
        separable_tests[0] += 1
        return real_separable(*args)

    def factor_blocks(coeffs, field):
        before = separable_tests[0]
        factors = real_factor_blocks(coeffs, field)
        sizes = [reduce(or_, f, 0).bit_count() for f in factors]
        calls.append((frozenset(coeffs.items()), separable_tests[0] - before, sizes))
        return factors

    monkeypatch.setattr(recognize, "_separable", separable)
    monkeypatch.setattr(recognize, "_factor_blocks", factor_blocks)
    assert is_rop(p) is None
    assert calls
    inputs = [key for key, _, _ in calls]
    repeated = len(inputs) - len(set(inputs))
    assert repeated == 0  # no shifted map factored twice
    for _, tests, sizes in calls:
        cross = sum(a * b for a, b in combinations(sizes, 2))
        assert tests <= (sum(sizes) - 1) + cross


def test_is_rop_triangle_is_not():
    assert is_rop(elementary_symmetric(3, 2)) is None


def test_is_rop_product_with_shifts():
    p = P(2, {0b01: 1, 0: 1}).mul_disjoint(P(2, {0b10: 1, 0: 5}))
    w = is_rop(p)
    assert w is not None and evaluate(w, 2) == p


def test_is_rop_top_symmetric_f2():
    assert is_rop(elementary_symmetric(4, 3, F2)) is None


def test_is_rop_accepts_all_bivariate():
    rng = random.Random(3)
    for _ in range(100):
        p = random_poly(rng, 2, QQ, density=0.8)
        assert is_rop(p) is not None


def test_is_rop_on_random_formulas():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 7)
        variables = random_variable_subset(rng, n, rng.randint(1, n))
        t = random_rof(rng, variables, QQ, nonzero_scales=rng.random() < 0.9)
        p = evaluate(t, n)
        w = is_rop(p)
        assert w is not None
        assert evaluate(w, n) == p
        assert validate(w) == []


def test_is_rop_derivatives_stay_recognizable():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(2, 6)
        variables = random_variable_subset(rng, n, rng.randint(2, n))
        t = random_rof(rng, variables, QQ)
        p = evaluate(t, n)
        i = rng.choice(variables)
        assert is_rop(p.partial(i)) is not None


def test_is_rop_matches_oracle_n3():
    from ropsum.oracle import PackedPoly, enumerate_rops, unpack

    cls = enumerate_rops(2, 3)
    for v in range(256):
        poly = unpack(PackedPoly(2, 3, v))
        assert (is_rop(poly) is not None) == (v in cls)


def _oracle_mismatches(p, n, values, cls):
    from ropsum.oracle import PackedPoly, unpack

    return [
        v
        for v in values
        if (is_rop(unpack(PackedPoly(p, n, v))) is not None) != (v in cls)
    ]


@pytest.mark.parametrize("p, n", [(3, 3), (5, 2)])
def test_is_rop_matches_oracle_exhaustive(p, n):
    from ropsum.oracle import enumerate_rops

    cls = enumerate_rops(p, n)
    assert _oracle_mismatches(p, n, range(p ** (1 << n)), cls) == []


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3)])
def test_is_rop_matches_oracle_sampled(p, n):
    # uniform polynomials are almost all non-ROPs, so class members are
    # sampled as well
    from ropsum.oracle import enumerate_rops

    cls = enumerate_rops(p, n)
    rng = random.Random(1000 * p + n)
    values = [rng.randrange(p ** (1 << n)) for _ in range(1000)]
    values += rng.sample(cls.members, 1000)
    assert _oracle_mismatches(p, n, values, cls) == []


# -- restriction-linearity (C1') ---------------------------------------------


def test_c1prime_full_monomial():
    got = check_c1prime(P(4, {0b1111: 1}))
    assert got == (1, 2, QQ.zero(), QQ.zero())


def test_c1prime_family_fails():
    assert check_c1prime(family4(2, 4, 5)) is None
    assert check_c1prime(family4(1, 2, 3)) is None


def test_c1prime_shifted_witness():
    g = P(4, {0b0011: 1, 0b1100: 1, 0b1101: 1})
    i, j, a, b = check_c1prime(g)
    assert (i, j, a, b) == (1, 2, QQ.elem(-1), QQ.zero())
    restricted = g.restrict(i, a).restrict(j, b)
    assert restricted.degree() <= 1


def test_c1prime_witness_always_linearizes():
    rng = random.Random(15)
    for _ in range(200):
        g = random_poly(rng, 4, QQ, density=0.45)
        got = check_c1prime(g)
        if got is not None:
            i, j, a, b = got
            assert g.restrict(i, a).restrict(j, b).degree() <= 1


def test_c1prime_exhaustive_agreement_small_field():
    rng = random.Random(16)
    for p in (2, 3, 5):
        field = prime_field(p)
        for _ in range(60):
            g = random_poly(rng, 4, field, density=0.5)
            got = check_c1prime(g)
            brute = None
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    for a in range(p):
                        for b in range(p):
                            if (
                                g.restrict(i, a).restrict(j, b).degree() <= 1
                            ) and brute is None:
                                brute = (i, j, a, b)
            assert (got is not None) == (brute is not None)
    # arity is enforced
    with pytest.raises(
        PreconditionViolated,
        match="^restriction-linearity check needs exactly 4 variables$",
    ):
        check_c1prime(P(3, {0b111: 1}))


# -- derivative dependence (C2') ----------------------------------------------


def test_c2prime_family_examples():
    got = check_c2prime(family4(1, 2, 2))
    assert got is not None and (got[0], got[1]) == (1, 2)
    assert check_c2prime(family4(1, 2, 3)) is None


def test_c2prime_on_single_variable():
    assert check_c2prime(P(4, {0b0001: 1})) is not None


def test_c2prime_dependence_verifies():
    g = family4(3, 5, 5)
    i, j, dep = check_c2prime(g)
    polys = [
        MultilinearPoly.variable(4, QQ, i),
        MultilinearPoly.variable(4, QQ, j),
        g.partial(i),
        g.partial(j),
        MultilinearPoly.constant(4, QQ, 1),
    ]
    acc = MultilinearPoly.zero(4, QQ)
    for c, poly in zip(dep, polys):
        acc = acc + poly.scale(c)
    assert acc.is_zero()
    assert any(not c.is_zero() for c in dep)


# -- the family decision -----------------------------------------------------


def test_delta_roots_examples():
    assert family_delta_roots(QQ.elem(1), QQ.elem(2), QQ.elem(3)) == [QQ.elem(-1)]
    assert family_delta_roots(QQ.elem(2), QQ.elem(4), QQ.elem(5)) == []
    assert family_delta_roots(QQ.elem(1), QQ.elem(1), QQ.elem(1)) == []


def test_delta_roots_satisfy_equation():
    rng = random.Random(18)
    found = 0
    for _ in range(300):
        a = random_scalar(rng, QQ, nonzero=True)
        b = random_scalar(rng, QQ, nonzero=True)
        c = random_scalar(rng, QQ, nonzero=True)
        for t in family_delta_roots(a, b, c):
            found += 1
            lhs = -(t * t) * b * c + t * (a * a - b * b - c * c) - b * c
            assert lhs.is_zero()
    assert found > 10


def test_delta_roots_preconditions():
    with pytest.raises(PreconditionViolated):
        family_delta_roots(QQ.elem(1), QQ.zero(), QQ.elem(1))
    with pytest.raises(PreconditionViolated, match="^root formula divides by 2$"):
        family_delta_roots(F2.elem(1), F2.elem(1), F2.elem(1))


def test_family_decision_not_expressible_paper_point():
    d = family4_decide(2, 4, 5)
    assert d.outcome == "not_expressible"
    assert [v.value for v in d.d] == [-231, -231, -231]


def test_family_decision_c3_witness():
    d = family4_decide(1, 2, 3)
    assert d.outcome == "expressible" and d.branch == "C3-false"
    assert (d.tau, d.delta, d.mu) == (QQ.zero(), QQ.elem(-1), QQ.elem(-1))
    assert verify_against(d.witness, family4(1, 2, 3))


def test_family_decision_c2_witnesses():
    for params in [(2, 2, 3), (2, -2, 3)]:
        d = family4_decide(*params)
        assert d.outcome == "expressible" and d.branch == "C2-false"
        assert verify_against(d.witness, family4(*params))


def test_family_decision_c1_split():
    d = family4_decide(0, 1, 1)
    assert d.outcome == "expressible" and d.branch == "C1-false"
    assert len(d.witness.summands) == 2
    d = family4_decide(0, 0, 3)
    assert len(d.witness.summands) == 1
    d = family4_decide(0, 0, 0)
    assert len(d.witness.summands) == 0


def test_family_decision_small_prime_field():
    d = family4_decide(2, 4, 5, F7)
    assert d.outcome == "expressible" and d.branch == "C2-false"
    assert verify_against(d.witness, family4(2, 4, 5, F7))


def test_family_decision_rejects_char2():
    with pytest.raises(
        PreconditionViolated, match=r"^the construction divides by 2\*beta\*gamma$"
    ):
        family4_decide(1, 1, 1, F2)


def test_family_decision_permutation_invariance():
    from itertools import permutations

    rng = random.Random(19)
    for _ in range(60):
        trip = tuple(random_scalar(rng, QQ) for _ in range(3))
        outcomes = {
            family4_decide(*perm).outcome for perm in permutations(trip)
        }
        assert len(outcomes) == 1


def test_family_decision_scaling_invariance():
    rng = random.Random(20)
    for _ in range(60):
        trip = tuple(random_scalar(rng, QQ) for _ in range(3))
        c = random_scalar(rng, QQ, nonzero=True)
        base = family4_decide(*trip).outcome
        scaled = family4_decide(*(c * t for t in trip)).outcome
        assert base == scaled


def test_family_witnesses_always_verify():
    rng = random.Random(23)
    for _ in range(150):
        trip = tuple(random_scalar(rng, QQ) for _ in range(3))
        d = family4_decide(*trip)
        if d.outcome == "expressible":
            assert len(d.witness.summands) <= 2
            assert verify_against(d.witness, family4(*trip))
        else:
            assert all(
                __import__("ropsum").sqrt_in_field(v) is None for v in d.d
            )


# -- the general 4-variable entrypoint ----------------------------------------


def test_refute2_family_delegation():
    assert sum2_refute(family4(2, 4, 5)).outcome == "not_expressible"
    assert sum2_refute(family4(0, 1, 1)).outcome == "expressible"


def test_refute2_full_monomial_inconclusive():
    d = sum2_refute(P(4, {0b1111: 1}))
    assert d.outcome == "inconclusive"
    assert "C1'" in d.note


def test_refute2_requires_four_variables():
    with pytest.raises(
        PreconditionViolated, match="^the decision operates on 4-variable polynomials$"
    ):
        sum2_refute(P(3, {0b111: 1}))


def test_refute2_out_of_scope_note():
    # family-like but with a linear extra term: C1' and C2' both fail
    g = family4(2, 4, 5) + P(4, {0b0001: 1})
    d = sum2_refute(g)
    assert d.outcome == "inconclusive"


def test_decision_json_shape():
    d = family4_decide(2, 4, 5)
    j = d.to_json_dict()
    assert j["outcome"] == "not_expressible"
    assert j["d"] == ["-231", "-231", "-231"]
    j = family4_decide(1, 2, 3).to_json_dict()
    assert j["outcome"] == "expressible" and len(j["witness"]) == 2
    assert j["params"] == {"tau": "0", "delta": "-1", "mu": "-1"}


# -- pinned outputs of the family decision ------------------------------------
#
# Digests of the decisions' JSON, computed before the family witnesses were
# built with decompose's formula builders; any change to a witness, a
# parameter or a note changes them.

PIN_FIELDS = [QQ, prime_field(3), prime_field(5), prime_field(7), prime_field(101)]
PIN_WEIGHTS = range(-4, 5)
FAMILY_DIGEST = "cbac73dbd8f7dae25bbb817bf4727f6a699c944f3d077408f4cd8fffea44a3c9"
NEAR_MISS_DIGEST = "eb8739ccd85f5782cd3b0650d078f74ec6556f1d5178a1effcf937139ae1a537"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_family_decisions_are_pinned():
    lines, reached = [], set()
    for field in PIN_FIELDS:
        for a, b, c in product(PIN_WEIGHTS, repeat=3):
            d = family4_decide(a, b, c, field)
            lines.append(json.dumps([str(field), a, b, c, d.to_json_dict()]))
            if d.branch == "C2-false":
                # which equal-square pair C2 picks: (a, b), (b, c) or (c, a)
                a2, b2, c2 = (field.elem(w) * field.elem(w) for w in (a, b, c))
                reached.add((d.branch, [a2 == b2, b2 == c2, c2 == a2].index(True)))
            else:
                reached.add((d.branch, d.outcome))
    # d_1 = d_2 = d_3, so C3 has one construction to reach
    assert reached == {
        ("C1-false", "expressible"),
        ("C2-false", 0),
        ("C2-false", 1),
        ("C2-false", 2),
        ("C3-false", "expressible"),
        (None, "not_expressible"),
    }
    assert _digest(lines) == FAMILY_DIGEST


def test_sum2_refute_near_misses_are_pinned():
    # one more x_S on a family polynomial: an extra monomial for the ten S
    # outside the family's support, an unequal pair for the six inside it;
    # neither is the family shape, so neither reaches family4_decide
    lines = []
    for field in PIN_FIELDS:
        for a, b, c in product((-2, 0, 1, 3), repeat=3):
            g = family4(a, b, c, field)
            for m in range(16):
                d = sum2_refute(g + P(4, {m: 1}, field))
                assert d.outcome == "inconclusive"
                lines.append(json.dumps([str(field), a, b, c, m, d.to_json_dict()]))
    assert _digest(lines) == NEAR_MISS_DIGEST


def test_family_decision_agrees_with_the_oracle_on_f3():
    # expressible exactly when the exhaustive search finds at most two
    # summands, and never with fewer summands than it proves necessary
    F3 = prime_field(3)
    cls = enumerate_rops(3, 4)
    found = Counter()
    for a, b, c in product(range(3), repeat=3):
        target = family4(a, b, c, F3)
        k = min_k(pack(target), cls, 2)
        d = family4_decide(a, b, c, F3)
        found[k] += 1
        assert (d.outcome == "expressible") == (k is not None)
        # the zero target is the empty sum; the search starts at k = 1
        assert len(d.witness.summands) >= (0 if target.is_zero() else k)
    assert found == {1: 19, 2: 8}
