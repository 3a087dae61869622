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
    RopsumError,
    elementary_symmetric,
    family4,
    prime_field,
)
from ropsum import recognize
from ropsum.mpoly import _bits, _commutator_raw
from ropsum.oracle import enumerate_rops, min_k, pack
from ropsum.recognize import Sum2Decision, family4_decide, is_rop, sum2_refute
from ropsum.rof import ADD, MUL, Gate, evaluate, leaf_vars, print_rof, validate, verify_against

from helpers import random_poly, random_rof, random_scalar, random_variable_subset, variables_of

F2 = prime_field(2)
F7 = prime_field(7)


def P(n, terms, field=QQ):
    return MultilinearPoly(n, field, terms)


# -- additive split ---------------------------------------------------------


def _components(p):
    """The connected components of the graph d_i d_j p != 0 on p's
    variables, each as a sorted list, ordered by lowest variable."""
    comp = {i: {i} for i in variables_of(p)}
    for i, j in combinations(variables_of(p), 2):
        if comp[i] is not comp[j] and not p.partial(i).partial(j).is_zero():
            merged = comp[i] | comp[j]
            for v in merged:
                comp[v] = merged
    return sorted({tuple(sorted(c)) for c in comp.values()})


def test_is_rop_sums_one_summand_per_component_in_order_of_lowest_variable():
    # sums of planted ROPs on disjoint variable blocks, plus a constant:
    # the witness's top ADD chain has one summand per component
    rng = random.Random(2828)
    most = 0
    for field in (QQ, F2, prime_field(3), prime_field(101)):
        for _ in range(40):
            n = rng.randint(2, 9)
            used = rng.sample(range(1, n + 1), rng.randint(1, n))
            cuts = sorted(rng.sample(range(1, len(used)), rng.randint(0, len(used) - 1)))
            p = P(n, {0: random_scalar(rng, field)}, field)
            for a, b in zip([0] + cuts, cuts + [len(used)]):
                p = p + evaluate(random_rof(rng, sorted(used[a:b]), field), n)
            w = is_rop(p)
            summands = []
            while isinstance(w, Gate) and w.op == ADD:
                assert w.alpha == field.one() and w.beta.is_zero()
                summands.append(w.left)
                w = w.right
            summands.append(w)
            components = _components(p)
            assert [tuple(sorted(leaf_vars(s))) for s in summands] == components
            most = max(most, len(components))
    assert most >= 4


# -- disjoint factorization --------------------------------------------------


def _factors(p):
    """recognize._factor_blocks of p, each block as a polynomial on p's range."""
    blocks = recognize._factor_blocks(p.coeffs, p.field)
    return [MultilinearPoly(p.n, p.field, b) for b in blocks]


def test_factor_monomial():
    fs = _factors(P(2, {0b11: 1}))
    assert [variables_of(f) for f in fs] == [[1], [2]]
    prod = fs[0].mul_disjoint(fs[1])
    assert prod == P(2, {0b11: 1})


def test_factor_with_constant_parts():
    p = P(3, {0b001: 1, 0b010: 1}).mul_disjoint(P(3, {0b100: 1, 0: 1}))
    fs = _factors(p)
    assert len(fs) == 2
    assert fs[0].mul_disjoint(fs[1]) == p


def test_factor_irreducible():
    p = P(3, {0b011: 1, 0b101: 1, 0: 1})
    assert _factors(p) == [p]


def test_factor_random_products():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 7)
        cut = rng.randint(1, n - 1)
        left_vars = set(random_variable_subset(rng, n, cut))
        left = MultilinearPoly(n, QQ, {})
        right = MultilinearPoly(n, QQ, {})
        while not left.var_mask():
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
        while not right.var_mask():
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
        fs = _factors(p)
        assert len(fs) >= 2
        prod = fs[0]
        for f in fs[1:]:
            prod = prod.mul_disjoint(f)
        assert prod == p


def _all_pairs_blocks(p):
    """Reference blocks: the components of the pairs with a nonzero
    commutator, over all variable pairs, each as a bit mask, ordered by
    lowest variable."""
    bits = [1 << (v - 1) for v in variables_of(p)]
    joined = {b: b for b in bits}
    for bi, bj in combinations(bits, 2):
        if _commutator_raw(p.coeffs, bi, bj, p.field)[0]:
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
        p = P(n, {0: 1}, field)
        for group in groups:
            factor = P(n, {}, field)
            while any(not factor.partial(v).coeffs for v in group):
                factor = _random_factor(rng, n, field, group)
            p = p.mul_disjoint(factor)
        factors = _factors(p)
        blocks = [f.var_mask() for f in factors]
        assert blocks == _all_pairs_blocks(p)
        # the linked pairs form a clique on each block: if A*D = B*C for
        # x_i, x_j, then f = (a' + b' x_i)(g + c x_j), and multilinearity
        # makes those two factors variable-disjoint, so x_i and x_j lie in
        # different blocks
        for block in blocks:
            for bi, bj in combinations(_bits(block), 2):
                assert _commutator_raw(p.coeffs, bi, bj, field)[0]
        if trial % 3 == 1:
            assert blocks == sorted(1 << (v - 1) for v in variables)


def test_is_rop_refuses_an_empty_variable_range():
    with pytest.raises(PreconditionViolated, match="^recognition needs .* n >= 1$"):
        is_rop(MultilinearPoly(0, QQ, {0: 1}))


# -- read-once recognition ---------------------------------------------------


def _certified_non_rop():
    # a planted ROP on x1..x7 times S_3^2 on x8..x10: not read-once, since
    # fixing x1..x7 where the ROP is a nonzero constant leaves c * S_3^2
    n = 10
    rop = evaluate(random_rof(random.Random(5), list(range(1, 8)), QQ), n)
    s3 = P(n, {0b0110000000: 1, 0b1010000000: 1, 0b1100000000: 1})
    return rop.mul_disjoint(s3)


def test_is_rop_work_on_certified_non_rop(monkeypatch):
    p = _certified_non_rop()

    pair_tests = [0]
    calls = []  # (input map, pair tests, sizes of the returned blocks)
    real_commutator, real_factor_blocks = recognize._commutator_raw, recognize._factor_blocks

    def commutator(*args):
        pair_tests[0] += 1
        return real_commutator(*args)

    def factor_blocks(coeffs, field):
        before = pair_tests[0]
        factors = real_factor_blocks(coeffs, field)
        sizes = [reduce(or_, f, 0).bit_count() for f in factors]
        calls.append((frozenset(coeffs.items()), pair_tests[0] - before, sizes))
        return factors

    monkeypatch.setattr(recognize, "_commutator_raw", commutator)
    monkeypatch.setattr(recognize, "_factor_blocks", factor_blocks)
    assert is_rop(p) is None
    assert calls
    inputs = [key for key, _, _ in calls]
    repeated = len(inputs) - len(set(inputs))
    assert repeated == 0  # no shifted map factored twice
    for _, tests, sizes in calls:
        cross = sum(a * b for a, b in combinations(sizes, 2))
        assert tests <= (sum(sizes) - 1) + cross


def test_is_rop_decides_a_node_at_its_first_passing_edge(monkeypatch):
    # the shift of a top product gate is unique, so a multiplicative node
    # factors f - beta once, at the first pair that passes the identity, and
    # tests no pair after it; every pair it tests holds its lowest variable
    p = _certified_non_rop()
    frames = []  # per _multiplicative_split call: [factorizations, pairs tested after one]
    stack, factoring, pairs = [], [0], []
    real_split = recognize._multiplicative_split
    real_factor_blocks = recognize._factor_blocks
    real_commutator = recognize._commutator_raw

    def split(coeffs, a, field):
        vmask = reduce(or_, coeffs)
        assert a == vmask & -vmask
        stack.append([0, 0, a])
        frames.append(stack[-1])
        try:
            return real_split(coeffs, a, field)
        finally:
            stack.pop()

    def commutator(coeffs, bi, bj, field):
        if not factoring[0]:  # a pair test of the node, not a block test
            pairs.append((stack[-1][2], bi, bj))
            if stack[-1][0]:
                stack[-1][1] += 1
        return real_commutator(coeffs, bi, bj, field)

    def factor_blocks(coeffs, field):
        stack[-1][0] += 1
        factoring[0] += 1
        try:
            return real_factor_blocks(coeffs, field)
        finally:
            factoring[0] -= 1

    monkeypatch.setattr(recognize, "_multiplicative_split", split)
    monkeypatch.setattr(recognize, "_commutator_raw", commutator)
    monkeypatch.setattr(recognize, "_factor_blocks", factor_blocks)
    assert is_rop(p) is None
    assert any(factorizations for factorizations, _, _ in frames)
    assert all(factorizations <= 1 for factorizations, _, _ in frames)
    assert [late for _, late, _ in frames if late] == []
    assert pairs and all(bi == a < bj for a, bi, bj in pairs)


def test_is_rop_refuses_an_unfactored_passing_edge(monkeypatch):
    # a passing edge splits f - beta in two at least; one block back would
    # otherwise recurse on f itself until RecursionError
    monkeypatch.setattr(recognize, "_factor_blocks", lambda coeffs, field: [dict(coeffs)])
    with pytest.raises(RopsumError, match="^internal: a passing edge left f - beta unfactored$"):
        is_rop(P(2, {0b11: 1}))


def test_is_rop_matches_every_f2_n4_member_and_sampled_non_members():
    # the whole F_2 n=4 sweep (65,536 inputs) agrees too but takes seconds
    from ropsum.oracle import PackedPoly, unpack

    members = enumerate_rops(2, 4).members
    member_set = set(members)
    non_members = [v for v in range(1 << 16) if v not in member_set]
    sample = random.Random(24).sample(non_members, 6000)
    assert len(members) == 2680
    assert [v for v in members if is_rop(unpack(PackedPoly(2, 4, v))) is None] == []
    assert [v for v in sample if is_rop(unpack(PackedPoly(2, 4, v))) is not None] == []


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


# -- the family decision -----------------------------------------------------


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


def test_family_decision_over_f2_agrees_with_the_oracle():
    # every nonzero weight over F_2 is 1, so a zero weight (C1) or equal
    # squares (C2) answers before the C3 construction divides by 2*b*c
    cls = enumerate_rops(2, 4)
    found = {}
    for a, b, c in product(range(2), repeat=3):
        target = family4(a, b, c, F2)
        d = family4_decide(a, b, c, F2)
        k = min_k(pack(target), cls, 2)
        assert d.outcome == "expressible" and verify_against(d.witness, target)
        assert len(d.witness.summands) >= (0 if target.is_zero() else k)
        found[(a, b, c)] = (d.branch, k)
    assert found.pop((1, 1, 1)) == ("C2-false", 2)
    assert set(found.values()) == {("C1-false", 1)} and len(found) == 7


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

# the one answer off the family's shape
OFF_FAMILY = Sum2Decision("inconclusive", note="outside the weighted family; no certified decision")


def test_refute2_family_delegation():
    assert sum2_refute(family4(2, 4, 5)).outcome == "not_expressible"
    assert sum2_refute(family4(0, 1, 1)).outcome == "expressible"


def test_refute2_full_monomial_inconclusive():
    assert sum2_refute(P(4, {0b1111: 1})) == OFF_FAMILY


def test_refute2_requires_four_variables():
    with pytest.raises(
        PreconditionViolated, match="^the decision operates on 4-variable polynomials$"
    ):
        sum2_refute(P(3, {0b111: 1}))


def test_refute2_out_of_scope_note():
    # family-like but with a linear extra term: off the family's shape
    g = family4(2, 4, 5) + P(4, {0b0001: 1})
    assert sum2_refute(g) == OFF_FAMILY


def _refute2_sample(rng, field, triples, uniform):
    """(target, expected answer) pairs: ``uniform`` targets with every
    coefficient drawn, and the family target of each triple, alone and
    plus one more monomial.  Only the family targets have its shape."""
    cases = [(P(4, {m: random_scalar(rng, field) for m in range(16)}, field), OFF_FAMILY)
             for _ in range(uniform)]
    for a, b, c in triples:
        g = family4(a, b, c, field)
        extra = P(4, {rng.randrange(16): random_scalar(rng, field, nonzero=True)}, field)
        cases += [(g, family4_decide(a, b, c, field)), (g + extra, OFF_FAMILY)]
    return cases


def _check_refute2(g, expected):
    d = sum2_refute(g)
    assert d == expected
    if d.outcome == "expressible":
        assert len(d.witness.summands) <= 2 and verify_against(d.witness, g)
    return d


def test_sum2_refute_agrees_with_the_oracle_on_f3():
    # min_k(..., 2) is exact on F_3 n=4: refute2 never refutes a target that
    # two summands reach, and says expressible only of one they reach
    F3 = prime_field(3)
    cls = enumerate_rops(3, 4)
    found = Counter()
    for g, expected in _refute2_sample(random.Random(3101), F3, product(range(3), repeat=3), 200):
        d = _check_refute2(g, expected)
        two = min_k(pack(g), cls, 2) is not None
        assert d.outcome != "not_expressible" or not two
        assert d.outcome != "expressible" or two
        found[d.outcome, two] += 1
    # every family triple is expressible over F_3; off the family, targets
    # within two summands and beyond them get the same fixed answer
    assert found == {("expressible", True): 27, ("inconclusive", True): 213,
                     ("inconclusive", False): 14}


def test_sum2_refute_answers_off_the_family_with_one_fixed_object():
    rng = random.Random(3102)
    for field in (QQ, prime_field(101)):
        triples = [tuple(random_scalar(rng, field) for _ in range(3)) for _ in range(40)]
        outcomes = Counter(
            _check_refute2(g, expected).outcome
            for g, expected in _refute2_sample(rng, field, triples, 100)
        )
        assert set(outcomes) == {"expressible", "not_expressible", "inconclusive"}, field


def test_decisions_are_frozen_and_their_json_is_pinned():
    expressible = family4_decide(1, 2, 3)
    refuted = family4_decide(2, 4, 5)
    open_case = sum2_refute(P(4, {0b0011: 1, 0b1100: 1, 0b1111: 1}))
    for d in (expressible, refuted, open_case):
        for name in ("outcome", "witness", "note", "extra"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
    assert family4_decide(2, 4, 5) == refuted and hash(family4_decide(2, 4, 5)) == hash(refuted)
    assert expressible.to_json_dict() == {
        "outcome": "expressible",
        "branch": "C3-false",
        "witness": [
            "(mul (1 0) (add (1 0) (leaf (1 0) x1) (leaf (1 0) x3)) "
            "(add (1 0) (leaf (1 0) x2) (leaf (1 0) x4)))",
            "(mul (2 0) (add (1 0) (leaf (1 0) x1) (leaf (1 0) x2)) "
            "(add (1 0) (leaf (1 0) x3) (leaf (1 0) x4)))",
        ],
        "params": {"tau": "0", "delta": "-1", "mu": "-1"},
    }
    assert refuted.to_json_dict() == {
        "outcome": "not_expressible",
        "d": ["-231", "-231", "-231"],
        "note": "all three conditions hold; no sum of two read-once formulas exists",
    }
    assert open_case.to_json_dict() == {
        "outcome": "inconclusive",
        "note": "outside the weighted family; no certified decision",
    }
    assert repr(refuted) == (
        "Sum2Decision(outcome='not_expressible', branch=None, witness=None, "
        "d=(FieldElem(Q, -231), FieldElem(Q, -231), FieldElem(Q, -231)), "
        "note='all three conditions hold; no sum of two read-once formulas exists', "
        "tau=None, delta=None, mu=None)"
    )


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
    # neither is the family shape, so neither reaches family4_decide, and
    # each gets the one off-family answer
    for field in PIN_FIELDS:
        for a, b, c in product((-2, 0, 1, 3), repeat=3):
            g = family4(a, b, c, field)
            for m in range(16):
                assert sum2_refute(g + P(4, {m: 1}, field)) == OFF_FAMILY


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


# -- pinned recognizer witnesses ----------------------------------------------
#
# Digests of print_rof(is_rop(p)), "-" for None, computed before the
# recognizer's chains were built by decompose._chain; any change to a
# witness changes them.

F3_N3_ROP_DIGEST = "029878b6a3a880ecc0fe9ddae4fbbc6e2301af9d3ded69182cf0bb8c7e9a38c5"
PLANTED_ROP_DIGEST = "65c3100c52ae80887465a463a648e1ebdbed724446033dcceff19615cd823953"


def _witness_line(p):
    w = is_rop(p)
    return "-" if w is None else print_rof(w)


def _chain_parts(rof):
    """The number of parts of the gate chain at rof's top: 1 for a leaf,
    else 2 plus the run of right children with rof's op and unit labels."""
    if not isinstance(rof, Gate):
        return 1
    parts, op, one = 2, rof.op, rof.alpha.field.one()
    rof = rof.right
    while isinstance(rof, Gate) and rof.op == op and rof.alpha == one and rof.beta.is_zero():
        parts += 1
        rof = rof.right
    return parts


def test_is_rop_witnesses_on_f3_n3_are_pinned():
    F3 = prime_field(3)
    lines = [
        _witness_line(MultilinearPoly(3, F3, dict(enumerate(values))))
        for values in product(range(3), repeat=8)
    ]
    assert sum(line != "-" for line in lines) == 2025
    assert _digest(lines) == F3_N3_ROP_DIGEST


def _planted_rop_corpus():
    """Planted ROPs, ROP x S_3^2 (not read-once) and shifted products of
    three or more ROPs on disjoint variables."""
    rng = random.Random(2424)
    corpus = []
    for field in (QQ, F2, prime_field(5), prime_field(101)):
        for n in range(4, 9):
            for _ in range(6):
                variables = random_variable_subset(rng, n, rng.randint(2, n))
                corpus.append(evaluate(random_rof(rng, variables, field), n))
            for _ in range(2):
                rop = evaluate(random_rof(rng, list(range(1, n - 2)), field), n)
                s3 = MultilinearPoly(n, field, {m << (n - 3): 1 for m in (0b011, 0b101, 0b110)})
                corpus.append(rop.mul_disjoint(s3))
            for _ in range(4):
                # on at most 6 variables: over Q the commutators of a dense
                # product on 8 variables take about a second
                used = rng.sample(range(1, n + 1), rng.randint(3, min(n, 6)))
                cuts = sorted(rng.sample(range(1, len(used)), rng.randint(2, min(len(used) - 1, 4))))
                groups = [sorted(used[a:b]) for a, b in zip([0] + cuts, cuts + [len(used)])]
                product_ = P(n, {0: 1}, field)
                for group in groups:
                    product_ = product_.mul_disjoint(evaluate(random_rof(rng, group, field), n))
                corpus.append(product_ + P(n, {0: random_scalar(rng, field)}, field))
    return corpus


def test_is_rop_witnesses_on_planted_corpus_are_pinned():
    lines, longest = [], {ADD: 0, MUL: 0}
    for p in _planted_rop_corpus():
        w = is_rop(p)
        lines.append(json.dumps([str(p.field), p.n, "-" if w is None else print_rof(w)]))
        stack = [] if w is None else [w]
        while stack:  # the longest chain of each op anywhere in the witness
            node = stack.pop()
            if isinstance(node, Gate):
                longest[node.op] = max(longest[node.op], _chain_parts(node))
                stack += [node.left, node.right]
    assert len(lines) == 240
    assert sum(line.endswith('"-"]') for line in lines) == 40
    assert longest[ADD] >= 3 and longest[MUL] >= 3
    assert _digest(lines) == PLANTED_ROP_DIGEST
