import random
from fractions import Fraction

import pytest

from ropsum import (
    QQ,
    FieldDescriptor,
    FieldMismatch,
    IndexOutOfRange,
    MultilinearPoly,
    ParseError,
    PreconditionViolated,
    RopsumError,
    family4,
    prime_field,
)
from ropsum.rof import (
    ADD,
    MUL,
    Gate,
    Leaf,
    RopSum,
    evaluate,
    is_multiplicative_semantic,
    is_multiplicative_structural,
    leaf_vars,
    mrops_witness,
    parse_rof,
    print_rof,
    sum_evaluate,
    three_var_linearizing_restriction,
    validate,
    verify_against,
)

from helpers import (
    f2_evals_to_coeff_mask,
    f2_rof_summaries,
    random_rof,
    random_scalar,
    random_variable_subset,
)

F2 = prime_field(2)
ONE, ZERO = QQ.one(), QQ.zero()


def leaf(v, a=1, b=0):
    return Leaf(v, QQ.elem(a), QQ.elem(b))


def gate(op, left, right, a=1, b=0):
    return Gate(op, QQ.elem(a), QQ.elem(b), left, right)


def test_validate_duplicate_variable():
    t = gate(ADD, leaf(1), leaf(1))
    assert validate(t) == ["x1 labels 2 leaves"]


def test_validate_leaf_ok():
    assert validate(leaf(3, 2, 1)) == []


def test_validate_field_mismatch():
    t = Gate(ADD, QQ.one(), QQ.zero(), leaf(1), Leaf(2, F2.one(), F2.zero()))
    assert validate(t) == ["scalar in F_2, tree is over Q"] * 2


def test_evaluate_leaf():
    assert evaluate(leaf(1, 2, 3)) == MultilinearPoly(1, QQ, {0b1: 2, 0: 3})


def test_evaluate_product_gate():
    t = gate(MUL, leaf(1), leaf(2))
    assert evaluate(t) == MultilinearPoly(2, QQ, {0b11: 1})


def test_evaluate_half_pairing_closer():
    # closing summand of the even-case half construction at n=4, a=0, b=1:
    # (x3 + x4) * x1 * x2
    inner = gate(ADD, leaf(3), leaf(4))
    t = gate(MUL, inner, gate(MUL, leaf(1), leaf(2)))
    assert evaluate(t) == MultilinearPoly(4, QQ, {0b0111: 1, 0b1011: 1})


def test_evaluate_refuses_factors_that_share_a_variable():
    # a formula that reads a variable twice is refused under either gate,
    # whatever its leaves compute: a zero-scale leaf reads its variable too
    t = gate(MUL, gate(ADD, leaf(1), leaf(2)), gate(MUL, leaf(2), leaf(3)))
    with pytest.raises(PreconditionViolated, match="^invalid formula: x2 labels 2 leaves$"):
        evaluate(t)
    five = gate(ADD, leaf(1), leaf(1, -1, 5))
    mul = parse_rof("(mul (1 0) (leaf (0 3) x1) (leaf (1 0) x1))", QQ)
    add = parse_rof("(add (1 0) (leaf (1 0) x1) (leaf (1 0) x1))", QQ)
    x1_twice = "^invalid formula: x1 labels 2 leaves$"
    for t in (mul, five, gate(MUL, five, leaf(2, 3, 0)), add):
        with pytest.raises(PreconditionViolated, match=x1_twice):
            evaluate(t)
    # the final check of a sum refuses the summand though the sum is 2*x1,
    # and names it
    s, two_x1 = RopSum(QQ, 1, (add,)), MultilinearPoly(1, QQ, {0b1: 2})
    for call in (lambda: sum_evaluate(s), lambda: verify_against(s, two_x1)):
        with pytest.raises(
            PreconditionViolated, match="^invalid formula: summand 0: x1 labels 2 leaves$"
        ):
            call()


def test_evaluate_refuses_out_of_range_variables():
    with pytest.raises(IndexOutOfRange):
        evaluate(gate(ADD, leaf(1), leaf(3)), 2)
    with pytest.raises(IndexOutOfRange, match="^summand 1: leaf variable x3 outside 1..2$"):
        sum_evaluate(RopSum(QQ, 2, (leaf(1), leaf(3))))
    assert validate(leaf(0)) == ["leaf variable x0"]
    with pytest.raises(IndexOutOfRange):
        evaluate(leaf(0))
    with pytest.raises(IndexOutOfRange):
        evaluate(leaf(31))
    with pytest.raises(IndexOutOfRange):
        evaluate(leaf(1), 31)
    assert evaluate(leaf(30)).n == 30
    # a sum checks its variable count though it has no summand to expand
    for n in (31, -1):
        with pytest.raises(IndexOutOfRange, match="^variable count %d outside 0..30$" % n):
            sum_evaluate(RopSum(QQ, n, ()))


def test_evaluate_refuses_a_scalar_of_another_field():
    F7 = prime_field(7)
    with pytest.raises(FieldMismatch):
        evaluate(gate(ADD, leaf(1), Leaf(2, F7.one(), F7.zero())))
    with pytest.raises(FieldMismatch):
        evaluate(Gate(MUL, QQ.one(), F7.zero(), leaf(1), leaf(2)))
    # an equal descriptor built apart is the same field
    G7 = FieldDescriptor("prime", 7)
    t = Gate(ADD, F7.one(), F7.zero(), Leaf(1, F7.one(), F7.zero()),
             Leaf(2, G7.elem(3), G7.zero()))
    assert evaluate(t) == MultilinearPoly(2, F7, {0b01: 1, 0b10: 3})


def test_verify_against_refuses_a_summand_of_another_field():
    F5, F7 = prime_field(5), prime_field(7)
    s = RopSum(F5, 1, (Leaf(1, F7.elem(6), F7.zero()),))
    with pytest.raises(FieldMismatch):
        verify_against(s, MultilinearPoly.variable(1, F5, 1))
    with pytest.raises(FieldMismatch):
        sum_evaluate(s)


def test_verify_against_refuses_a_target_of_another_field():
    s = RopSum(prime_field(5), 1, (Leaf(1, prime_field(5).one(), prime_field(5).zero()),))
    with pytest.raises(FieldMismatch) as exc:
        verify_against(s, MultilinearPoly.variable(1, QQ, 1))
    assert str(exc.value) == "sum over F_5, target over Q"


def test_evaluation_refuses_a_gate_that_is_neither_add_nor_mul():
    xor = gate("xor", leaf(1), leaf(2))
    assert validate(xor) == ["unknown op 'xor'"]
    x1x2 = MultilinearPoly(2, QQ, {0b11: 1})
    for t in (xor, gate(ADD, leaf(3), xor)):
        with pytest.raises(PreconditionViolated, match="^invalid formula: unknown op 'xor'$"):
            evaluate(t)
        s = RopSum(QQ, 3, (t,))
        for call in (lambda: sum_evaluate(s), lambda: verify_against(s, x1x2.with_n(3))):
            with pytest.raises(
                PreconditionViolated, match="^invalid formula: summand 0: unknown op 'xor'$"
            ):
                call()


def test_every_operation_refuses_a_bad_formula_alike():
    # the expansion kernel makes every refusal of a formula: evaluation,
    # both witnesses and a sum raise the same exception in the same words,
    # and a sum also names the summand it refuses
    F7 = prime_field(7)
    bad = [
        (FieldMismatch, "element of F_7 used in Q",
         gate(MUL, leaf(1), gate(MUL, leaf(2), Leaf(3, F7.one(), F7.zero())))),
        (IndexOutOfRange, "leaf variable x0 outside 1..2",
         gate(MUL, leaf(0), gate(MUL, leaf(1), leaf(2)))),
        (PreconditionViolated, "invalid formula: x1 labels 2 leaves",
         gate(MUL, leaf(1), gate(MUL, leaf(2), leaf(1)))),
        (PreconditionViolated, "invalid formula: unknown op 'xor'",
         gate("xor", leaf(1), gate(MUL, leaf(2), leaf(3)))),
    ]
    for kind, words, t in bad:
        s = RopSum(QQ, max(leaf_vars(t)), (leaf(1), t))
        in_sum = "summand 1: " + words
        if kind is PreconditionViolated:
            in_sum = words.replace("invalid formula: ", "invalid formula: summand 1: ")
        for call, expected in (
            (lambda: evaluate(t), words),
            (lambda: mrops_witness(t, 1), words),
            (lambda: three_var_linearizing_restriction(t), words),
            (lambda: sum_evaluate(s), in_sum),
        ):
            with pytest.raises(kind) as exc:
                call()
            assert type(exc.value) is kind and str(exc.value) == expected


# -- evaluation against the public operations --------------------------------


def _reference(node, n):
    """The polynomial a formula computes, built with the public operations."""
    if isinstance(node, Leaf):
        x = MultilinearPoly.variable(n, node.alpha.field, node.var)
    else:
        left, right = _reference(node.left, n), _reference(node.right, n)
        x = left + right if node.op == ADD else left.mul_disjoint(right)
    return x.scale(node.alpha) + MultilinearPoly.constant(n, x.field, node.beta)


def _negated(node):
    """The same node computing minus its polynomial."""
    if isinstance(node, Leaf):
        return Leaf(node.var, -node.alpha, -node.beta)
    return Gate(node.op, -node.alpha, -node.beta, node.left, node.right)


def _monomial(variables, field):
    """x_{v1} * ... * x_{vk} as a chain of identity-pair products."""
    one, zero = field.one(), field.zero()
    tree = Leaf(variables[-1], one, zero)
    for v in reversed(variables[:-1]):
        tree = Gate(MUL, one, zero, Leaf(v, one, zero), tree)
    return tree


def _random_formula(rng, field, variables):
    """A random formula on the variables, mostly read-once: some gates read
    the variables of one side twice, through a sum of a node and its own
    negation, or through a copy of the left side inside the right."""
    def pair():
        roll = rng.random()
        if roll < 0.4:
            return field.one(), field.zero()
        alpha = field.zero() if roll < 0.5 else random_scalar(rng, field)
        return alpha, random_scalar(rng, field)

    if len(variables) == 1:
        return Leaf(variables[0], *pair())
    cut = rng.randint(1, len(variables) - 1)
    left = _random_formula(rng, field, variables[:cut])
    right = _random_formula(rng, field, variables[cut:])
    roll = rng.random()
    if roll < 0.1:
        # a constant, though it reads its variables twice
        left = Gate(ADD, *pair(), left, _negated(left))
    elif roll < 0.15:
        right = Gate(ADD, *pair(), right, left)
    elif roll < 0.3:
        left = _monomial(variables[:cut], field)
    elif roll < 0.45:
        right = _monomial(variables[cut:], field)
    return Gate(rng.choice((ADD, MUL)), *pair(), left, right)


def _refusal(violations, where=""):
    """The message of the refusal of a formula with these violations, each
    prefixed with ``where``."""
    return "invalid formula: " + "; ".join(where + v for v in violations)


@pytest.mark.parametrize("field", [QQ, F2, prime_field(3), prime_field(10007)], ids=str)
def test_evaluate_matches_the_public_operations(field):
    # evaluation raises exactly when validate reports a violation, with its
    # report; otherwise it equals the public operations' result
    rng = random.Random(1307 + field.characteristic)
    refused = kept = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        summands = []
        for _ in range(rng.randint(1, 3)):
            variables = random_variable_subset(rng, n, rng.randint(1, n))
            rng.shuffle(variables)
            summands.append(_random_formula(rng, field, variables))
        violations = [validate(t) for t in summands]
        for t, flagged in zip(summands, violations):
            if flagged:
                with pytest.raises(PreconditionViolated) as exc:
                    evaluate(t, n)
                assert str(exc.value) == _refusal(flagged)
            else:
                assert evaluate(t, n) == _reference(t, n)
            refused += bool(flagged)
            kept += not flagged
        s = RopSum(field, n, tuple(summands))
        first = next(((i, v) for i, v in enumerate(violations) if v), None)
        if first:
            with pytest.raises(PreconditionViolated) as exc:
                sum_evaluate(s)
            assert str(exc.value) == _refusal(first[1], "summand %d: " % first[0])
        else:
            total = MultilinearPoly.zero(n, field)
            for t in summands:
                total = total + _reference(t, n)
            assert sum_evaluate(s) == total
    assert refused > 100 and kept > 400


def test_structural_multiplicativity():
    assert is_multiplicative_structural(leaf(1))
    assert not is_multiplicative_structural(gate(ADD, leaf(1), leaf(2)))
    t = gate(MUL, gate(MUL, leaf(1), leaf(2)), leaf(3))
    assert is_multiplicative_structural(t)


def test_semantic_multiplicativity():
    assert is_multiplicative_semantic(MultilinearPoly(3, QQ, {0b111: 1}))
    assert not is_multiplicative_semantic(
        MultilinearPoly(2, QQ, {0b01: 1, 0b10: 1})
    )


def test_mrops_witness_example():
    t = gate(MUL, leaf(1, 2, 3), leaf(2))
    j, g = mrops_witness(t, 1)
    assert (j, g) == (2, QQ.elem(Fraction(-3, 2)))
    assert evaluate(t).partial(j).restrict(1, g).is_zero()


def test_mrops_witness_zero_shift():
    t = gate(MUL, leaf(1), leaf(2))
    assert mrops_witness(t, 1) == (2, ZERO)


def test_mrops_witness_rejects_addition():
    with pytest.raises(PreconditionViolated, match="^formula contains an addition gate$"):
        mrops_witness(gate(ADD, leaf(1), leaf(2)), 1)


def test_mrops_witness_needs_two_variables():
    with pytest.raises(PreconditionViolated, match="^need at least 2 variables$"):
        mrops_witness(leaf(1), 1)


def test_mrops_witness_refuses_an_absent_variable_and_a_zero_scale():
    with pytest.raises(IndexOutOfRange, match="x3 does not occur in the formula"):
        mrops_witness(gate(MUL, leaf(1), leaf(2)), 3)
    with pytest.raises(
        PreconditionViolated, match="^zero scale collapses a subtree to a constant$"
    ):
        mrops_witness(gate(MUL, leaf(1, 0, 1), leaf(2)), 2)


def test_mrops_witness_random_identity():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 7)
        variables = random_variable_subset(rng, n, rng.randint(2, n))
        t = random_rof(rng, variables, QQ, multiplicative=True)
        i = rng.choice(variables)
        j, g = mrops_witness(t, i)
        assert j != i and j in variables
        assert evaluate(t, n).partial(j).restrict(i, g).is_zero()


def test_three_var_restriction_cases():
    t = gate(ADD, leaf(1), gate(MUL, leaf(2), leaf(3)))
    i, a = three_var_linearizing_restriction(t)
    assert (i, a) == (2, ZERO)

    t = gate(MUL, leaf(1), gate(MUL, leaf(2), leaf(3), b=1))
    assert three_var_linearizing_restriction(t) == (1, ZERO)

    t = gate(MUL, leaf(1, 2, 1), gate(MUL, leaf(2, 1, 1), leaf(3, 1, -1), b=4))
    i, a = three_var_linearizing_restriction(t)
    assert (i, a) == (1, QQ.elem(Fraction(-1, 2)))
    assert evaluate(t).restrict(i, a).degree() <= 0


def test_three_var_restriction_under_a_zero_scale_factor():
    # 2 * x2 * x3: the single-variable factor is the constant 2, so a
    # variable of the other factor is zeroed
    t = gate(MUL, leaf(1, 0, 2), gate(MUL, leaf(2), leaf(3)))
    assert three_var_linearizing_restriction(t) == (2, ZERO)
    assert evaluate(t).restrict(2, ZERO).is_zero()


def test_three_var_restriction_check_survives_optimized_mode(monkeypatch):
    # the check is a raise, not an assert that python -O strips
    import ropsum.rof as rof_module

    square = MultilinearPoly(3, QQ, {0b101: 1})  # x1*x3, untouched by x2 = 0
    monkeypatch.setattr(rof_module, "evaluate", lambda rof, n=None: square)
    with pytest.raises(RopsumError, match="internal"):
        three_var_linearizing_restriction(gate(ADD, leaf(1), gate(MUL, leaf(2), leaf(3))))


def test_three_var_restriction_arity():
    with pytest.raises(PreconditionViolated, match="^need exactly 3 variables, got 2$"):
        three_var_linearizing_restriction(gate(MUL, leaf(1), leaf(2)))
    four = gate(MUL, gate(MUL, leaf(1), leaf(2)), gate(MUL, leaf(3), leaf(4)))
    with pytest.raises(PreconditionViolated, match="^need exactly 3 variables, got 4$"):
        three_var_linearizing_restriction(four)


def test_three_var_restriction_refuses_many_variables_before_expanding(monkeypatch):
    # a product of 30 affine leaves would expand to 2^30 terms
    import ropsum.rof as rof_module

    monkeypatch.setattr(rof_module, "evaluate", lambda rof, n=None: pytest.fail("expanded"))
    t = leaf(1, 1, 1)
    for v in range(2, 31):
        t = gate(MUL, t, leaf(v, 1, 1))
    with pytest.raises(PreconditionViolated, match="^need exactly 3 variables, got 30$"):
        three_var_linearizing_restriction(t)


def test_three_var_restriction_random():
    rng = random.Random(33)
    for _ in range(300):
        t = random_rof(rng, [1, 2, 3], QQ, nonzero_scales=rng.random() < 0.9)
        i, a = three_var_linearizing_restriction(t)
        assert evaluate(t).restrict(i, a).degree() <= 1


def test_sum_evaluate_empty_is_zero():
    assert sum_evaluate(RopSum(QQ, 3, ())).is_zero()


def test_sum_matches_family_example():
    # (x1 + x3)(x2 + x4) + 2 (x1 + x2)(x3 + x4)
    first = gate(MUL, gate(ADD, leaf(1), leaf(3)), gate(ADD, leaf(2), leaf(4)))
    second = gate(
        MUL, gate(ADD, leaf(1), leaf(2)), gate(ADD, leaf(3), leaf(4)), a=2
    )
    s = RopSum(QQ, 4, (first, second))
    assert verify_against(s, family4(1, 2, 3))


def test_parse_print_round_trip():
    texts = [
        "(leaf (2 3) x1)",
        "(mul (1 0) (leaf (1 0) x1) (leaf (1 0) x2))",
        "(add (1/2 -3) (leaf (-1 0) x4) (mul (2 5) (leaf (1 0) x1) (leaf (1 1) x3)))",
    ]
    for text in texts:
        t = parse_rof(text, QQ)
        assert print_rof(t) == text
        assert parse_rof(print_rof(t), QQ) == t


def test_parse_mod_scalars():
    t = parse_rof("(leaf (3 mod 7 6 mod 7) x2)", prime_field(7))
    assert t == Leaf(2, prime_field(7).elem(3), prime_field(7).elem(6))


def test_parse_errors():
    for bad in [
        "(leaf (2 3) x1",
        "(foo (1 0) x1)",
        "(leaf (1) x1)",
        "(leaf (1 0) y1)",
        "(leaf (1 0) x0)",
        "(mul (1 0) (leaf (1 0) x1))",
        "(leaf (1 0) x1) trailing",
    ]:
        with pytest.raises(ParseError):
            parse_rof(bad, QQ)


def test_random_rof_round_trip_and_var_containment():
    rng = random.Random(21)
    for _ in range(1000):
        n = rng.randint(1, 7)
        variables = random_variable_subset(rng, n, rng.randint(1, n))
        t = random_rof(rng, variables, QQ, nonzero_scales=rng.random() < 0.85)
        assert validate(t) == []
        assert parse_rof(print_rof(t), QQ) == t
        p = evaluate(t, n)
        assert set(p.variables()) <= set(variables)
        assert all(m < (1 << n) for m in p.coeffs)


def test_deep_formula_walks():
    # a left-deep chain of 2,000 add gates, deeper than the recursion limit
    depth = 2000
    text = "(add (1 0) " * depth + "(leaf (1 0) x1)" + "".join(
        " (leaf (1 0) x%d))" % (k % 30 + 1) for k in range(depth)
    )
    t = parse_rof(text, QQ)
    assert print_rof(t) == text
    assert leaf_vars(t) == [1] + [k % 30 + 1 for k in range(depth)]
    leaves = leaf_vars(t)
    assert validate(t) == ["x%d labels %d leaves" % (v, leaves.count(v)) for v in range(1, 31)]
    assert not is_multiplicative_structural(t)
    # the walk reaches the deepest gate, which joins two leaves of x1
    with pytest.raises(PreconditionViolated, match="^invalid formula: x1 labels 68 leaves; "):
        evaluate(t)
    with pytest.raises(ParseError):
        parse_rof(text[:-1], QQ)
    # a left-deep chain of 2,000 mul gates on distinct variables: the leaf
    # of x1 is found, then evaluation refuses 2,001 variables
    chain = parse_rof(
        "(mul (1 0) " * depth
        + "(leaf (1 0) x1)"
        + "".join(" (leaf (1 0) x%d))" % (k + 2) for k in range(depth)),
        QQ,
    )
    with pytest.raises(IndexOutOfRange):
        mrops_witness(chain, 1)


def test_fact2_agreement_exhaustive_f2():
    # structural multiplicativity (after constant pruning) must coincide with
    # all mixed partials being nonzero, across every F_2 formula on <= 3 vars
    # (the n=4 sweep runs in the acceptance suite).
    n = 3
    tables = f2_rof_summaries(n)
    for subset, summaries in tables.items():
        for packed, has_plus, is_const in summaries:
            mask = f2_evals_to_coeff_mask(packed, n)
            coeffs = {m: 1 for m in range(1 << n) if (mask >> m) & 1}
            p = MultilinearPoly(n, F2, coeffs)
            assert set(p.variables()) <= {
                i + 1 for i in range(n) if subset & (1 << i)
            }
            assert is_multiplicative_semantic(p) == (not has_plus)
            if is_const:
                assert p.is_constant()
