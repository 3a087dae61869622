"""Constructive decompositions into sums of read-once formulas.

Four strategies, each returning a :class:`RopSum` that is re-evaluated
against its target before being handed back:

* ``pair_monomials`` -- two monomials a*x_S + b*x_T always fit in one
  formula as x_{S&T} * (a x_{S\\T} + b x_{T\\S}); pairing them up costs at
  most ceil(M/2) summands for M monomials.
* ``generic`` -- any multilinear polynomial; 1 summand up to 2 variables,
  an explicit 3-summand construction at 4 variables, and above that the
  recursion f = x_m * df/dx_m + f|_{x_m=0} unrolled into one pass over
  blocks of coefficients, for 3 * 2^(n-4) total.
* ``symmetric_halves`` -- the tight ceil(n/2) construction for
  alpha*S_n^n + beta*S_n^{n-1}.
* ``sympoly4`` -- any weighted combination of the 4-variable elementary
  symmetric polynomials in at most two summands, by a four-case table.

Every strategy builds its formulas straight from coefficients, on the
field's raw values, with a ``FieldElem`` only for a formula label, and
with one builder per shape: ``_chain`` for the gate chain and
``_matching`` for w*(x_u1 x_u2 + x_v1 x_v2), both shared with
:mod:`ropsum.recognize`.  The one polynomial expansion is the final check.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionViolated, RopsumError
from .mpoly import MultilinearPoly, _bits, _by_degree, _infer_field, m_poly
from .rof import ADD, MUL, Gate, Leaf, Rof, RopSum, verify_against
from .scalars import FieldDescriptor, FieldElem


def _chain(op: str, nodes: List[Rof], alpha: FieldElem, beta: FieldElem) -> Rof:
    """alpha * op(w_1, op(w_2, ... op(w_k-1, w_k))) + beta, with unit inner gates."""
    one, zero = alpha.field.one(), alpha.field.zero()
    tree = nodes[-1]
    for w in nodes[-2:0:-1]:
        tree = Gate(op, one, zero, w, tree)
    return Gate(op, alpha, beta, nodes[0], tree)


def _mono_chain(variables: List[int], alpha: FieldElem, beta: FieldElem) -> Rof:
    """alpha * x_{v1} * ... * x_{vk} + beta as a right-leaning product chain."""
    if len(variables) == 1:
        return Leaf(variables[0], alpha, beta)
    one, zero = alpha.field.one(), alpha.field.zero()
    return _chain(MUL, [Leaf(v, one, zero) for v in variables], alpha, beta)


def _matching(w: FieldElem, u: Tuple[int, int], v: Tuple[int, int]) -> Rof:
    """w * (x_u1 x_u2 + x_v1 x_v2) for the variable pairs u and v."""
    one, zero = w.field.one(), w.field.zero()
    return Gate(ADD, w, zero, _mono_chain(u, one, zero), _mono_chain(v, one, zero))


def _bivariate_rof(u: int, v: int, a, b, c, d, field: FieldDescriptor) -> Optional[Rof]:
    """A formula for a + b*x_u + c*x_v + d*x_u*x_v, from raw values of
    ``field`` to ``FieldElem`` labels; None when all four are zero."""
    one, zero, label = field.one(), field.zero(), partial(FieldElem, field)
    if d:
        # d*(x_u + c/d)(x_v + b/d) + (a - bc/d), with one inverse of d
        mul, e = field.mul, field.inv(d)
        c_d, b_d = mul(c, e), mul(b, e)
        shift = label(field.sub(a, mul(b, c_d)))
        return Gate(MUL, label(d), shift, Leaf(u, one, label(c_d)), Leaf(v, one, label(b_d)))
    if b and c:
        return Gate(ADD, one, label(a), Leaf(u, label(b), zero), Leaf(v, label(c), zero))
    if b:
        return Leaf(u, label(b), label(a))
    if c:
        return Leaf(v, label(c), label(a))
    return Leaf(u, zero, label(a)) if a else None


def _times_monomial(variables: List[int], rof: Optional[Rof]) -> Optional[Rof]:
    """x_{v1} * ... * x_{vk} * rof; None for a missing rof."""
    if rof is None:
        return None
    one, zero = rof.alpha.field.one(), rof.alpha.field.zero()
    return Gate(MUL, one, zero, _mono_chain(variables, one, zero), rof)


def _verified(summands: List[Rof], target: MultilinearPoly) -> RopSum:
    out = RopSum(target.field, target.n, tuple(summands))
    if not verify_against(out, target):
        raise RopsumError("internal: decomposition failed re-evaluation")
    return out


# ---------------------------------------------------------------------------


def pair_monomials(p: MultilinearPoly) -> RopSum:
    """Pair up monomials: at most ceil(M/2) summands for M monomials."""
    if p.n < 1:
        raise PreconditionViolated("monomial pairing needs a variable range of n >= 1")
    field, coeffs = p.field, p.coeffs
    one, zero, label = field.one(), field.zero(), partial(FieldElem, field)
    monomials = sorted(coeffs)
    summands: List[Rof] = []

    def vars_of(mask: int) -> List[int]:
        return [b.bit_length() for b in _bits(mask)]

    for idx in range(0, len(monomials) - 1, 2):
        s, t = monomials[idx], monomials[idx + 1]
        a, b = label(coeffs[s]), label(coeffs[t])
        common = s & t
        s_only, t_only = s & ~t, t & ~s
        if s_only and t_only:
            inner: Rof = Gate(
                ADD,
                one,
                zero,
                _mono_chain(vars_of(s_only), a, zero),
                _mono_chain(vars_of(t_only), b, zero),
            )
        else:
            # masks are sorted, so s < t and t is never a subset of s:
            # a x_s + b x_t = x_s (b x_{t-s} + a)
            inner = _mono_chain(vars_of(t_only), b, a)
        if common:
            inner = _times_monomial(vars_of(common), inner)
        summands.append(inner)

    if len(monomials) % 2:
        s = monomials[-1]
        a = label(coeffs[s])
        if s:
            summands.append(_mono_chain(vars_of(s), a, zero))
        else:
            summands.append(Leaf(1, zero, a))
    return _verified(summands, p)


# ---------------------------------------------------------------------------


def _linear_rof(const, terms: List[Tuple[int, object]], field: FieldDescriptor) -> Optional[Rof]:
    """A formula for const + sum of c*x_v over the (v, c) pairs, in order,
    from raw values of ``field``; None when everything is zero."""
    one, zero, label = field.one(), field.zero(), partial(FieldElem, field)
    terms = [(v, c) for v, c in terms if c]
    if not terms:
        return Leaf(1, zero, label(const)) if const else None
    shifts = [zero] * (len(terms) - 1) + [label(const)]  # the last node's is the constant
    (v, c), *rest = terms
    tree: Rof = Leaf(v, label(c), shifts[0])
    for (v, c), beta in zip(rest, shifts[1:]):
        tree = Gate(ADD, one, beta, tree, Leaf(v, label(c), zero))
    return tree


def _pivot_case(i: int, j: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """The mask of x_i x_j; the variables x[1..4] at positions 1..4 when
    x_i x_j sits at positions (1, 3); and the position table, whose entry
    pos is the mask of the variables at the positions set in pos."""
    k, l = sorted({1, 2, 3, 4} - {i, j})
    x = (i, k, j, l)
    table = [0]
    for v in x:  # each new half adds the next position's variable
        table += [m | 1 << (v - 1) for m in table]
    return 1 << (i - 1) | 1 << (j - 1), x, tuple(table)


# The six quadratic pivots in the order one is chosen, then the case of no
# quadratic term, whose table is the identity.
_PIVOTS = tuple(_pivot_case(i, j) for i, j in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
_NO_PIVOT = _pivot_case(1, 3)


def _generic_base4(block: Dict[int, object], field: FieldDescriptor) -> List[Rof]:
    """At most three summands for a polynomial on x1..x4, given by the raw
    values of its nonzero coefficients keyed by monomial mask; the labels
    are ``FieldElem``s.  The block is read once, through its pivot's
    position table: c13 is the coefficient of x[1] x[3], the pivot, c0 the
    constant, and so on."""
    z = field.zero().value
    pivot = next((case for case in _PIVOTS if case[0] in block), _NO_PIVOT)
    _, (x1, x2, x3, x4), table = pivot
    (c0, c1, c2, c12, c3, c13, c23, c123, c4, c14, c24, c124, c34, c134, c234, c1234) = (
        block.get(m, z) for m in table
    )

    if pivot is _NO_PIVOT:
        # No quadratic terms: the linear part, then x1x2 and x3x4 times
        # their cofactors among the cubic and quartic terms.
        parts = [
            _linear_rof(c0, [(1, c1), (2, c2), (3, c3), (4, c4)], field),
            _times_monomial([1, 2], _bivariate_rof(3, 4, z, c123, c124, z, field)),
            _times_monomial([3, 4], _bivariate_rof(1, 2, z, c134, c234, c1234, field)),
        ]
        return [s for s in parts if s is not None]

    one, zero = field.one(), field.zero()
    # Everything supported inside positions {1,2} or {3,4}.
    low = _bivariate_rof(x1, x2, c0, c1, c2, c12, field)
    high = _bivariate_rof(x3, x4, z, c3, c4, c34, field)
    halves = low or high
    if low is not None and high is not None:
        halves = Gate(ADD, one, zero, low, high)
    # The pivot product: (c13 x1 + c23 x2 + c123 x1x2)(x3 + (c14/c13) x4 + (c134/c13) x3x4),
    # with one inverse of the pivot c13, which is nonzero.
    mul, sub, e = field.mul, field.sub, field.inv(c13)
    r14, r134 = mul(c14, e), mul(c134, e)
    left = _bivariate_rof(x1, x2, z, c13, c23, c123, field)
    right = _bivariate_rof(x3, x4, z, one.value, r14, r134, field)
    # The correction on x2 x4 times a bivariate in (x1, x3).
    corr = _bivariate_rof(
        x1,
        x3,
        sub(c24, mul(r14, c23)),
        sub(c124, mul(r14, c123)),
        sub(c234, mul(r134, c23)),
        sub(c1234, mul(r134, c123)),
        field,
    )
    parts = [
        halves,
        Gate(MUL, one, zero, left, right),
        _times_monomial([x2, x4], corr),
    ]
    return [s for s in parts if s is not None]


def generic(p: MultilinearPoly) -> RopSum:
    """Any multilinear polynomial as a verified sum of read-once formulas.

    Summand counts: 1 up to 2 variables, at most 2 at n=3, at most 3 at
    n=4 and at most 3 * 2^(n-4) beyond.  The recursion
    f = x_m * df/dx_m + f|_{x_m=0} on the highest variable is unrolled
    into one pass over blocks on x_1..x_low (low = 4, or 2 below n = 4):
    each block's summands are multiplied by its variables above x_low, and
    the blocks come in the recursion's order, the x_m branch first.
    """
    if p.n < 1:
        raise PreconditionViolated("decomposition needs a variable range of n >= 1")
    field = p.field
    one, zero = field.one(), field.zero()
    low = 4 if p.n >= 4 else 2
    blocks: Dict[int, Dict[int, object]] = {}
    for mask, c in p.coeffs.items():
        blocks.setdefault(mask >> low, {})[mask % (1 << low)] = c

    summands: List[Rof] = []
    for high in sorted(blocks, reverse=True):
        block = blocks[high]
        if low == 4:
            parts = _generic_base4(block, field)
        else:
            parts = [_bivariate_rof(1, 2, *(block.get(m, zero.value) for m in range(4)), field)]
        # the highest variable outermost, as the recursion wraps them
        high_leaves = [Leaf(b.bit_length(), one, zero) for b in reversed(_bits(high << low))]
        if high_leaves:
            parts = [_chain(MUL, high_leaves + [w], one, zero) for w in parts]
        summands += parts
    return _verified(summands, p)


# ---------------------------------------------------------------------------


def symmetric_halves(
    n: int,
    alpha,
    beta,
    field: Optional[FieldDescriptor] = None,
) -> RopSum:
    """The tight decomposition of alpha*S_n^n + beta*S_n^{n-1}.

    Summand i < ceil(n/2) couples (x_{2i-1} + x_{2i}) with the product of
    the other variables.  The last covers the one or two variables left:
    x_1...x_{n-1} * (alpha*x_n + beta) for odd n, and for even n
    x_1...x_{n-2} times a bivariate formula in x_{n-1} and x_n.
    """
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    field = _infer_field(field, alpha, beta)
    a = field.elem(alpha)
    b = field.elem(beta)
    target = m_poly(n, a, b, field)

    one, zero = field.one(), field.zero()
    summands: List[Rof] = []
    if not b.is_zero():
        for i in range(1, (n + 1) // 2):
            pair = Gate(
                ADD,
                one,
                zero,
                Leaf(2 * i - 1, one, zero),
                Leaf(2 * i, one, zero),
            )
            rest = [Leaf(v, one, zero) for v in range(1, n + 1) if v not in (2 * i - 1, 2 * i)]
            summands.append(_chain(MUL, [pair] + rest, b, zero))
    if n % 2:
        closer = None if a.is_zero() and b.is_zero() else Leaf(n, a, b)
    else:
        closer = _bivariate_rof(n - 1, n, zero.value, b.value, b.value, a.value, field)
    if n > 2:
        closer = _times_monomial(list(range(1, n - 1 + n % 2)), closer)
    if closer is not None:
        summands.append(closer)
    return _verified(summands, target)


# ---------------------------------------------------------------------------


def sympoly4(a0, a1, a2, a3, a4, field: Optional[FieldDescriptor] = None) -> RopSum:
    """Any combination sum_i a_i * S_4^i as at most two verified summands.

    Four cases keyed on (a2, a3, a2*a4 vs a3^2); each row's leftover
    constant is written in closed form as the first summand's output shift.
    """
    field = _infer_field(field, a0, a1, a2, a3, a4)
    c = [field.elem(v) for v in (a0, a1, a2, a3, a4)]
    target = _by_degree(4, field, dict(enumerate(c)))
    c0, c1, c2, c3, c4 = c
    one, zero = field.one(), field.zero()
    u, z = one.value, zero.value

    summands: List[Rof] = []
    if c2.is_zero() and c3.is_zero():
        linear = _linear_rof(c0.value, [(v, c1.value) for v in (1, 2, 3, 4)], field)
        if linear is not None:
            summands.append(linear)
        if not c4.is_zero():
            summands.append(_mono_chain([1, 2, 3, 4], c4, zero))
    elif c2.is_zero():
        # (a1 + a3 x1x2)(x3 + x4 + (a4/a3) x3x4) + (a1 + a3 x3x4)(x1 + x2 - a1a4/a3^2)
        # leaves the constant a0 + a1^2 a4/a3^2
        f1 = _bivariate_rof(1, 2, c1.value, z, z, c3.value, field)
        g1 = _bivariate_rof(3, 4, z, u, u, (c4 / c3).value, field)
        f2 = _bivariate_rof(3, 4, c1.value, z, z, c3.value, field)
        g2 = _bivariate_rof(1, 2, (-(c1 * c4) / (c3 * c3)).value, u, u, z, field)
        const = c0 + c1 * c1 * c4 / (c3 * c3)
        summands.append(Gate(MUL, one, const, f1, g1))
        summands.append(Gate(MUL, one, zero, f2, g2))
    else:
        # (a1 + a2 x1 + a2 x2 + a3 x1x2)(a1 + a2 x3 + a2 x4 + a3 x3x4) / a2
        # leaves a0 - a1^2/a2 + (w/a2)(x1x2 + x3x4) + (det/a2) x1x2x3x4
        inv2 = c2.inverse()
        w = c2 * c2 - c1 * c3
        det = c2 * c4 - c3 * c3
        const = c0 - c1 * c1 * inv2
        if not det.is_zero():
            const = const - w * w / (det * c2)
        blk = (c1.value, c2.value, c2.value, c3.value, field)
        blk_low = _bivariate_rof(1, 2, *blk)
        blk_high = _bivariate_rof(3, 4, *blk)
        summands.append(Gate(MUL, inv2, const, blk_low, blk_high))
        if det.is_zero():
            if not w.is_zero():
                summands.append(_matching(w * inv2, (1, 2), (3, 4)))
        else:
            # (x1x2 + w/det)(det x3x4 + w) / a2, whose constant is w^2/(det a2)
            left = _mono_chain([1, 2], one, w / det)
            right = _mono_chain([3, 4], det, w)
            summands.append(Gate(MUL, inv2, zero, left, right))

    if len(summands) > 2:
        raise RopsumError("internal: more than two summands from the case table")
    return _verified(summands, target)
