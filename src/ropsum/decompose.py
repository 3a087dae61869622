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

Every strategy builds its formulas straight from coefficients; the one
polynomial expansion is the final check.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionViolated, RopsumError
from .mpoly import MultilinearPoly, _bits, _by_degree, _infer_field, m_poly
from .rof import ADD, MUL, Gate, Leaf, Rof, RopSum, verify_against
from .scalars import FieldDescriptor, FieldElem


def _mono_chain(variables: List[int], alpha: FieldElem, beta: FieldElem) -> Rof:
    """alpha * x_{v1} * ... * x_{vk} + beta as a right-leaning product chain."""
    field = alpha.field
    one, zero = field.one(), field.zero()
    if len(variables) == 1:
        return Leaf(variables[0], alpha, beta)
    tree: Rof = Leaf(variables[-1], one, zero)
    for v in reversed(variables[1:-1]):
        tree = Gate(MUL, one, zero, Leaf(v, one, zero), tree)
    return Gate(MUL, alpha, beta, Leaf(variables[0], one, zero), tree)


def _bivariate_rof(
    u: int, v: int, a: FieldElem, b: FieldElem, c: FieldElem, d: FieldElem
) -> Optional[Rof]:
    """A formula for a + b*x_u + c*x_v + d*x_u*x_v; None when all four are zero."""
    field = a.field
    one, zero = field.one(), field.zero()
    if not d.is_zero():
        # d*(x_u + c/d)(x_v + b/d) + (a - bc/d)
        return Gate(
            MUL, d, a - b * c / d, Leaf(u, one, c / d), Leaf(v, one, b / d)
        )
    if not b.is_zero() and not c.is_zero():
        return Gate(ADD, one, a, Leaf(u, b, zero), Leaf(v, c, zero))
    if not b.is_zero():
        return Leaf(u, b, a)
    if not c.is_zero():
        return Leaf(v, c, a)
    if not a.is_zero():
        return Leaf(u, zero, a)
    return None


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
    field = p.field
    one, zero = field.one(), field.zero()
    monomials = sorted(p.coeffs)
    summands: List[Rof] = []

    def vars_of(mask: int) -> List[int]:
        return [b.bit_length() for b in _bits(mask)]

    for idx in range(0, len(monomials) - 1, 2):
        s, t = monomials[idx], monomials[idx + 1]
        a, b = p.coeff(s), p.coeff(t)
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
        a = p.coeff(s)
        if s:
            summands.append(_mono_chain(vars_of(s), a, zero))
        else:
            summands.append(Leaf(1, zero, a))
    return _verified(summands, p)


# ---------------------------------------------------------------------------


def _linear_rof(const: FieldElem, terms: List[Tuple[int, FieldElem]]) -> Optional[Rof]:
    """A formula for const + sum of c*x_v over the (v, c) pairs, in order;
    None when everything is zero."""
    field = const.field
    one, zero = field.one(), field.zero()
    terms = [(v, c) for v, c in terms if not c.is_zero()]
    if not terms:
        return None if const.is_zero() else Leaf(1, zero, const)
    tree: Rof = Leaf(terms[0][0], terms[0][1], zero)
    for v, c in terms[1:]:
        tree = Gate(ADD, one, zero, tree, Leaf(v, c, zero))
    return replace(tree, beta=const)


_QUAD_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _generic_base4(block: Dict[int, FieldElem], field: FieldDescriptor) -> List[Rof]:
    """At most three summands for a polynomial on x1..x4, given by its
    nonzero coefficients keyed by monomial mask."""
    one, zero = field.one(), field.zero()
    pivot = next(
        ((i, j) for i, j in _QUAD_PAIRS if (1 << (i - 1) | 1 << (j - 1)) in block),
        None,
    )
    # Position q of the construction stands for the variable x[q]; a pivot
    # quadratic x_i x_j sits at positions (1, 3).
    i, j = pivot or (1, 3)
    k, l = sorted({1, 2, 3, 4} - {i, j})
    x = {1: i, 2: k, 3: j, 4: l}

    def c(*positions: int) -> FieldElem:
        return block.get(sum(1 << (x[q] - 1) for q in positions), zero)

    if pivot is None:
        # No quadratic terms: the linear part, then x1x2 and x3x4 times
        # their cofactors among the cubic and quartic terms.
        cof12 = _bivariate_rof(3, 4, zero, c(1, 2, 3), c(1, 2, 4), zero)
        cof34 = _bivariate_rof(1, 2, zero, c(1, 3, 4), c(2, 3, 4), c(1, 2, 3, 4))
        parts = [
            _linear_rof(c(), [(v, c(v)) for v in (1, 2, 3, 4)]),
            _times_monomial([1, 2], cof12),
            _times_monomial([3, 4], cof34),
        ]
        return [s for s in parts if s is not None]

    a13 = c(1, 3)
    # Everything supported inside positions {1,2} or {3,4}.
    low = _bivariate_rof(x[1], x[2], c(), c(1), c(2), c(1, 2))
    high = _bivariate_rof(x[3], x[4], zero, c(3), c(4), c(3, 4))
    halves = low or high
    if low is not None and high is not None:
        halves = Gate(ADD, one, zero, low, high)
    # The pivot product: (a13 x1 + a23 x2 + a123 x1x2)(x3 + (a14/a13) x4 + (a134/a13) x3x4).
    left = _bivariate_rof(x[1], x[2], zero, a13, c(2, 3), c(1, 2, 3))
    right = _bivariate_rof(x[3], x[4], zero, one, c(1, 4) / a13, c(1, 3, 4) / a13)
    # The correction on x2 x4 times a bivariate in (x1, x3).
    corr = _bivariate_rof(
        x[1],
        x[3],
        c(2, 4) - c(1, 4) * c(2, 3) / a13,
        c(1, 2, 4) - c(1, 4) * c(1, 2, 3) / a13,
        c(2, 3, 4) - c(1, 3, 4) * c(2, 3) / a13,
        c(1, 2, 3, 4) - c(1, 3, 4) * c(1, 2, 3) / a13,
    )
    parts = [
        halves,
        Gate(MUL, one, zero, left, right),
        _times_monomial([x[2], x[4]], corr),
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
    blocks: Dict[int, Dict[int, FieldElem]] = {}
    for mask, c in p.coeffs.items():
        blocks.setdefault(mask >> low, {})[mask % (1 << low)] = FieldElem(field, c)

    summands: List[Rof] = []
    for high in sorted(blocks, reverse=True):
        block = blocks[high]
        if low == 4:
            parts = _generic_base4(block, field)
        else:
            parts = [_bivariate_rof(1, 2, *(block.get(m, zero) for m in range(4)))]
        # the lowest high variable innermost, as the recursion wraps them
        for b in _bits(high << low):
            leaf = Leaf(b.bit_length(), one, zero)
            parts = [Gate(MUL, one, zero, leaf, w) for w in parts]
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
            rest = [v for v in range(1, n + 1) if v not in (2 * i - 1, 2 * i)]
            summands.append(Gate(MUL, b, zero, pair, _mono_chain(rest, one, zero)))
    if n % 2:
        closer = None if a.is_zero() and b.is_zero() else Leaf(n, a, b)
    else:
        closer = _bivariate_rof(n - 1, n, zero, b, b, a)
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
    if field.characteristic == 2:
        raise PreconditionViolated("the case table divides by 2-regular coefficients")
    c = [field.elem(v) for v in (a0, a1, a2, a3, a4)]
    target = _by_degree(4, field, dict(enumerate(c)))
    c0, c1, c2, c3, c4 = c
    one, zero = field.one(), field.zero()

    summands: List[Rof] = []
    if c2.is_zero() and c3.is_zero():
        linear = _linear_rof(c0, [(v, c1) for v in (1, 2, 3, 4)])
        if linear is not None:
            summands.append(linear)
        if not c4.is_zero():
            summands.append(_mono_chain([1, 2, 3, 4], c4, zero))
    elif c2.is_zero():
        # (a1 + a3 x1x2)(x3 + x4 + (a4/a3) x3x4) + (a1 + a3 x3x4)(x1 + x2 - a1a4/a3^2)
        # leaves the constant a0 + a1^2 a4/a3^2
        f1 = _bivariate_rof(1, 2, c1, zero, zero, c3)
        g1 = _bivariate_rof(3, 4, zero, one, one, c4 / c3)
        f2 = _bivariate_rof(3, 4, c1, zero, zero, c3)
        g2 = _bivariate_rof(1, 2, -(c1 * c4) / (c3 * c3), one, one, zero)
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
        blk_low = _bivariate_rof(1, 2, c1, c2, c2, c3)
        blk_high = _bivariate_rof(3, 4, c1, c2, c2, c3)
        summands.append(Gate(MUL, inv2, const, blk_low, blk_high))
        if det.is_zero():
            if not w.is_zero():
                second = Gate(
                    ADD,
                    w * inv2,
                    zero,
                    _mono_chain([1, 2], one, zero),
                    _mono_chain([3, 4], one, zero),
                )
                summands.append(second)
        else:
            # (x1x2 + w/det)(det x3x4 + w) / a2, whose constant is w^2/(det a2)
            left = _mono_chain([1, 2], one, w / det)
            right = _mono_chain([3, 4], det, w)
            summands.append(Gate(MUL, inv2, zero, left, right))

    if len(summands) > 2:
        raise RopsumError("internal: more than two summands from the case table")
    return _verified(summands, target)
