"""Constructive decompositions into sums of read-once formulas.

Four strategies, each returning a :class:`RopSum` that is re-evaluated
against its target before being handed back:

* ``pair_monomials`` -- two monomials a*x_S + b*x_T always fit in one
  formula as x_{S&T} * (a x_{S\\T} + b x_{T\\S}); pairing them up costs at
  most ceil(M/2) summands for M monomials.
* ``generic`` -- any multilinear polynomial; 1 summand up to 2 variables,
  an explicit 3-summand construction at 4 variables, and the recursion
  f = x_m * df/dx_m + f|_{x_m=0} above, for 3 * 2^(n-4) total.
* ``symmetric_halves`` -- the tight ceil(n/2) construction for
  alpha*S_n^n + beta*S_n^{n-1}.
* ``sympoly4`` -- any weighted combination of the 4-variable elementary
  symmetric polynomials in at most two summands, by a four-case table.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import CharacteristicTwo, PreconditionViolated, RopsumError
from .mpoly import MultilinearPoly, _infer_field, elementary_symmetric, m_poly
from .rof import (
    ADD,
    MUL,
    Gate,
    Leaf,
    Rof,
    RopSum,
    relabel_variables,
    sum_evaluate,
    verify_against,
)
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


def _bivariate_rof(p: MultilinearPoly, u: int, v: int) -> Rof:
    """A formula for any polynomial supported on {x_u, x_v}."""
    field = p.field
    one = field.one()
    bu, bv = 1 << (u - 1), 1 << (v - 1)
    if p.var_mask() & ~(bu | bv):
        raise PreconditionViolated("polynomial is not supported on {x%d, x%d}" % (u, v))
    a = p.coeff(0)
    b = p.coeff(bu)
    c = p.coeff(bv)
    d = p.coeff(bu | bv)
    if not d.is_zero():
        # d*(x_u + c/d)(x_v + b/d) + (a - bc/d)
        return Gate(
            MUL, d, a - b * c / d, Leaf(u, one, c / d), Leaf(v, one, b / d)
        )
    if not b.is_zero() and not c.is_zero():
        return Gate(ADD, one, a, Leaf(u, b, field.zero()), Leaf(v, c, field.zero()))
    if not b.is_zero():
        return Leaf(u, b, a)
    if not c.is_zero():
        return Leaf(v, c, a)
    return Leaf(u, field.zero(), a)


def _with_beta(rof: Rof, c: FieldElem) -> Rof:
    """The same node with c added to its output shift."""
    if c.is_zero():
        return rof
    if isinstance(rof, Leaf):
        return Leaf(rof.var, rof.alpha, rof.beta + c)
    return Gate(rof.op, rof.alpha, rof.beta + c, rof.left, rof.right)


def _verified(summands: List[Rof], target: MultilinearPoly) -> RopSum:
    out = RopSum(target.field, target.n, tuple(summands))
    if not verify_against(out, target):
        raise RopsumError("internal: decomposition failed re-evaluation")
    return out


# ---------------------------------------------------------------------------


def pair_monomials(p: MultilinearPoly) -> RopSum:
    """Pair up monomials: at most ceil(M/2) summands for M monomials."""
    if p.is_zero():
        raise PreconditionViolated("monomial pairing needs a nonzero polynomial")
    if p.n < 1:
        raise PreconditionViolated("monomial pairing needs a variable range of n >= 1")
    field = p.field
    one, zero = field.one(), field.zero()
    monomials = sorted(p.coeffs)
    summands: List[Rof] = []

    def vars_of(mask: int) -> List[int]:
        return [i + 1 for i in range(p.n) if mask & (1 << i)]

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
        elif s_only:
            # t is a subset of s: a x_s + b x_t = x_t (a x_{s-t} + b)
            inner = _mono_chain(vars_of(s_only), a, b)
        else:
            inner = _mono_chain(vars_of(t_only), b, a)
        if common:
            inner = Gate(MUL, one, zero, _mono_chain(vars_of(common), one, zero), inner)
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


def _linear_rof(p: MultilinearPoly) -> Optional[Rof]:
    """A formula for a degree-<=1 polynomial; None for the zero polynomial."""
    if p.is_zero():
        return None
    field = p.field
    one, zero = field.one(), field.zero()
    const = p.coeff(0)
    terms = [(m.bit_length(), p.coeff(m)) for m in sorted(p.coeffs) if m]
    if not terms:
        return Leaf(1, zero, const)
    tree: Rof = Leaf(terms[0][0], terms[0][1], zero)
    for v, c in terms[1:]:
        tree = Gate(ADD, one, zero, tree, Leaf(v, c, zero))
    return _with_beta(tree, const)


def _sub_poly(p: MultilinearPoly, keep_mask: int, drop_constant: bool = False) -> MultilinearPoly:
    coeffs = {
        m: c
        for m, c in p.coeffs.items()
        if (m & ~keep_mask) == 0 and not (drop_constant and m == 0)
    }
    return MultilinearPoly._trusted(p.n, p.field, coeffs)


_QUAD_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _generic_base4(p: MultilinearPoly) -> List[Rof]:
    """At most three summands for a polynomial on x1..x4."""
    field = p.field
    one, zero = field.one(), field.zero()

    def mask(*idxs: int) -> int:
        out = 0
        for i in idxs:
            out |= 1 << (i - 1)
        return out

    pivot = next(
        ((i, j) for i, j in _QUAD_PAIRS if not p.coeff(mask(i, j)).is_zero()), None
    )

    if pivot is None:
        # No quadratic terms: linear part, a 3-4 heavy part, a 1-2 heavy part.
        summands: List[Rof] = []
        linear = _linear_rof(
            MultilinearPoly._trusted(
                p.n, field, {m: c for m, c in p.coeffs.items() if m.bit_count() <= 1}
            )
        )
        inner2 = MultilinearPoly(
            p.n,
            field,
            {
                mask(3): p.coeff(mask(1, 2, 3)),
                mask(4): p.coeff(mask(1, 2, 4)),
            },
        )
        inner3 = MultilinearPoly(
            p.n,
            field,
            {
                mask(1): p.coeff(mask(1, 3, 4)),
                mask(2): p.coeff(mask(2, 3, 4)),
                mask(1, 2): p.coeff(mask(1, 2, 3, 4)),
            },
        )
        if linear is not None:
            summands.append(linear)
        if not inner2.is_zero():
            summands.append(
                Gate(
                    MUL,
                    one,
                    zero,
                    _mono_chain([1, 2], one, zero),
                    _bivariate_rof(inner2, 3, 4),
                )
            )
        if not inner3.is_zero():
            summands.append(
                Gate(
                    MUL,
                    one,
                    zero,
                    _mono_chain([3, 4], one, zero),
                    _bivariate_rof(inner3, 1, 2),
                )
            )
        return summands

    # Normalize the pivot quadratic onto positions (1, 3).
    i, j = pivot
    others = sorted(set((1, 2, 3, 4)) - {i, j})
    perm = {i: 1, j: 3, others[0]: 2, others[1]: 4}
    inverse = {new: old for old, new in perm.items()}
    q = _permute_vars(p, perm)

    def qc(*idxs: int) -> FieldElem:
        return q.coeff(mask(*idxs))

    a13 = qc(1, 3)
    summands = []
    # Everything supported inside {1,2} or {3,4}.
    low = _sub_poly(q, mask(1, 2))
    high = _sub_poly(q, mask(3, 4), drop_constant=True)
    if not low.is_zero() and not high.is_zero():
        summands.append(
            Gate(
                ADD,
                one,
                zero,
                _bivariate_rof(low, 1, 2),
                _bivariate_rof(high, 3, 4),
            )
        )
    elif not low.is_zero():
        summands.append(_bivariate_rof(low, 1, 2))
    elif not high.is_zero():
        summands.append(_bivariate_rof(high, 3, 4))

    # The pivot product: (a13 x1 + a23 x2 + a123 x1x2)(x3 + (a14/a13) x4 + (a134/a13) x3x4).
    left = MultilinearPoly(
        p.n,
        field,
        {mask(1): a13, mask(2): qc(2, 3), mask(1, 2): qc(1, 2, 3)},
    )
    right = MultilinearPoly(
        p.n,
        field,
        {
            mask(3): one,
            mask(4): qc(1, 4) / a13,
            mask(3, 4): qc(1, 3, 4) / a13,
        },
    )
    summands.append(
        Gate(MUL, one, zero, _bivariate_rof(left, 1, 2), _bivariate_rof(right, 3, 4))
    )

    # The correction on x2 x4 times a bivariate in (x1, x3).
    corr = MultilinearPoly(
        p.n,
        field,
        {
            0: qc(2, 4) - qc(1, 4) * qc(2, 3) / a13,
            mask(1): qc(1, 2, 4) - qc(1, 4) * qc(1, 2, 3) / a13,
            mask(3): qc(2, 3, 4) - qc(1, 3, 4) * qc(2, 3) / a13,
            mask(1, 3): qc(1, 2, 3, 4) - qc(1, 3, 4) * qc(1, 2, 3) / a13,
        },
    )
    if not corr.is_zero():
        summands.append(
            Gate(
                MUL,
                one,
                zero,
                _mono_chain([2, 4], one, zero),
                _bivariate_rof(corr, 1, 3),
            )
        )
    return [relabel_variables(s, inverse) for s in summands]


def _permute_vars(p: MultilinearPoly, perm: dict) -> MultilinearPoly:
    out = {}
    for m, c in p.coeffs.items():
        nm = 0
        for i in range(p.n):
            if m & (1 << i):
                nm |= 1 << (perm.get(i + 1, i + 1) - 1)
        out[nm] = c
    return MultilinearPoly._trusted(p.n, p.field, out)


def generic(p: MultilinearPoly) -> RopSum:
    """Any multilinear polynomial as a verified sum of read-once formulas.

    Summand counts: 1 up to 2 variables, at most 2 at n=3, at most 3 at
    n=4 and at most 3 * 2^(n-4) beyond, by always splitting on the
    highest-indexed variable.
    """
    if p.n < 1:
        raise PreconditionViolated("decomposition needs a variable range of n >= 1")
    field = p.field
    one, zero = field.one(), field.zero()

    def rec(q: MultilinearPoly, m: int) -> List[Rof]:
        if q.is_zero():
            return []
        if m <= 2:
            return [_bivariate_rof(q, 1, 2)]
        if m == 4:
            return _generic_base4(q)
        g, h = q.partial(m), q.restrict(m, 0)
        out = [
            Gate(MUL, one, zero, Leaf(m, one, zero), w) for w in rec(g, m - 1)
        ]
        out.extend(rec(h, m - 1))
        return out

    return _verified(rec(p, p.n), p)


# ---------------------------------------------------------------------------


def symmetric_halves(
    n: int,
    alpha,
    beta,
    field: Optional[FieldDescriptor] = None,
) -> RopSum:
    """The tight decomposition of alpha*S_n^n + beta*S_n^{n-1}.

    For even n this is the explicit half-pairing: summand i couples
    (x_{2i-1} + x_{2i}) with the product of the other variables, the last
    summand absorbing the top coefficient.  Odd n falls back to monomial
    pairing, which meets the same ceil(n/2) bound.
    """
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    field = _infer_field(field, alpha, beta)
    a = field.elem(alpha)
    b = field.elem(beta)
    target = m_poly(n, a, b, field)

    if n % 2 == 1:
        if target.is_zero():
            return RopSum(field, n, ())
        return pair_monomials(target)

    one, zero = field.one(), field.zero()
    k = n // 2
    summands: List[Rof] = []
    if not b.is_zero():
        for i in range(1, k):
            pair = Gate(
                ADD,
                one,
                zero,
                Leaf(2 * i - 1, one, zero),
                Leaf(2 * i, one, zero),
            )
            rest = [v for v in range(1, n + 1) if v not in (2 * i - 1, 2 * i)]
            summands.append(Gate(MUL, b, zero, pair, _mono_chain(rest, one, zero)))
    closing = MultilinearPoly(
        n,
        field,
        {
            1 << (n - 2): b,
            1 << (n - 1): b,
            (1 << (n - 2)) | (1 << (n - 1)): a,
        },
    )
    if not closing.is_zero():
        closer = _bivariate_rof(closing, n - 1, n)
        if n > 2:
            rest = list(range(1, n - 1))
            closer = Gate(MUL, one, zero, _mono_chain(rest, one, zero), closer)
        summands.append(closer)
    return _verified(summands, target)


# ---------------------------------------------------------------------------


def sympoly4(a0, a1, a2, a3, a4, field: Optional[FieldDescriptor] = None) -> RopSum:
    """Any combination sum_i a_i * S_4^i as at most two verified summands.

    Four cases keyed on (a2, a3, a2*a4 vs a3^2); each row's leftover
    constant is recovered as the residual against the target and folded
    into the first summand's output shift.
    """
    field = _infer_field(field, a0, a1, a2, a3, a4)
    if field.characteristic == 2:
        raise CharacteristicTwo("the case table divides by 2-regular coefficients")
    c0, c1, c2, c3, c4 = (field.elem(v) for v in (a0, a1, a2, a3, a4))
    target = MultilinearPoly.zero(4, field)
    for k, ck in enumerate((c0, c1, c2, c3, c4)):
        target = target + elementary_symmetric(4, k, field).scale(ck)
    one, zero = field.one(), field.zero()

    summands: List[Rof] = []
    if c2.is_zero() and c3.is_zero():
        linear = _linear_rof(
            MultilinearPoly(
                4, field, {0: c0, 0b0001: c1, 0b0010: c1, 0b0100: c1, 0b1000: c1}
            )
        )
        if linear is not None:
            summands.append(linear)
        if not c4.is_zero():
            summands.append(_mono_chain([1, 2, 3, 4], c4, zero))
    elif c2.is_zero():
        # (a1 + a3 x1x2)(x3 + x4 + (a4/a3) x3x4) + (a1 + a3 x3x4)(x1 + x2 - a1a4/a3^2)
        f1 = MultilinearPoly(4, field, {0: c1, 0b0011: c3})
        g1 = MultilinearPoly(
            4, field, {0b0100: one, 0b1000: one, 0b1100: c4 / c3}
        )
        f2 = MultilinearPoly(4, field, {0: c1, 0b1100: c3})
        g2 = MultilinearPoly(
            4, field, {0b0001: one, 0b0010: one, 0: -(c1 * c4) / (c3 * c3)}
        )
        summands.append(
            Gate(MUL, one, zero, _bivariate_rof(f1, 1, 2), _bivariate_rof(g1, 3, 4))
        )
        summands.append(
            Gate(MUL, one, zero, _bivariate_rof(f2, 3, 4), _bivariate_rof(g2, 1, 2))
        )
    else:
        inv2 = c2.inverse()
        blk_low = MultilinearPoly(
            4, field, {0: c1, 0b0001: c2, 0b0010: c2, 0b0011: c3}
        )
        blk_high = MultilinearPoly(
            4, field, {0: c1, 0b0100: c2, 0b1000: c2, 0b1100: c3}
        )
        summands.append(
            Gate(
                MUL,
                inv2,
                zero,
                _bivariate_rof(blk_low, 1, 2),
                _bivariate_rof(blk_high, 3, 4),
            )
        )
        w = c2 * c2 - c1 * c3
        det = c2 * c4 - c3 * c3
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
            # (x1x2 + w/det)(det x3x4 + w) / a2
            left = _mono_chain([1, 2], one, w / det)
            right = _mono_chain([3, 4], det, w)
            summands.append(Gate(MUL, inv2, zero, left, right))

    trial = RopSum(field, 4, tuple(summands))
    residual = target - sum_evaluate(trial)
    if not residual.is_constant():
        raise RopsumError("internal: case-table residual is not a constant")
    shift = residual.constant_term()
    if not shift.is_zero():
        if summands:
            summands[0] = _with_beta(summands[0], shift)
        else:
            summands.append(Leaf(1, zero, shift))
    if len(summands) > 2:
        raise RopsumError("internal: more than two summands from the case table")
    return _verified(summands, target)
