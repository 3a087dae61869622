"""Decision procedures for read-once structure.

The centerpiece is ``is_rop``: an exact, witness-producing recognizer for
read-once polynomials over any supported field.  Each node reads only
its lowest variable x_a.  The monomials that meet x_a, grown until they
stop growing, give its component of the interaction graph (mixed-partial
nonvanishing); if that is not every variable, the polynomial splits
additively there.  Otherwise a top multiplication gate is forced, and the
pairs (a, b) decide it.  One pair test serves both halves of that gate:
writing f = A + B x_a + C x_b + D x_a x_b, the commutator A*D - B*C of
x_a and x_b.  The gate's constant shift beta is recovered from a pair
whose commutator is beta * D (the identity (f - beta) * d_a d_b f =
d_a f * d_b f), and the factors of f - beta are the blocks of the pairs
whose commutator is nonzero, each read off as a slice of f's monomials.
The first pair (a, b) that yields a shift decides the node: one
factorization per node, and the scan stops there.

On top of that sits the one certified decision for sums of two
read-once formulas on four variables, ``family4_decide``: complete on the
weighted quadratic family, it either emits a verified two-formula witness
or returns the discriminant d_1 = d_2 = d_3, which has no square root.
Its witnesses are built on their final variables and re-checked with the
formula builders of :mod:`ropsum.decompose`.  ``sum2_refute`` sends a
4-variable polynomial of the family's shape there and answers every other
input with one fixed ``inconclusive``.

The recognizer works directly on a polynomial's raw coefficient map
(mask -> Fraction, or int in [0, p)) with its field descriptor's
arithmetic, and takes the commutator from :mod:`ropsum.mpoly`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ._record import Frozen, _set
from .decompose import _bivariate_rof, _chain, _matching, _verified
from .errors import PreconditionViolated, RopsumError
from .mpoly import (
    MultilinearPoly,
    _bits,
    _commutator_raw,
    _disjoint_product,
    _infer_field,
    _support,
    family4,
)
from .rof import (
    ADD,
    MUL,
    Gate,
    Leaf,
    Rof,
    RopSum,
    evaluate,
    print_rof,
)
from .scalars import FieldDescriptor, FieldElem, sqrt_in_field

# ---------------------------------------------------------------------------
# coefficient-map helpers
# ---------------------------------------------------------------------------


def _factor_blocks(
    coeffs: Dict[int, object], field: FieldDescriptor
) -> List[Dict[int, object]]:
    """Maximal variable-disjoint factorization of a nonconstant map, ordered
    by lowest variable; the returned factors multiply back to the input
    exactly, and a product that does not raises ``RopsumError``.

    The blocks are the connected components of the pairs x_i, x_j that
    cannot end up in different factors: writing f = A + B x_i + C x_j +
    D x_i x_j, those whose commutator A*D - B*C is nonzero.  For a
    monomial m0 of f with coefficient c0, the monomials of f that agree
    with m0 outside a block B_a, keyed by their part inside B_a, are that
    block's factor F_a times one nonzero constant; the k slices multiply to
    c0^(k-1) * f, so all but the last are divided by c0.  The blocks grow
    by union-find over the pairs in order, and a pair already in one block
    is not tested.
    """
    bits = _bits(_support(coeffs))
    block = {b: b for b in bits}  # variable bit -> mask of its current block
    for i, bi in enumerate(bits):
        for bj in bits[i + 1 :]:
            if block[bi] & bj or not _commutator_raw(coeffs, bi, bj, field)[0]:
                continue
            merged = block[bi] | block[bj]
            for b in _bits(merged):
                block[b] = merged
    blocks = [block[b] for b in bits if block[b] & -block[b] == b]
    if len(blocks) == 1:
        return [dict(coeffs)]

    m0 = min(coeffs)
    c0 = coeffs[m0]
    last = blocks[-1]
    factors = [
        {
            m & block: c if block == last else field.div(c, c0)
            for m, c in coeffs.items()
            if m & ~block == m0 & ~block
        }
        for block in blocks
    ]

    product = factors[0]
    for f in factors[1:]:
        product = _disjoint_product(product, f, field)
    if product != coeffs:
        raise RopsumError("internal: block factorization failed verification")
    return factors


# ---------------------------------------------------------------------------
# read-once recognition
# ---------------------------------------------------------------------------


def _is_rop_raw(coeffs: Dict[int, object], field: FieldDescriptor) -> Optional[Rof]:
    vmask = _support(coeffs)
    if vmask == 0:
        # A bare constant: realized on a zero-scaled leaf of x1.
        return Leaf(1, field.zero(), field.elem(coeffs.get(0, 0)))
    if vmask.bit_count() == 1:
        alpha = field.elem(coeffs.get(vmask, 0))
        beta = field.elem(coeffs.get(0, 0))
        return Leaf(vmask.bit_length(), alpha, beta)
    # the component of the lowest variable x_a: OR in every monomial that
    # meets it until it stops growing
    a = vmask & -vmask
    block, grown = 0, a
    while grown != block:
        block = grown
        grown = _support(m for m in coeffs if m & block)
    if block != vmask:
        # f = (that component's monomials, and the constant) + (the rest),
        # and the rest splits again; k components give one ADD chain
        part = {m: c for m, c in coeffs.items() if m & block or not m}
        rest = {m: c for m, c in coeffs.items() if m and not m & block}
        return _gate_chain([part, rest], ADD, field.zero(), field)
    return _multiplicative_split(coeffs, a, field)


def _gate_chain(
    parts: List[Dict[int, object]], op: str, beta: FieldElem, field: FieldDescriptor
) -> Optional[Rof]:
    """The ``_chain`` of op over the witnesses of two or more parts, with
    unit scale and shift beta; None if a part is not read-once."""
    witnesses = []
    for part in parts:
        w = _is_rop_raw(part, field)
        if w is None:
            return None
        witnesses.append(w)
    return _chain(op, witnesses, field.one(), beta)


def _multiplicative_split(coeffs, a, field) -> Optional[Rof]:
    """A top multiplication gate for a polynomial with a connected
    interaction graph and lowest variable bit ``a``, or None if it has none.

    Only the pairs (a, b) are tested, for each x_b that shares a monomial
    with x_a, b ascending; the first that passes the identity
    (f - beta) * d_a d_b f = d_a f * d_b f decides.  Writing
    f = A + B x_a + C x_b + D x_a x_b, the identity reads
    A*D - B*C = beta * D; then f - beta factors into k >= 2
    variable-disjoint blocks, and f is read-once exactly when every block
    is: a variable-disjoint factor of a read-once polynomial is read-once
    (restrict its cofactor to a 0/1 point where the cofactor is nonzero).

    These pairs are enough.  If f = alpha * L * R + beta is read-once with
    x_a in L, every pair (a, b) with x_b in R passes with that beta, since
    D = alpha * d_a L * d_b R != 0.  And if any pair of f passes, with a
    shift beta', then f - beta' = P * Q with P and Q variable-disjoint, so
    every pair (a, b) with x_b on the other side from x_a passes too: when
    no pair (a, b) passes, no pair of f does.  The pairs (a, b) come first
    among all pairs i < j in order, so the pair that decides is also the
    first passing pair of f.
    """
    for b in _bits(_support(m for m in coeffs if m & a) ^ a):
        comm, d = _commutator_raw(coeffs, a, b, field)
        k0 = next(iter(d))  # d is nonzero: x_a and x_b share a monomial
        betahat = field.div(comm.get(k0, 0), d[k0])
        scaled = {k: field.mul(betahat, c) for k, c in d.items()} if betahat else {}
        if comm != scaled:
            continue
        shifted = dict(coeffs)
        c0 = field.sub(shifted.pop(0, 0), betahat)
        if c0:
            shifted[0] = c0
        factors = _factor_blocks(shifted, field)
        if len(factors) < 2:  # the identity makes f - beta = P*Q, x_a in P, x_b in Q
            raise RopsumError("internal: a passing edge left f - beta unfactored")
        return _gate_chain(factors, MUL, field.elem(betahat), field)
    return None


def is_rop(p: MultilinearPoly) -> Optional[Rof]:
    """A read-once formula computing p exactly, or None if p is not a
    read-once polynomial over its field.

    The returned witness always re-evaluates to p, and the re-evaluation
    refuses it unless it reads each variable at most once (both checked
    before return).  Requires n >= 1 so that constant polynomials have a leaf to sit on.
    """
    if p.n < 1:
        raise PreconditionViolated("recognition needs a variable range of n >= 1")
    witness = _is_rop_raw(p.coeffs, p.field)
    if witness is not None and evaluate(witness, p.n) != p:
        raise RopsumError("internal: recognition witness failed re-evaluation")
    return witness


# ---------------------------------------------------------------------------
# the weighted quadratic family: closed-form sum-of-2 decision
# ---------------------------------------------------------------------------


class Sum2Decision(Frozen):
    """Certificate for the can-it-be-a-sum-of-two-read-once-formulas question.

    ``expressible`` carries a verified witness and the condition that
    failed; ``not_expressible`` carries the three discriminants, which are
    one value with no square root in the field; ``inconclusive``, the
    answer outside the weighted family, carries one fixed note.
    """

    __slots__ = _fields = ("outcome", "branch", "witness", "d", "note", "tau", "delta", "mu")

    def __init__(
        self,
        outcome: str,  # "expressible" | "not_expressible" | "inconclusive"
        branch: Optional[str] = None,  # "C1-false" | "C2-false" | "C3-false"
        witness: Optional[RopSum] = None,
        d: Optional[Tuple[FieldElem, FieldElem, FieldElem]] = None,
        note: Optional[str] = None,
        tau: Optional[FieldElem] = None,
        delta: Optional[FieldElem] = None,
        mu: Optional[FieldElem] = None,
    ):
        for name, value in zip(self._fields, (outcome, branch, witness, d, note, tau, delta, mu)):
            _set(self, name, value)

    def to_json_dict(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.branch is not None:
            out["branch"] = self.branch
        if self.d is not None:
            out["d"] = [str(v) for v in self.d]
        if self.witness is not None:
            out["witness"] = [print_rof(r) for r in self.witness.summands]
        if self.tau is not None:
            out["params"] = {
                "tau": str(self.tau),
                "delta": str(self.delta),
                "mu": str(self.mu),
            }
        if self.note is not None:
            out["note"] = self.note
        return out


def _family_discriminant(a: FieldElem, b: FieldElem, c: FieldElem) -> FieldElem:
    """The decision discriminant d_1 = d_2 = d_3: d_1 =
    (a^2 - b^2 - c^2)^2 - (2bc)^2 and its two permutations all expand to
    the symmetric a^4 + b^4 + c^4 - 2(a^2 b^2 + b^2 c^2 + c^2 a^2)."""
    a2, b2, c2 = a * a, b * b, c * c
    return a2 * a2 + b2 * b2 + c2 * c2 - 2 * (a2 * b2 + b2 * c2 + c2 * a2)


def family4_decide(
    alpha, beta, gamma, field: Optional[FieldDescriptor] = None
) -> Sum2Decision:
    """Complete decision: can the weighted quadratic family polynomial be
    written as a sum of two read-once formulas over the given field?

    Outcomes follow the three conditions in order: a zero weight (C1
    fails) splits the defining expression itself; equal squared weights
    (C2 fails) give a product of binomials plus one weighted matching, on
    the variable pairs that the equal pair of weights picks; a square root
    of the discriminant (C3 fails) drives the two-binomial construction
    with delta and mu.  Otherwise the polynomial is not a sum of two
    read-once formulas, certified by (d1, d2, d3), which are equal.

    Every witness is verified by exact re-evaluation before it is returned.
    """
    field = _infer_field(field, alpha, beta, gamma)
    a = field.elem(alpha)
    b = field.elem(beta)
    c = field.elem(gamma)
    target = family4(a, b, c, field)
    one, zero = field.one(), field.zero()

    def finish(summands, branch, **params):
        witness = _verified(summands, target)
        return Sum2Decision("expressible", branch, witness, **params)

    def binomials(w, u, s, v, t):
        """w * (x_u1 + s x_u2) * (x_v1 + t x_v2) for the variable pairs u and v."""
        return Gate(
            MUL,
            w,
            zero,
            _bivariate_rof(*u, zero.value, one.value, s.value, zero.value, field),
            _bivariate_rof(*v, zero.value, one.value, t.value, zero.value, field),
        )

    # C1: all three weights nonzero?
    if a.is_zero() or b.is_zero() or c.is_zero():
        groups = [(a, (1, 2), (3, 4)), (b, (1, 3), (2, 4)), (c, (1, 4), (2, 3))]
        summands = [_matching(w, u, v) for w, u, v in groups if not w.is_zero()]
        return finish(summands, "C1-false")

    # C2: pairwise distinct squared weights?  On failure, with pa^2 = pb^2
    # and s = pb/pa = +-1, the family is
    # pa (x_u1 + s x_u2)(x_v1 + s x_v2) + pc (x_u1 x_u2 + x_v1 x_v2).
    for u, v, (pa, pb, pc) in (
        ((1, 4), (2, 3), (a, b, c)),
        ((1, 2), (4, 3), (c, b, a)),
        ((1, 3), (2, 4), (a, c, b)),
    ):
        if pa * pa != pb * pb:
            continue
        sign = one if pa == pb else -one
        return finish(
            [binomials(pa, u, sign, v, sign), _matching(pc, u, v)],
            "C2-false",
        )

    # C3: no square root of the discriminant?  Over F_2 every nonzero
    # weight is 1, so C1 or C2 has answered and 2*b*c is never divided by.
    d = _family_discriminant(a, b, c)
    tau = sqrt_in_field(d)
    if tau is not None:
        delta = (a * a - b * b - c * c + tau) / (2 * b * c)
        mu = -(c + b * delta) / a
        if delta.is_zero() or mu.is_zero():
            raise RopsumError("internal: degenerate root in the C3 construction")
        return finish(
            [
                binomials(a, (1, 3), -mu, (2, 4), -mu.inverse()),
                binomials(b, (1, 2), -delta, (3, 4), -delta.inverse()),
            ],
            "C3-false",
            tau=tau,
            delta=delta,
            mu=mu,
        )

    return Sum2Decision(
        outcome="not_expressible",
        d=(d, d, d),
        note="all three conditions hold; no sum of two read-once formulas exists",
    )




def sum2_refute(g: MultilinearPoly) -> Sum2Decision:
    """The sum-of-two decision for a 4-variable polynomial, where one is
    certified.

    A polynomial of the weighted quadratic family's shape gets
    ``family4_decide``'s complete decision.  Every other input gets one
    fixed ``inconclusive`` answer, since outside the family no decision is
    certified: this never claims non-expressibility there.
    """
    if g.n != 4:
        raise PreconditionViolated("the decision operates on 4-variable polynomials")
    a, b, c = g.coeff(0b0011), g.coeff(0b0101), g.coeff(0b1001)
    if g == family4(a, b, c, g.field):
        return family4_decide(a, b, c, g.field)
    return Sum2Decision("inconclusive", note="outside the weighted family; no certified decision")
