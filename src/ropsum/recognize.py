"""Decision procedures for read-once structure.

The centerpiece is ``is_rop``: an exact, witness-producing recognizer for
read-once polynomials over any supported field.  It recurses on the
interaction graph (mixed-partial nonvanishing): a disconnected graph
splits the polynomial additively; a connected one forces a top
multiplication gate.  One pair test serves both halves of that gate:
writing f = A + B x_i + C x_j + D x_i x_j, the commutator A*D - B*C of
x_i and x_j.  The gate's constant shift beta is recovered from an edge
whose commutator is beta * D (the identity (f - beta) * d_i d_j f =
d_i f * d_j f), and the factors of f - beta are the blocks of the pairs
whose commutator is nonzero, each read off as a slice of f's monomials.
Each distinct beta is factored once per node, and both the additive
components and the factorization's blocks come from one union-find
partition, so a pair already joined is never tested.  Both cuts are
exact; a negative answer still costs one commutator per edge of every
node reached.

On top of that sit the certified decisions for sums of two read-once
formulas on four variables: the restriction-linearity check (C1'), the
derivative linear-dependence check (C2'), and the complete closed-form
decision ``family4_decide`` for the weighted quadratic family, which
either emits a verified two-formula witness or returns the discriminant
d_1 = d_2 = d_3, which has no square root.  Its witnesses are built on
their final variables and re-checked with the formula builders of
:mod:`ropsum.decompose`.

The recognizer works directly on a polynomial's raw coefficient map
(mask -> Fraction, or int in [0, p)) with its field descriptor's
arithmetic, and takes the commutator from :mod:`ropsum.mpoly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from .decompose import _bivariate_rof, _mono_chain, _verified
from .errors import PreconditionViolated, RopsumError
from .mpoly import (
    MultilinearPoly,
    _bits,
    _commutator_raw,
    _disjoint_product,
    _edges,
    _infer_field,
    _support,
    family4,
    linear_dependent,
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


def _partition(bits: List[int], linked: Callable[[int, int], bool]) -> List[int]:
    """The connected components of the graph on the ascending variable bits
    ``bits`` whose edges are the pairs with linked(bi, bj), each as a bit
    mask, ordered by lowest variable.

    Union-find over the pairs in order: a pair already in one component is
    not tested, and a linked pair merges its two components.  Skipped
    pairs lie inside one component, so the components are those of testing
    every pair.
    """
    block = {b: b for b in bits}  # variable bit -> mask of its current block
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            bi, bj = bits[i], bits[j]
            if block[bi] & bj or not linked(bi, bj):
                continue
            merged = block[bi] | block[bj]
            for b in _bits(merged):
                block[b] = merged
    return [block[b] for b in bits if block[b] & -block[b] == b]


def _separable(
    coeffs: Dict[int, object], bi: int, bj: int, field: FieldDescriptor
) -> bool:
    """Whether x_i and x_j can end up in different variable-disjoint factors:
    the commutator A*D - B*C of p = A + B x_i + C x_j + D x_i x_j is zero."""
    return not _commutator_raw(coeffs, bi, bj, field)[0]


def _factor_blocks(
    coeffs: Dict[int, object], field: FieldDescriptor
) -> List[Dict[int, object]]:
    """Maximal variable-disjoint factorization of a nonconstant map, ordered
    by lowest variable; the returned factors multiply back to the input
    exactly, and a product that does not raises ``RopsumError``.

    The blocks are the connected components of "not separable".  For a
    monomial m0 of f with coefficient c0, the monomials of f that agree
    with m0 outside a block B_a, keyed by their part inside B_a, are that
    block's factor F_a times one nonzero constant; the k slices multiply to
    c0^(k-1) * f, so all but the last are divided by c0.
    """
    blocks = _partition(
        _bits(_support(coeffs)), lambda bi, bj: not _separable(coeffs, bi, bj, field)
    )
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
    edges = _edges(coeffs)
    comps = _partition(_bits(vmask), lambda bi, bj: (bi, bj) in edges)
    if len(comps) > 1:
        # each monomial lies in one component; the constant joins the first
        parts = [{m: c for m, c in coeffs.items() if m & comp} for comp in comps]
        if 0 in coeffs:
            parts[0][0] = coeffs[0]
        return _gate_chain(parts, ADD, field.zero(), field)
    return _multiplicative_split(coeffs, edges, field)


def _gate_chain(
    parts: List[Dict[int, object]], op: str, beta: FieldElem, field: FieldDescriptor
) -> Optional[Rof]:
    """op(w_1, op(w_2, ... op(w_k-1, w_k))) + beta over the witnesses w_i
    of two or more parts, with unit scales; None if a part is not
    read-once."""
    witnesses = []
    for part in parts:
        w = _is_rop_raw(part, field)
        if w is None:
            return None
        witnesses.append(w)
    one, zero = field.one(), field.zero()
    tree = witnesses[-1]
    for w in reversed(witnesses[1:-1]):
        tree = Gate(op, one, zero, w, tree)
    return Gate(op, one, beta, witnesses[0], tree)


def _multiplicative_split(coeffs, edges, field) -> Optional[Rof]:
    """A top multiplication gate for a polynomial with a connected
    interaction graph, or None if it has none.

    Each edge {i, j} of the graph that passes the identity
    (f - beta) * d_i d_j f = d_i f * d_j f yields a shift beta.  Writing
    f = A + B x_i + C x_j + D x_i x_j, both sides expand so that the
    identity reads A*D - B*C = beta * D: the commutator of the pair is a
    constant multiple of D.  What follows depends on beta alone: f - beta
    is factored into variable-disjoint blocks and each block is recognized.
    So each distinct beta is factored once at this node; an edge repeating
    a beta already tried is skipped, since it would fail the same way.
    """
    tried = set()
    for bi, bj in sorted(edges):
        comm, d = _commutator_raw(coeffs, bi, bj, field)
        k0 = next(iter(d))  # d is nonzero on an edge
        betahat = field.div(comm.get(k0, 0), d[k0])
        scaled = {k: field.mul(betahat, c) for k, c in d.items()} if betahat else {}
        if comm != scaled:
            continue
        if betahat in tried:
            continue
        tried.add(betahat)
        shifted = dict(coeffs)
        c0 = field.sub(shifted.pop(0, 0), betahat)
        if c0:
            shifted[0] = c0
        # two factors at least: the zero commutator makes f - beta = P*Q, x_i in P, x_j in Q
        factors = _factor_blocks(shifted, field)
        tree = _gate_chain(factors, MUL, field.elem(betahat), field)
        if tree is not None:
            return tree
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
# interaction graph and factorization, public form
# ---------------------------------------------------------------------------


def interaction_graph(p: MultilinearPoly) -> Dict[int, Set[int]]:
    """Graph on Var(p) with an edge {i, j} iff d_i d_j p != 0."""
    graph: Dict[int, Set[int]] = {v: set() for v in p.variables()}
    for bi, bj in _edges(p.coeffs):
        i, j = bi.bit_length(), bj.bit_length()
        graph[i].add(j)
        graph[j].add(i)
    return graph


def disjoint_factorization(p: MultilinearPoly) -> List[MultilinearPoly]:
    """The maximal variable-disjoint factorization of a nonconstant p.

    The factors are pairwise variable-disjoint and multiply back to p
    exactly; an unfactorable p comes back as the single factor [p].
    """
    if p.is_constant():
        raise PreconditionViolated("factorization needs a nonconstant polynomial")
    blocks = _factor_blocks(p.coeffs, p.field)
    return [MultilinearPoly._trusted(p.n, p.field, b) for b in blocks]


# ---------------------------------------------------------------------------
# structural conditions for sums of two read-once formulas (4 variables)
# ---------------------------------------------------------------------------


def check_c1prime(
    g: MultilinearPoly,
) -> Optional[Tuple[int, int, FieldElem, FieldElem]]:
    """A witness (i, j, a, b) making g|_{x_i=a, x_j=b} linear, if one exists.

    After the restriction only the monomial on the complementary pair
    {k, l} can have degree 2; its coefficient is the bilinear form
    c(a, b) = g_kl + a g_ikl + b g_jkl + ab g_ijkl, solved exactly as a
    linear equation in b for a = 0, then a = 1.
    """
    if g.n != 4:
        raise PreconditionViolated("restriction-linearity check needs exactly 4 variables")
    field = g.field
    zero = field.zero()
    full = 0b1111
    for i in range(1, 5):
        for j in range(i + 1, 5):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            rest = full ^ bi ^ bj
            g_kl = g.coeff(rest)
            g_ikl = g.coeff(rest | bi)
            g_jkl = g.coeff(rest | bj)
            g_ijkl = g.coeff(full)
            if g_ijkl.is_zero() and g_jkl.is_zero():
                # c(a, b) = g_ikl * a + g_kl for every b.
                if not g_ikl.is_zero():
                    return i, j, -g_kl / g_ikl, zero
                if g_kl.is_zero():
                    return i, j, zero, zero
                continue
            # the slope is g_jkl at a = 0, and g_ijkl, nonzero when g_jkl is 0, at a = 1
            for a in (zero, field.one()):
                slope = g_ijkl * a + g_jkl
                offset = g_ikl * a + g_kl
                if not slope.is_zero():
                    return i, j, a, -offset / slope
                if offset.is_zero():
                    return i, j, a, zero
    return None


def check_c2prime(
    g: MultilinearPoly,
) -> Optional[Tuple[int, int, List[FieldElem]]]:
    """The first pair (i, j) for which x_i, x_j, d_i g, d_j g, 1 are linearly
    dependent, together with the dependence coefficients."""
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            polys = [
                MultilinearPoly.variable(g.n, g.field, i),
                MultilinearPoly.variable(g.n, g.field, j),
                g.partial(i),
                g.partial(j),
                MultilinearPoly.constant(g.n, g.field, 1),
            ]
            dep = linear_dependent(polys)
            if dep is not None:
                return i, j, dep
    return None


# ---------------------------------------------------------------------------
# the weighted quadratic family: closed-form sum-of-2 decision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sum2Decision:
    """Certificate for the can-it-be-a-sum-of-two-read-once-formulas question.

    ``expressible`` carries a verified witness and the condition that
    failed; ``not_expressible`` carries the three discriminants, which are
    one value with no square root in the field; ``inconclusive`` carries a
    reason.
    """

    outcome: str  # "expressible" | "not_expressible" | "inconclusive"
    branch: Optional[str] = None  # "C1-false" | "C2-false" | "C3-false"
    witness: Optional[RopSum] = None
    d: Optional[Tuple[FieldElem, FieldElem, FieldElem]] = None
    note: Optional[str] = None
    tau: Optional[FieldElem] = None
    delta: Optional[FieldElem] = None
    mu: Optional[FieldElem] = None

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


def family_delta_roots(
    alpha: FieldElem, beta: FieldElem, gamma: FieldElem
) -> List[FieldElem]:
    """Exact roots of -bc*t^2 + (a^2-b^2-c^2)*t - bc = 0 in the field.

    This is the equation a linear factor x_3 - t*x_4 of the (1,2)
    commutator of the family polynomial must satisfy; its discriminant is
    the decision discriminant d_1.
    """
    field = alpha.field
    if field.characteristic == 2:
        raise PreconditionViolated("root formula divides by 2")
    if beta.is_zero() or gamma.is_zero():
        raise PreconditionViolated("coefficient product beta*gamma must be nonzero")
    mid = alpha * alpha - beta * beta - gamma * gamma
    tau = sqrt_in_field(_family_discriminant(alpha, beta, gamma))
    if tau is None:
        return []
    denom = 2 * beta * gamma
    first = (mid + tau) / denom
    if tau.is_zero():
        return [first]
    return [first, (mid - tau) / denom]


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
    if field.characteristic == 2:
        raise PreconditionViolated("the construction divides by 2*beta*gamma")
    a = field.elem(alpha)
    b = field.elem(beta)
    c = field.elem(gamma)
    target = family4(a, b, c, field)
    one, zero = field.one(), field.zero()

    def finish(summands, branch, **params):
        witness = _verified(summands, target)
        return Sum2Decision("expressible", branch, witness, **params)

    def matching(w, u, v):
        """w * (x_u1 x_u2 + x_v1 x_v2) for the variable pairs u and v."""
        return Gate(ADD, w, zero, _mono_chain(u, one, zero), _mono_chain(v, one, zero))

    def binomials(w, u, s, v, t):
        """w * (x_u1 + s x_u2) * (x_v1 + t x_v2) for the variable pairs u and v."""
        return Gate(
            MUL,
            w,
            zero,
            _bivariate_rof(*u, zero, one, s, zero),
            _bivariate_rof(*v, zero, one, t, zero),
        )

    # C1: all three weights nonzero?
    if a.is_zero() or b.is_zero() or c.is_zero():
        groups = [(a, (1, 2), (3, 4)), (b, (1, 3), (2, 4)), (c, (1, 4), (2, 3))]
        summands = [matching(w, u, v) for w, u, v in groups if not w.is_zero()]
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
            [binomials(pa, u, sign, v, sign), matching(pc, u, v)],
            "C2-false",
        )

    # C3: no square root of the discriminant?
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
    """Certified-where-possible decision for a 4-variable polynomial.

    Polynomials matching the weighted quadratic family pattern get the
    complete closed-form decision.  Outside the family the structural
    necessary conditions are reported: if the restriction-linearity or
    derivative-dependence condition holds the answer is inconclusive
    (possibly expressible); if both fail, deciding the remaining
    product-of-linear-forms shape is outside the certified scope.  This
    function never claims non-expressibility outside the family.
    """
    if g.n != 4:
        raise PreconditionViolated("the decision operates on 4-variable polynomials")
    a, b, c = g.coeff(0b0011), g.coeff(0b0101), g.coeff(0b1001)
    if g == family4(a, b, c, g.field):
        return family4_decide(a, b, c, g.field)

    c1 = check_c1prime(g)
    if c1 is not None:
        return Sum2Decision(
            outcome="inconclusive",
            note="C1' holds at (i=%d, j=%d): possibly expressible" % (c1[0], c1[1]),
        )
    c2 = check_c2prime(g)
    if c2 is not None:
        return Sum2Decision(
            outcome="inconclusive",
            note="C2' holds at (i=%d, j=%d): possibly expressible" % (c2[0], c2[1]),
        )
    return Sum2Decision(
        outcome="inconclusive",
        note="general C3' decision out of certified scope",
    )
