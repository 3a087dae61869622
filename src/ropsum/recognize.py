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
either emits a verified two-formula witness or returns the three
discriminants d_1, d_2, d_3 none of which has a square root.

The recognizer works directly on a polynomial's raw coefficient map
(mask -> Fraction, or int in [0, p)) with its field descriptor's
arithmetic, and takes the commutator from :mod:`ropsum.mpoly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Set, Tuple

from .errors import (
    CharacteristicTwo,
    PreconditionViolated,
    RopsumError,
    WrongArity,
)
from .mpoly import (
    MultilinearPoly,
    _commutator_raw,
    _disjoint_product,
    _infer_field,
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
    relabel_variables,
    verify_against,
)
from .scalars import FieldDescriptor, FieldElem, sqrt_in_field

# ---------------------------------------------------------------------------
# coefficient-map helpers
# ---------------------------------------------------------------------------


def _bits(mask: int) -> List[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(1 << i)
        mask >>= 1
        i += 1
    return out


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


def _edges(coeffs: Dict[int, object]) -> Set[Tuple[int, int]]:
    """The pairs (bi, bj), bi < bj, of variables sharing a monomial: since
    stored coefficients are nonzero, exactly the edges d_i d_j p != 0 of
    the interaction graph."""
    edges: Set[Tuple[int, int]] = set()
    for m in coeffs:
        edges.update(combinations(_bits(m), 2))
    return edges


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
    exactly (asserted).

    The blocks are the connected components of "not separable".  For a
    monomial m0 of f with coefficient c0, the monomials of f that agree
    with m0 outside a block B_a, keyed by their part inside B_a, are that
    block's factor F_a times one nonzero constant; the k slices multiply to
    c0^(k-1) * f, so all but the last are divided by c0.
    """
    vmask = 0
    for m in coeffs:
        vmask |= m
    blocks = _partition(
        _bits(vmask), lambda bi, bj: not _separable(coeffs, bi, bj, field)
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


def _is_rop_raw(
    coeffs: Dict[int, object],
    field: FieldDescriptor,
    cache: Dict[frozenset, Optional[Rof]],
) -> Optional[Rof]:
    key = frozenset(coeffs.items())
    hit = cache.get(key, _MISS)
    if hit is not _MISS:
        return hit

    vmask = 0
    for m in coeffs:
        vmask |= m

    result: Optional[Rof]
    if vmask == 0:
        # A bare constant: realized on a zero-scaled leaf of x1.
        result = Leaf(1, field.zero(), field.elem(coeffs.get(0, 0)))
    elif vmask.bit_count() == 1:
        var = vmask.bit_length()
        alpha = field.elem(coeffs.get(vmask, 0))
        beta = field.elem(coeffs.get(0, 0))
        result = Leaf(var, alpha, beta)
    else:
        edges = _edges(coeffs)
        comps = _partition(_bits(vmask), lambda bi, bj: (bi, bj) in edges)
        if len(comps) > 1:
            result = _additive_split(coeffs, comps, field, cache)
        else:
            result = _multiplicative_split(coeffs, edges, field, cache)

    cache[key] = result
    return result


_MISS = object()


def _additive_split(coeffs, comps, field, cache) -> Optional[Rof]:
    parts: List[Dict[int, object]] = [dict() for _ in comps]
    index = {}
    for idx, comp in enumerate(comps):
        for b in _bits(comp):
            index[b] = idx
    for m, c in coeffs.items():
        if m == 0:
            continue
        parts[index[m & -m]][m] = c
    const = coeffs.get(0)
    if const is not None:
        parts[0][0] = const

    summands = []
    for part in parts:
        w = _is_rop_raw(part, field, cache)
        if w is None:
            return None
        summands.append(w)
    tree = summands[-1]
    one, zero = field.one(), field.zero()
    for w in reversed(summands[:-1]):
        tree = Gate(ADD, one, zero, w, tree)
    return tree


def _multiplicative_split(coeffs, edges, field, cache) -> Optional[Rof]:
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
        factors = _factor_blocks(shifted, field)
        if len(factors) < 2:
            continue
        witnesses = []
        for f in factors:
            w = _is_rop_raw(f, field, cache)
            if w is None:
                break
            witnesses.append(w)
        if len(witnesses) != len(factors):
            continue
        one, zero = field.one(), field.zero()
        tree = witnesses[-1]
        for w in reversed(witnesses[1:-1]):
            tree = Gate(MUL, one, zero, w, tree)
        return Gate(MUL, one, field.elem(betahat), witnesses[0], tree)
    return None


def is_rop(p: MultilinearPoly) -> Optional[Rof]:
    """A read-once formula computing p exactly, or None if p is not a
    read-once polynomial over its field.

    The returned witness always re-evaluates to p (checked before return).
    Requires n >= 1 so that constant polynomials have a leaf to sit on.
    """
    if p.n < 1:
        raise PreconditionViolated("recognition needs a variable range of n >= 1")
    witness = _is_rop_raw(p.coeffs, p.field, {})
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
        raise WrongArity("restriction-linearity check needs exactly 4 variables")
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
    failed; ``not_expressible`` carries the three discriminants, none of
    which has a square root in the field; ``inconclusive`` carries a reason.
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


def _mono_pair_rof(scale: FieldElem, pair1, pair2) -> Rof:
    """scale * (x_a x_b + x_c x_d) as a single read-once tree."""
    field = scale.field
    one, zero = field.one(), field.zero()

    def mono(pair):
        u, v = pair
        return Gate(MUL, one, zero, Leaf(u, one, zero), Leaf(v, one, zero))

    return Gate(ADD, scale, zero, mono(pair1), mono(pair2))


_IDENTITY = {1: 1, 2: 2, 3: 3, 4: 4}
_SWAP23 = {1: 1, 2: 3, 3: 2, 4: 4}
_SWAP24 = {1: 1, 2: 4, 3: 3, 4: 2}
_SWAP34 = {1: 1, 2: 2, 3: 4, 4: 3}


def family_delta_roots(
    alpha: FieldElem, beta: FieldElem, gamma: FieldElem
) -> List[FieldElem]:
    """Exact roots of -bc*t^2 + (a^2-b^2-c^2)*t - bc = 0 in the field.

    This is the equation a linear factor x_3 - t*x_4 of the (1,2)
    commutator of the family polynomial must satisfy; its discriminant is
    the first of the three decision discriminants.
    """
    field = alpha.field
    if field.characteristic == 2:
        raise CharacteristicTwo("root formula divides by 2")
    if beta.is_zero() or gamma.is_zero():
        raise PreconditionViolated("coefficient product beta*gamma must be nonzero")
    a2 = alpha * alpha
    mid = a2 - beta * beta - gamma * gamma
    d1 = mid * mid - (2 * beta * gamma) * (2 * beta * gamma)
    tau = sqrt_in_field(d1)
    if tau is None:
        return []
    denom = 2 * beta * gamma
    first = (mid + tau) / denom
    if tau.is_zero():
        return [first]
    return [first, (mid - tau) / denom]


def _family_discriminants(a: FieldElem, b: FieldElem, c: FieldElem):
    a2, b2, c2 = a * a, b * b, c * c
    two = a.field.elem(2)
    d1 = (a2 - b2 - c2) * (a2 - b2 - c2) - (two * b * c) * (two * b * c)
    d2 = (b2 - a2 - c2) * (b2 - a2 - c2) - (two * a * c) * (two * a * c)
    d3 = (c2 - a2 - b2) * (c2 - a2 - b2) - (two * a * b) * (two * a * b)
    return d1, d2, d3


def family4_decide(
    alpha, beta, gamma, field: Optional[FieldDescriptor] = None
) -> Sum2Decision:
    """Complete decision: can the weighted quadratic family polynomial be
    written as a sum of two read-once formulas over the given field?

    Outcomes follow the three conditions in order: a zero weight (C1
    fails) splits the defining expression itself; equal squared weights
    (C2 fails) give the product-of-binomials witness after normalizing the
    equal pair into the first two positions by a variable transposition;
    a square root of some discriminant (C3 fails) drives the two-binomial
    construction with delta and mu.  Otherwise the polynomial is not a sum
    of two read-once formulas, certified by (d1, d2, d3).

    Every witness is verified by exact re-evaluation before it is returned.
    """
    field = _infer_field(field, alpha, beta, gamma)
    if field.characteristic == 2:
        raise CharacteristicTwo("the construction divides by 2*beta*gamma")
    a = field.elem(alpha)
    b = field.elem(beta)
    c = field.elem(gamma)
    target = family4(a, b, c, field)
    one, zero = field.one(), field.zero()

    def finish(summands, branch, perm=_IDENTITY, tau=None, delta=None, mu=None):
        if perm is not _IDENTITY:
            summands = [relabel_variables(r, perm) for r in summands]
        witness = RopSum(field, 4, tuple(summands))
        if not verify_against(witness, target):
            raise RopsumError("internal: family witness failed re-evaluation")
        return Sum2Decision(
            outcome="expressible",
            branch=branch,
            witness=witness,
            tau=tau,
            delta=delta,
            mu=mu,
        )

    # C1: all three weights nonzero?
    if a.is_zero() or b.is_zero() or c.is_zero():
        groups = [
            (a, (1, 2), (3, 4)),
            (b, (1, 3), (2, 4)),
            (c, (1, 4), (2, 3)),
        ]
        summands = [
            _mono_pair_rof(w, p1, p2) for w, p1, p2 in groups if not w.is_zero()
        ]
        return finish(summands, "C1-false")

    # C2: pairwise distinct squared weights?  On failure, a transposition
    # moves the equal-square pair into the first two weight positions.
    if a * a == b * b:
        perm, pa, pb, pc = _IDENTITY, a, b, c
    elif b * b == c * c:
        perm, pa, pb, pc = _SWAP24, c, b, a
    elif c * c == a * a:
        perm, pa, pb, pc = _SWAP34, a, c, b
    else:
        perm = None
    if perm is not None:
        sign = one if pa == pb else -one
        rof1 = Gate(
            MUL,
            pa,
            zero,
            Gate(ADD, one, zero, Leaf(1, one, zero), Leaf(4, sign, zero)),
            Gate(ADD, one, zero, Leaf(2, one, zero), Leaf(3, sign, zero)),
        )
        rof2 = _mono_pair_rof(pc, (1, 4), (2, 3))
        return finish([rof1, rof2], "C2-false", perm)

    # C3: no discriminant has a square root?
    d1, d2, d3 = _family_discriminants(a, b, c)
    for d, perm, params in (
        (d1, _IDENTITY, (a, b, c)),
        (d2, _SWAP23, (b, a, c)),
        (d3, _SWAP24, (c, b, a)),
    ):
        tau = sqrt_in_field(d)
        if tau is None:
            continue
        pa, pb, pc = params
        delta = (pa * pa - pb * pb - pc * pc + tau) / (2 * pb * pc)
        mu = -(pc + pb * delta) / pa
        if delta.is_zero() or mu.is_zero():
            raise RopsumError("internal: degenerate root in the C3 construction")
        rof1 = Gate(
            MUL,
            pa,
            zero,
            Gate(ADD, one, zero, Leaf(1, one, zero), Leaf(3, -mu, zero)),
            Gate(ADD, one, zero, Leaf(2, one, zero), Leaf(4, -mu.inverse(), zero)),
        )
        rof2 = Gate(
            MUL,
            pb,
            zero,
            Gate(ADD, one, zero, Leaf(1, one, zero), Leaf(2, -delta, zero)),
            Gate(ADD, one, zero, Leaf(3, one, zero), Leaf(4, -delta.inverse(), zero)),
        )
        return finish([rof1, rof2], "C3-false", perm, tau=tau, delta=delta, mu=mu)

    return Sum2Decision(
        outcome="not_expressible",
        d=(d1, d2, d3),
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
        raise WrongArity("the decision operates on 4-variable polynomials")
    quad_pairs = ((0b0011, 0b1100), (0b0101, 0b1010), (0b1001, 0b0110))
    weights = []
    is_family = True
    for m1, m2 in quad_pairs:
        c1, c2 = g.coeff(m1), g.coeff(m2)
        if c1 != c2:
            is_family = False
            break
        weights.append(c1)
    if is_family:
        allowed = {m for pair in quad_pairs for m in pair}
        if any(m not in allowed for m in g.coeffs):
            is_family = False
    if is_family:
        return family4_decide(weights[0], weights[1], weights[2], g.field)

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
