"""Decision procedures for read-once structure.

The centerpiece is ``is_rop``: an exact, witness-producing recognizer for
read-once polynomials over any supported field.  It recurses on the
interaction graph (mixed-partial nonvanishing): a disconnected graph
splits the polynomial additively; a connected one forces a top
multiplication gate, whose constant shift is recovered from the exact
identity (f - beta) * d_i d_j f = d_i f * d_j f and whose factors come
from the maximal variable-disjoint factorization.  Each distinct beta is
factored once per node, and the factorization's blocks come from
union-find over the variable pairs that are not separable, so a pair
already joined is never tested.  Both cuts are exact; a negative answer
still costs the identity products on every edge of every node reached.

On top of that sit the certified decisions for sums of two read-once
formulas on four variables: the restriction-linearity check (C1'), the
derivative linear-dependence check (C2'), and the complete closed-form
decision ``family4_decide`` for the weighted quadratic family, which
either emits a verified two-formula witness or returns the three
discriminants d_1, d_2, d_3 none of which has a square root.

The recognizer works directly on a polynomial's raw coefficient map
(mask -> Fraction, or int in [0, p)) with its field descriptor's
arithmetic, and tests the identity and the separability of variable pairs
with the packed-exponent product of :mod:`ropsum.mpoly`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .errors import (
    CharacteristicTwo,
    PreconditionViolated,
    RopsumError,
    WrongArity,
)
from .mpoly import (
    MultilinearPoly,
    _disjoint_product,
    _infer_field,
    _mul_packed,
    _spread,
    _spread_keys,
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


def _partial_raw(coeffs: Dict[int, object], bit: int) -> Dict[int, object]:
    return {m ^ bit: c for m, c in coeffs.items() if m & bit}


def _restrict_assign(
    coeffs: Dict[int, object], wmask: int, ones: int, field: FieldDescriptor
) -> Dict[int, object]:
    """Set every variable in wmask to 0/1 per ``ones``; result drops wmask."""
    out: Dict[int, object] = {}
    zeros = wmask & ~ones
    for m, c in coeffs.items():
        if m & zeros:
            continue
        m2 = m & ~wmask
        s = out.get(m2)
        out[m2] = c if s is None else s + c
    return field.canon(out)


def _nonzero_point(coeffs: Dict[int, object], wmask: int, field: FieldDescriptor) -> int:
    """A 0/1 assignment (as a ones-mask) of the wmask variables keeping the
    polynomial nonzero; greedy per variable, trying 0 before 1."""
    ones = 0
    cur = coeffs
    m = wmask
    while m:
        bit = m & -m
        m ^= bit
        at0 = _restrict_assign(cur, bit, 0, field)
        if at0:
            cur = at0
        else:
            ones |= bit
            cur = _restrict_assign(cur, bit, bit, field)
    if not cur:
        raise RopsumError("internal: no nonvanishing 0/1 point on a nonzero polynomial")
    return ones


def _bits(mask: int) -> List[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(1 << i)
        mask >>= 1
        i += 1
    return out


def _components(adj: Dict[int, Set[int]]) -> List[int]:
    """Connected components of a graph on bit-singleton nodes, each returned
    as a bit mask, ordered by lowest member bit."""
    seen: Set[int] = set()
    comps = []
    for node in sorted(adj):
        if node in seen:
            continue
        stack = [node]
        comp = 0
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp |= v
            stack.extend(adj[v] - seen)
        comps.append(comp)
    return comps


def _interaction_adj(coeffs: Dict[int, object]) -> Dict[int, Set[int]]:
    """Adjacency of the mixed-partial graph: since stored coefficients are
    nonzero, d_i d_j p != 0 exactly when some monomial contains both."""
    vmask = 0
    for m in coeffs:
        vmask |= m
    adj: Dict[int, Set[int]] = {b: set() for b in _bits(vmask)}
    for m in coeffs:
        bs = _bits(m)
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                adj[bs[i]].add(bs[j])
                adj[bs[j]].add(bs[i])
    return adj


def _separable(
    coeffs: Dict[int, object], bi: int, bj: int, field: FieldDescriptor
) -> bool:
    """Whether x_i and x_j can end up in different variable-disjoint factors:
    exact test A*D == B*C on the decomposition p = A + B x_i + C x_j + D x_i x_j."""
    a: Dict[int, object] = {}
    b: Dict[int, object] = {}
    c: Dict[int, object] = {}
    d: Dict[int, object] = {}
    both = bi | bj
    for m, v in coeffs.items():
        k = m & both
        if k == 0:
            a[_spread(m)] = v
        elif k == bi:
            b[_spread(m ^ bi)] = v
        elif k == bj:
            c[_spread(m ^ bj)] = v
        else:
            d[_spread(m ^ both)] = v
    return _mul_packed(a, d, field) == _mul_packed(b, c, field)


def _factor_blocks(
    coeffs: Dict[int, object], field: FieldDescriptor
) -> List[Dict[int, object]]:
    """Maximal variable-disjoint factorization of a nonconstant map; the
    returned factors multiply back to the input exactly (asserted).

    The blocks are the connected components of "not separable", found by
    union-find: a pair already in one block is not tested, and a pair that
    is not separable merges its two blocks.  Skipped pairs lie inside one
    component, so the blocks are those of the all-pairs test, ordered by
    lowest variable.
    """
    vmask = 0
    for m in coeffs:
        vmask |= m
    bits = _bits(vmask)
    block = {b: b for b in bits}  # variable bit -> mask of its current block
    for i in range(len(bits)):
        for j in range(i + 1, len(bits)):
            bi, bj = bits[i], bits[j]
            if block[bi] & bj or _separable(coeffs, bi, bj, field):
                continue
            merged = block[bi] | block[bj]
            for b in _bits(merged):
                block[b] = merged
    blocks = [block[b] for b in bits if block[b] & -block[b] == b]
    if len(blocks) == 1:
        return [dict(coeffs)]

    factors: List[Dict[int, object]] = []
    rest = coeffs
    for block in blocks[:-1]:
        restmask = 0
        for m in rest:
            restmask |= m
        wmask = restmask & ~block
        ones_w = _nonzero_point(rest, wmask, field)
        f_tilde = _restrict_assign(rest, wmask, ones_w, field)
        ones_b = _nonzero_point(f_tilde, block, field)
        val = _restrict_assign(f_tilde, block, ones_b, field)[0]
        factors.append({m: field.div(c, val) for m, c in f_tilde.items()})
        rest = _restrict_assign(rest, block, ones_b, field)
    factors.append(rest)

    product = factors[0]
    for f in factors[1:]:
        product = _disjoint_product(product, f, field)
    if product != coeffs:
        raise RopsumError("internal: block factorization failed verification")
    return factors


# ---------------------------------------------------------------------------
# read-once recognition
# ---------------------------------------------------------------------------


def _min_var_bit(coeffs: Dict[int, object]) -> int:
    vmask = 0
    for m in coeffs:
        vmask |= m
    return vmask & -vmask


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
        adj = _interaction_adj(coeffs)
        comps = _components(adj)
        if len(comps) > 1:
            result = _additive_split(coeffs, comps, field, cache)
        else:
            result = _multiplicative_split(coeffs, adj, field, cache)

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


def _multiplicative_split(coeffs, adj, field, cache) -> Optional[Rof]:
    """A top multiplication gate for a polynomial with a connected
    interaction graph, or None if it has none.

    Each edge {i, j} of the graph that passes the identity yields a shift
    beta.  What follows depends on beta alone: f - beta is factored into
    variable-disjoint blocks and each block is recognized.  So each
    distinct beta is factored once at this node; an edge repeating a beta
    already tried is skipped, since it would fail the same way.
    """
    edges = sorted(
        (bi.bit_length(), bj.bit_length())
        for bi in adj
        for bj in adj[bi]
        if bi < bj
    )
    packed = _spread_keys(coeffs)
    tried = set()
    for i, j in edges:
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        di = _partial_raw(coeffs, bi)
        dj = _partial_raw(coeffs, bj)
        dij = _partial_raw(di, bj)
        # diff = f * dij - di * dj must be betahat * dij for a constant betahat
        diff = _mul_packed(packed, _spread_keys(dij), field)
        for k, c in _mul_packed(_spread_keys(di), _spread_keys(dj), field).items():
            s = diff.get(k)
            diff[k] = -c if s is None else s - c
        diff = field.canon(diff)
        if not diff:
            betahat = 0
        else:
            k0 = min(dij)
            num = diff.get(_spread(k0))
            if num is None:
                continue
            betahat = field.div(num, dij[k0])
            if len(diff) != len(dij) or any(
                diff.get(_spread(k)) != field.mul(betahat, c) for k, c in dij.items()
            ):
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
        factors.sort(key=_min_var_bit)
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
    adj = _interaction_adj(p.coeffs)
    return {
        b.bit_length(): {o.bit_length() for o in nbrs} for b, nbrs in adj.items()
    }


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


def _c1_trials(field: FieldDescriptor):
    if field.kind == "prime":
        for v in range(field.p):
            yield field.elem(v)
        return
    yield field.elem(0)
    k = 1
    while True:
        yield field.elem(k)
        yield field.elem(-k)
        k += 1


def check_c1prime(
    g: MultilinearPoly,
) -> Optional[Tuple[int, int, FieldElem, FieldElem]]:
    """A witness (i, j, a, b) making g|_{x_i=a, x_j=b} linear, if one exists.

    After the restriction only the monomial on the complementary pair
    {k, l} can have degree 2; its coefficient is the bilinear form
    c(a, b) = g_kl + a g_ikl + b g_jkl + ab g_ijkl, solved exactly as a
    linear equation in b for trial values of a.
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
            for a in _c1_trials(field):
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
