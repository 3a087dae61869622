"""Exhaustive finite-field ground truth for read-once expressibility.

``enumerate_rops`` computes, for a small prime field and a small variable
count, the set of *all* functions computable by read-once formulas: a
dynamic program over nonempty variable subsets merges the function sets
of the two sides of every possible top gate, deduplicating at the level
of functions rather than trees.  Every function, in the class and while it
is built, is a packed coefficient encoding: one digit per monomial mask S,
the coefficient of S.  The class stores the digits base p, so a value is
below p^(2^n); the enumerator works in a wide form with each digit in its
own w-bit field (w = 1 over F_2, 8 otherwise), wide enough that the
integer product of two variable-disjoint functions never carries.

``min_k`` answers the minimal-summand question by sumset search on the
class: the two-summand test is an exact join on the top variable's half,
against an index the class builds once, and more summands peel one member
at a time down to that test.  ``closure_report`` checks closure under
derivatives and restrictions member by member.

Feasible parameters: p=2 up to n=5, p=3 up to n=4, p=5 up to n=3.
Enumeration is single-threaded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import PreconditionViolated
from .mpoly import MultilinearPoly
from .scalars import prime_field

_FEASIBLE = {2: 5, 3: 4, 5: 3}

KMAX_LIMIT = 4


def _check_feasible(p: int, n: int):
    """Refuse (p, n) outside the feasible range: no class exists there to
    query, and p^(2^n), with 2^n digits, is too large to build."""
    limit = _FEASIBLE.get(p)
    if limit is None or n > limit or n < 1:
        raise PreconditionViolated(
            "supported: "
            + ", ".join("p=%d with n<=%d" % pn for pn in _FEASIBLE.items())
        )


def _check_kmax(kmax: int):
    if not (1 <= kmax <= KMAX_LIMIT):
        raise PreconditionViolated("kmax must be between 1 and %d" % KMAX_LIMIT)


@dataclass(frozen=True)
class PackedPoly:
    """A multilinear polynomial over F_p on n variables, packed into an int:
    digit ``mask`` (base p) is the coefficient of the monomial ``mask``."""

    p: int
    n: int
    value: int

    def __post_init__(self):
        _check_feasible(self.p, self.n)
        if self.value < 0 or self.value >= self.p ** (1 << self.n):
            raise PreconditionViolated("packed value outside its digit range")


def pack(poly: MultilinearPoly) -> PackedPoly:
    """Pack a prime-field polynomial into its integer encoding."""
    if poly.field.kind != "prime":
        raise PreconditionViolated("packing needs a prime-field polynomial")
    p = poly.field.p
    _check_feasible(p, poly.n)
    value = 0
    for mask, c in poly.coeffs.items():
        value += c * p**mask
    return PackedPoly(p, poly.n, value)


def unpack(packed: PackedPoly) -> MultilinearPoly:
    field = prime_field(packed.p)
    coeffs = {}
    v = packed.value
    mask = 0
    while v:
        v, digit = divmod(v, packed.p)
        if digit:
            coeffs[mask] = digit
        mask += 1
    return MultilinearPoly._trusted(packed.n, field, coeffs)


@dataclass
class RopClass:
    """The deduplicated set of read-once computable functions over F_p.

    ``members`` is sorted on construction, and three indexes are built: the
    member set, the members grouped by their top-variable half, and those
    groups' keys grouped by their own top half.  A packed value is ``lo +
    P*hi`` with ``lo < P = p^(2^(n-1))``: ``lo`` is f at x_n = 0 and ``hi``
    the partial derivative by x_n, so each group is one run of ``members``.
    A key splits at Q = p^(2^(n-2)) (1 at n = 1) the same way, its top half
    being the ∂_{n-1}∂_n part.  No index assumes the class is closed."""

    p: int
    n: int
    members: Tuple[int, ...]  # packed coefficient encodings, sorted

    def __post_init__(self):
        self.members = tuple(sorted(self.members))
        self._member_set = frozenset(self.members)
        self._half = half = self.p ** (1 << (self.n - 1))
        self._quarter = quarter = self.p ** ((1 << self.n) >> 2)
        self._by_hi = {
            hi: tuple(run) for hi, run in groupby(self.members, lambda v: v // half)
        }
        self._by_top = {
            top: tuple(run) for top, run in groupby(self._by_hi, lambda h: h // quarter)
        }

    def __contains__(self, packed_value: int) -> bool:
        return packed_value in self._member_set

    def __len__(self):
        return len(self.members)


def _submasks_with_lowest(u: int) -> Iterable[int]:
    """Proper nonempty submasks of u that contain u's lowest set bit;
    each unordered bipartition {A, u^A} is produced exactly once."""
    low = u & -u
    rest = u ^ low
    sub = rest
    while True:
        sub = (sub - 1) & rest
        yield low | sub
        if sub == 0:
            return


def _enumerate(p: int, n: int) -> Iterator[int]:
    """The packed encodings of every read-once function over F_p.

    A dynamic program over variable subsets u: ``tables[u]`` holds, without
    their constant coefficient, the functions of formulas on u's variables;
    adding each constant gives the rest.  Every table is closed under
    scaling, so the affine post-map of a gate needs no work.  For l in
    ``tables[a]`` and r in ``tables[b]``, a and b disjoint, a sum gate gives
    l + r.  A product gate (l + c)*(r + d) less its constant is
    l*r + d*l + c*r: for d = 0 that is l*r + g*r, and for d != 0 it is
    l'*r' + l' + g*r' with l' = d*l, r' = r/d and g = c*d, both again
    table members.  So l*r + g*r and l*r + l + g*r, g in F_p, cover it.

    Functions are held in a wide packed form: the coefficient of monomial S
    sits in a w-bit field at bit w*S, with w = 1 for p = 2 and 8 otherwise.
    So the integer product of two variable-disjoint functions is their
    polynomial product (monomial S|T comes from the one pair (S, T), and a
    digit is at most (p-1)^2 < 2^w), and in the sums above no two digits
    meet.  Over odd p one ``bytes.translate`` reduces a product's digits
    mod p; over F_2 the wide form is the packed encoding."""
    w = 1 if p == 2 else 8
    size = 1 << n
    mod_p = bytes(x % p for x in range(256))

    def reduced(t: int) -> int:
        if p == 2:
            return t
        return int.from_bytes(t.to_bytes(size, "little").translate(mod_p), "little")

    tables: Dict[int, Set[int]] = {}
    for u in sorted(range(1, 1 << n), key=int.bit_count):
        if u & (u - 1) == 0:
            tables[u] = {alpha << (w * u) for alpha in range(p)}
            continue
        out: Set[int] = set()
        for a in _submasks_with_lowest(u):
            right = [(r, [reduced(g * r) for g in range(p)]) for r in tables[u ^ a]]
            for left in tables[a]:
                for r, multiples in right:
                    lr = reduced(left * r)
                    out.add(left + r)
                    for gr in multiples:
                        out.add(lr + gr)
                        out.add(lr + left + gr)
        tables[u] = out

    # each smaller table is in the full one, by a sum with 0
    top = tables[size - 1]
    if p != 2:
        digits = bytes.maketrans(bytes(range(p)), b"0123456789"[:p])
        top = [int(t.to_bytes(size, "big").translate(digits), p) for t in top]
    return (t + beta for t in top for beta in range(p))


def enumerate_rops(p: int, n: int) -> RopClass:
    """All read-once computable functions over F_p on variables x_1..x_n."""
    _check_feasible(p, n)
    return RopClass(p, n, _enumerate(p, n))


# ---------------------------------------------------------------------------
# sumset queries
# ---------------------------------------------------------------------------


def _check_target(target: PackedPoly, cls: RopClass):
    if target.p != cls.p or target.n != cls.n:
        raise PreconditionViolated(
            "target is (p=%d, n=%d), class is (p=%d, n=%d)"
            % (target.p, target.n, cls.p, cls.n)
        )


def _packed_sub(t: int, s: int, p: int) -> int:
    """Digitwise t - s mod p: no borrow passes between digits."""
    if p == 2:
        return t ^ s
    out = 0
    scale = 1
    while t or s:
        t, dt = divmod(t, p)
        s, ds = divmod(s, p)
        out += ((dt - ds) % p) * scale
        scale *= p
    return out


def _in_2s(t: int, cls: RopClass) -> bool:
    """Whether t is a sum of two members, by a join on the top variable.

    Digitwise, t = s + u exactly when t_hi = s_hi + u_hi and t_lo = s_lo +
    u_lo, so a witness pair lies in hi-groups (a, t_hi - a) that both exist,
    and the smaller group of such a pair is scanned for an s with t - s a
    member.  The keys split the same way on x_{n-1}: a and t_hi - a lie in
    key groups (c, t_top - c) that both exist, and only inside those pairs
    are hi-groups looked up, from the smaller key group.  The pairs (α,
    t_hi - α) for each constant α (a key below p) go first: hi-group α, the
    members g + α*x_n with g free of x_n, is as large as any and often
    holds a witness.  Every other pair is visited once."""
    p = cls.p
    t_hi = t // cls._half
    t_top = t_hi // cls._quarter
    by_top, by_hi, mset = cls._by_top, cls._by_hi, cls._member_set

    def joins(a: int, b: int) -> bool:
        group, other = by_hi.get(a), by_hi.get(b)
        if group is not None and other is not None:
            for s in min(group, other, key=len):
                if _packed_sub(t, s, p) in mset:
                    return True
        return False

    for alpha in range(p):
        if joins(alpha, _packed_sub(t_hi, alpha, p)):
            return True
    for c, keys in by_top.items():
        d = _packed_sub(t_top, c, p)
        if d < c or d not in by_top:
            continue
        for a in min(keys, by_top[d], key=len):
            b = _packed_sub(t_hi, a, p)
            if b in by_hi and a >= p and b >= p and (c < d or a <= b) and joins(a, b):
                return True
    return False


def min_k(target: PackedPoly, cls: RopClass, kmax: int = 3) -> Optional[int]:
    """The smallest k <= kmax with the target in the k-fold sumset of the
    class, or None.  kmax is capped at 4.

    k=1 is a lookup.  k=2 is a join on the top two variables (see
    ``_in_2s``): for a negative answer it examines a median of 320 of the
    2,680 hi-group keys and about 250 of the 68,968 members of F_2 n=5,
    and 585 of 2,025 keys and about 3,300 of 89,721 members of F_3 n=4.
    k>=3 tries first summands in ascending encoding order and asks the
    (k-1) question of the rest, so a positive answer stops at its first
    witness, while a negative answer at k=3 costs one k=2 join per member.
    """
    _check_target(target, cls)
    _check_kmax(kmax)
    p = cls.p

    def reachable(t: int, k: int) -> bool:
        if k == 1:
            return t in cls
        if k == 2:
            return _in_2s(t, cls)
        return any(reachable(_packed_sub(t, s, p), k - 1) for s in cls.members)

    for k in range(1, kmax + 1):
        if reachable(target.value, k):
            return k
    return None


# ---------------------------------------------------------------------------
# closure checks
# ---------------------------------------------------------------------------


@dataclass
class ClosureReport:
    p: int
    n: int
    members_checked: int
    derivative_violations: List[Tuple[int, int]]
    restriction_violations: List[Tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.derivative_violations and not self.restriction_violations


def closure_report(cls: RopClass) -> ClosureReport:
    """Verify the class is closed under every partial derivative and every
    restriction x_i := v; lists any violations (none are expected)."""
    p, n = cls.p, cls.n
    deriv_bad: List[Tuple[int, int]] = []
    restr_bad: List[Tuple[int, int, int]] = []
    for value in cls.members:
        poly = unpack(PackedPoly(p, n, value))
        for i in range(1, n + 1):
            if pack(poly.partial(i)).value not in cls:
                deriv_bad.append((value, i))
            for v in range(p):
                if pack(poly.restrict(i, v)).value not in cls:
                    restr_bad.append((value, i, v))
    return ClosureReport(p, n, len(cls.members), deriv_bad, restr_bad)
