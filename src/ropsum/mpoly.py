"""Multilinear polynomials and the operator calculus built on them.

A multilinear polynomial on variables x_1..x_n is stored as a map from
subset bitmask (bit i-1 encodes x_i) to a nonzero raw coefficient of its
field (``Fraction`` over Q, an int in ``[0, p)`` over F_p; see
:mod:`ropsum.scalars`).  The public constructor checks and coerces its
input; results built inside the package come from canonical maps and go
through ``_trusted``.  Restriction, the discrete partial derivative, the
pairwise commutator, and the named constructors (elementary symmetric
polynomials, the top-degree combinations used by the hierarchy bound, and
the weighted 4-variable quadratic family) all live here.

The one product of two multilinear polynomials, ``mul_disjoint``, keeps
the result multilinear and refuses shared variables.  The one object that
leaves the multilinear world is the pairwise commutator A*D - B*C, whose
individual degrees reach 2; it is a :class:`SparsePoly`, with each
monomial packed into one int of ``_WIDTH`` bits per variable, and
``_mul_packed`` is the one product on that encoding.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._record import Frozen, _set
from .errors import FieldMismatch, IndexOutOfRange, PreconditionViolated
from .scalars import QQ, FieldDescriptor, FieldElem

MAX_VARIABLES = 30

Scalar = Union[int, FieldElem]


def _same_field(a: FieldDescriptor, b: FieldDescriptor):
    if a != b:
        raise FieldMismatch("polynomials over %s and %s" % (a, b))


def _check_var_count(n: int):
    if not (0 <= n <= MAX_VARIABLES):
        raise IndexOutOfRange("variable count %d outside 0..%d" % (n, MAX_VARIABLES))


def _check_index(i: int, n: int):
    if not (1 <= i <= n):
        raise IndexOutOfRange("variable x%d outside 1..%d" % (i, n))


def _bits(mask: int) -> List[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(1 << i)
        mask >>= 1
        i += 1
    return out


def _support(coeffs) -> int:
    """The mask of the variables that occur in a map's monomials."""
    return reduce(or_, coeffs, 0)


class _Poly(Frozen):
    """A raw coefficient map on variables x_1..x_n over a field; equal to
    a polynomial of its own class with the same three fields."""

    __slots__ = _fields = ("n", "field", "coeffs")

    @classmethod
    def _trusted(cls, n: int, field: FieldDescriptor, coeffs: dict):
        """An instance on a canonical raw map (reduced values, no zero
        entries), unchecked: for results built inside the package."""
        p = object.__new__(cls)
        _set(p, "n", n)
        _set(p, "field", field)
        _set(p, "coeffs", coeffs)
        return p

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compat(self, other):
        _same_field(self.field, other.field)
        if self.n != other.n:
            raise IndexOutOfRange(
                "polynomials on %d and %d variables" % (self.n, other.n)
            )

    def __repr__(self):
        return "%s(%d, %r, %s)" % (type(self).__name__, self.n, self.field, self)


class MultilinearPoly(_Poly):
    """An exact multilinear polynomial."""

    __slots__ = ()

    def __init__(self, n: int, field: FieldDescriptor, coeffs: Dict[int, Scalar]):
        _check_var_count(n)
        raw = field.raw
        clean = {}
        for mask, c in coeffs.items():
            if not isinstance(mask, int) or mask < 0 or mask >= (1 << n):
                raise IndexOutOfRange("monomial mask %r outside [0, 2^%d)" % (mask, n))
            c = raw(c)
            if c:
                clean[mask] = c
        _set(self, "n", n)
        _set(self, "field", field)
        _set(self, "coeffs", clean)

    # -- basic queries -----------------------------------------------------

    def coeff(self, mask: int) -> FieldElem:
        c = self.coeffs.get(mask)
        return self.field.zero() if c is None else FieldElem(self.field, c)

    def var_mask(self) -> int:
        return _support(self.coeffs)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.coeffs:
            return -1
        return max(m.bit_count() for m in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        self._check_compat(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return MultilinearPoly._trusted(self.n, self.field, self.field.canon(out))

    def __sub__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self + -other

    def __neg__(self) -> "MultilinearPoly":
        neg = self.field.neg
        out = {m: neg(c) for m, c in self.coeffs.items()}
        return MultilinearPoly._trusted(self.n, self.field, out)

    def scale(self, c: Scalar) -> "MultilinearPoly":
        v = self.field.raw(c)
        out = {m: x * v for m, x in self.coeffs.items()} if v else {}
        return MultilinearPoly._trusted(self.n, self.field, self.field.canon(out))

    def mul_disjoint(self, other: "MultilinearPoly") -> "MultilinearPoly":
        """Product of variable-disjoint factors; stays multilinear."""
        self._check_compat(other)
        shared = self.var_mask() & other.var_mask()
        if shared:
            bits = [b.bit_length() for b in _bits(shared)]
            raise PreconditionViolated("factors share variables %s" % bits)
        out = _disjoint_product(self.coeffs, other.coeffs, self.field)
        return MultilinearPoly._trusted(self.n, self.field, out)

    # -- the operator calculus --------------------------------------------

    def restrict(self, i: int, v: Scalar) -> "MultilinearPoly":
        """Substitute the field constant v for x_i."""
        _check_index(i, self.n)
        v = self.field.raw(v)
        bit = 1 << (i - 1)
        out = {}
        for m, c in self.coeffs.items():
            if m & bit:
                if not v:
                    continue
                m, c = m ^ bit, c * v
            s = out.get(m)
            out[m] = c if s is None else s + c
        return MultilinearPoly._trusted(self.n, self.field, self.field.canon(out))

    def partial(self, i: int) -> "MultilinearPoly":
        """Discrete partial derivative: p|_{x_i=1} - p|_{x_i=0}."""
        _check_index(i, self.n)
        bit = 1 << (i - 1)
        out = {m ^ bit: c for m, c in self.coeffs.items() if m & bit}
        return MultilinearPoly._trusted(self.n, self.field, out)

    def with_n(self, n: int) -> "MultilinearPoly":
        """Re-declare the variable count (pad or shrink when unused)."""
        _check_var_count(n)  # before 1 << n is built
        if n == self.n:
            return self
        if n < self.n and self.var_mask() >= (1 << n):
            raise IndexOutOfRange("polynomial uses variables above x%d" % n)
        return MultilinearPoly(n, self.field, self.coeffs)

    # -- comparison / display ----------------------------------------------

    # Frozen's hash of the fields fails on the coefficient dict
    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.coeffs.items())))

    def __str__(self):
        return format_poly(self)


def _disjoint_product(a: dict, b: dict, field: FieldDescriptor) -> dict:
    """Product of two raw maps on disjoint variables, as a canonical map;
    disjointness makes every mask union arise from exactly one pair."""
    return field.canon({ma | mb: ca * cb for ma, ca in a.items() for mb, cb in b.items()})


def _term_str(c, factors: List[str]) -> str:
    if not factors:
        return str(c)
    if c == 1:
        return "*".join(factors)
    if c == -1:
        return "-" + "*".join(factors)
    return "*".join([str(c)] + factors)


def _terms_str(terms) -> str:
    """Display form of (raw coefficient, factor names) pairs, in order."""
    parts: List[str] = []
    for c, factors in terms:
        if parts and c < 0:
            parts.append("- " + _term_str(-c, factors))
        elif parts:
            parts.append("+ " + _term_str(c, factors))
        else:
            parts.append(_term_str(c, factors))
    return " ".join(parts) or "0"


def format_poly(p: "MultilinearPoly") -> str:
    """Canonical text form: terms in mask order, e.g. ``1 + 2*x1 - x1*x2``."""
    return _terms_str(
        (p.coeffs[m], ["x%d" % (i + 1) for i in range(p.n) if m >> i & 1])
        for m in sorted(p.coeffs)
    )


# -- packed exponents ----------------------------------------------------------

# Bits per variable in a packed exponent.  The public constructor caps
# exponents at SparsePoly.MAX_EXPONENT = 4 < 2^_WIDTH, and a commutator
# multiplies two multilinear maps, so its exponents are at most 2: no
# exponent carries into the next variable.
_WIDTH = 4
_FIELD_MASK = (1 << _WIDTH) - 1


@lru_cache(maxsize=4096)
def _spread(mask: int) -> int:
    """The packed exponent of a multilinear monomial: bit i of the subset
    mask moves to bit _WIDTH*i, by reading the mask's binary digits in
    base 2^_WIDTH."""
    return int(format(mask, "b"), 1 << _WIDTH)


def _exponents(key: int, n: int) -> Tuple[int, ...]:
    return tuple((key >> (_WIDTH * i)) & _FIELD_MASK for i in range(n))


def _mul_packed(a: dict, b: dict, field: FieldDescriptor) -> dict:
    """Product of two raw maps keyed by packed exponents, as a canonical map."""
    out: dict = {}
    get = out.get
    b_items = b.items()
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            c = ca * cb
            s = get(k)
            out[k] = c if s is None else s + c
    return field.canon(out)


class SparsePoly(_Poly):
    """A small-degree polynomial; each monomial is a packed exponent that
    holds the exponent of x_i in bits [_WIDTH*(i-1), _WIDTH*i).

    The package builds one kind: the commutator A*D - B*C of a
    multilinear polynomial, whose individual exponents are at most 2 since
    A, B, C and D are multilinear.  The public constructor takes exponent
    tuples, each exponent in 0..MAX_EXPONENT, so results can be compared
    against polynomials built outside the package; a copy is rebuilt from
    the packed map by ``_trusted``.  Not hashable.
    """

    MAX_EXPONENT = 4

    __slots__ = ()
    __hash__ = None

    def __init__(
        self,
        n: int,
        field: FieldDescriptor,
        coeffs: Dict[Tuple[int, ...], Scalar],
    ):
        _check_var_count(n)
        clean = {}
        for exps, c in coeffs.items():
            if len(exps) != n:
                raise IndexOutOfRange("exponent vector length %d != %d" % (len(exps), n))
            if any(e < 0 or e > self.MAX_EXPONENT for e in exps):
                raise IndexOutOfRange("individual exponent outside 0..4")
            c = field.raw(c)
            if c:
                clean[sum(e << (_WIDTH * i) for i, e in enumerate(exps))] = c
        _set(self, "n", n)
        _set(self, "field", field)
        _set(self, "coeffs", clean)

    def __reduce__(self):
        return SparsePoly._trusted, (self.n, self.field, self.coeffs)

    def __str__(self):
        return sparse_str(self)


def sparse_str(p: SparsePoly) -> str:
    """Display form mirroring the multilinear one; repeated factors show
    powers, e.g. ``x3*x3``."""
    return _terms_str(
        (
            p.coeffs[k],
            ["x%d" % (i + 1) for i, e in enumerate(_exponents(k, p.n)) for _ in range(e)],
        )
        for k in sorted(p.coeffs)
    )


# -- the commutator ---------------------------------------------------------


def _commutator_raw(
    coeffs: dict, bi: int, bj: int, field: FieldDescriptor
) -> Tuple[dict, dict]:
    """(A*D - B*C, D) for a raw map p = A + B x_i + C x_j + D x_i x_j, where
    bi and bj are the bits of x_i and x_j and A, B, C, D are free of both.

    Both maps are keyed by packed exponents; A*D - B*C is canonical.  One
    pass over p splits it into A, B, C and D.
    """
    a: dict = {}
    b: dict = {}
    c: dict = {}
    d: dict = {}
    parts = {0: a, bi: b, bj: c, bi | bj: d}
    both = bi | bj
    for m, v in coeffs.items():
        k = m & both
        parts[k][_spread(m ^ k)] = v
    out = _mul_packed(a, d, field)
    for k, v in _mul_packed(b, c, field).items():
        s = out.get(k)
        out[k] = -v if s is None else s - v
    return field.canon(out), d


def commutator(p: MultilinearPoly, i: int, j: int) -> SparsePoly:
    """The pairwise commutator of p between x_i and x_j.

    By definition (p|_{i=0,j=0})(p|_{i=1,j=1}) - (p|_{i=0,j=1})(p|_{i=1,j=0}).
    Writing p = A + B x_i + C x_j + D x_i x_j with A, B, C, D free of x_i
    and x_j, this expands to A*D - B*C, which is computed exactly from one
    pass over p's coefficients.  The result is generally not multilinear.
    """
    if i == j:
        raise PreconditionViolated("commutator needs two distinct variables")
    _check_index(i, p.n)
    _check_index(j, p.n)
    comm, _ = _commutator_raw(p.coeffs, 1 << (i - 1), 1 << (j - 1), p.field)
    return SparsePoly._trusted(p.n, p.field, comm)


# -- named constructors ------------------------------------------------------


def _by_degree(n: int, field: FieldDescriptor, weights: Dict[int, Scalar]) -> MultilinearPoly:
    """The sum of weights[k] * S_n^k over the degrees k in ``weights``, built
    degree by degree, each checked against 0..n and the variable cap first."""
    coeffs = {}
    for k, w in weights.items():
        if not (0 <= k <= n):
            raise IndexOutOfRange("need 0 <= k <= n, got k=%d, n=%d" % (k, n))
        _check_var_count(n)  # before C(n, k) masks are built
        w = field.raw(w)
        if w:
            for subset in combinations(range(n), k):
                coeffs[sum(1 << i for i in subset)] = w
    return MultilinearPoly._trusted(n, field, coeffs)


def elementary_symmetric(n: int, k: int, field: FieldDescriptor = QQ) -> MultilinearPoly:
    """S_n^k: the sum of all degree-k multilinear monomials on n variables."""
    return _by_degree(n, field, {k: 1})


def _infer_field(field: Optional[FieldDescriptor], *scalars) -> FieldDescriptor:
    if field is not None:
        return field
    for s in scalars:
        if isinstance(s, FieldElem):
            return s.field
    return QQ


def m_poly(
    n: int, alpha: Scalar, beta: Scalar, field: Optional[FieldDescriptor] = None
) -> MultilinearPoly:
    """alpha*S_n^n + beta*S_n^{n-1}: the hierarchy family's witness."""
    field = _infer_field(field, alpha, beta)
    return _by_degree(n, field, {n: alpha, n - 1: beta})


def family4(
    alpha: Scalar,
    beta: Scalar,
    gamma: Scalar,
    field: Optional[FieldDescriptor] = None,
) -> MultilinearPoly:
    """The weighted perfect-matching family on four variables:
    alpha(x1x2 + x3x4) + beta(x1x3 + x2x4) + gamma(x1x4 + x2x3)."""
    field = _infer_field(field, alpha, beta, gamma)
    a = field.elem(alpha)
    b = field.elem(beta)
    c = field.elem(gamma)
    return MultilinearPoly(
        4,
        field,
        {0b0011: a, 0b1100: a, 0b0101: b, 0b1010: b, 0b1001: c, 0b0110: c},
    )


def linear_dependent(polys: Sequence[MultilinearPoly]) -> Optional[List[FieldElem]]:
    """A nonzero coefficient vector (a_1..a_k) with sum a_i * p_i = 0, if any.

    Exact Gaussian elimination, one raw map per row: p_r keyed by its masks,
    plus the key -1-r that records the combination of inputs the row holds.
    Rows are reduced by the earlier pivots in order; a row's pivot is its
    smallest mask, and the first row left with no mask gives the
    dependence, normalized to leading coefficient 1.
    """
    if not polys:
        return None
    field = polys[0].field
    n = polys[0].n
    for p in polys[1:]:
        _same_field(field, p.field)
        if p.n != n:
            raise IndexOutOfRange("mixed variable counts in dependence test")

    canon, one = field.canon, field.raw(1)
    pivots: List[Tuple[int, dict]] = []
    for r, p in enumerate(polys):
        row = dict(p.coeffs)
        row[-1 - r] = one
        for key, pivot in pivots:
            c = row.get(key)
            if c:
                for k, v in pivot.items():
                    row[k] = row.get(k, 0) - c * v
                row = canon(row)
        lead = min((k for k in row if k >= 0), default=None)
        if lead is None:
            # only combination keys are left; the first input's is the largest
            inv = field.inv(row[max(row)])
            combo = (field.mul(row.get(-1 - i, 0), inv) for i in range(len(polys)))
            return [FieldElem(field, c) for c in combo]
        inv = field.inv(row[lead])
        pivots.append((lead, canon({k: v * inv for k, v in row.items()})))
    return None
