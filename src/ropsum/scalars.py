"""Exact scalar arithmetic over the rationals and small prime fields.

A :class:`FieldDescriptor` names the field and owns its arithmetic on raw
values: ``fractions.Fraction`` over the rationals (always reduced, positive
denominator) and ints in ``[0, p)`` over F_p.  The raw operations are bound
once per descriptor, so no caller branches on the kind of field.
Polynomial coefficients are stored as raw values; every scalar handed to a
caller is a :class:`FieldElem` tagged with its descriptor, and mixing
elements of different fields raises ``FieldMismatch``.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Optional, Union

from ._record import Frozen, _set
from .errors import DivisionByZero, FieldMismatch, ParseError, PreconditionViolated

MAX_PRIME = 2**31


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_BASES_DECIDE_BELOW = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test: the prime bases up to 37
    decide every p below 318665857834031151167461 (about 3.2 * 10^23, the
    least composite that passes them all), far above MAX_PRIME.  From there
    on it has no answer and raises ``PreconditionViolated``."""
    if p >= _BASES_DECIDE_BELOW:
        raise PreconditionViolated(
            "primality is decided only below %d" % _BASES_DECIDE_BELOW
        )
    if p < 2 or any(p % a == 0 for a in _BASES):
        return p in _BASES
    # p - 1 = d * 2^s with d odd; p passes base a when a^d = 1 or some
    # a^(d * 2^r) with r < s is -1
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FieldDescriptor(Frozen):
    """The ambient field: the rationals, or F_p for a prime 2 <= p < 2^31.

    ``add``, ``sub``, ``mul``, ``neg``, ``div`` and ``inv`` act on raw
    values and return canonical raw values.  Bulk loops may instead combine
    raw values with Python's own ``+``, ``-`` and ``*`` and pass the
    resulting map through ``canon``, which reduces every value to its
    canonical form and drops the zero entries.  Two descriptors are equal
    when their kind and modulus are, and a copy is rebuilt from those two.
    """

    __slots__ = (
        "kind", "p", "add", "sub", "mul", "neg", "div", "inv", "canon", "_zero", "_one"
    )
    _fields = ("kind", "p")

    def __init__(self, kind: str, p: Optional[int] = None):
        if kind == "rationals":
            if p is not None:
                raise PreconditionViolated("the rational field has no modulus")
            ops = (
                operator.add,
                operator.sub,
                operator.mul,
                operator.neg,
                operator.truediv,
                lambda a: 1 / a,
                lambda d: {k: v for k, v in d.items() if v},
            )
        elif kind == "prime":
            if p is None or not (2 <= p < MAX_PRIME) or not is_prime(p):
                raise PreconditionViolated("modulus must be a prime in [2, 2^31)")
            ops = (
                lambda a, b: (a + b) % p,
                lambda a, b: (a - b) % p,
                lambda a, b: a * b % p,
                lambda a: -a % p,
                lambda a, b: a * pow(b, -1, p) % p,
                lambda a: pow(a, -1, p),
                lambda d: {k: r for k, v in d.items() if (r := v % p)},
            )
        else:
            raise PreconditionViolated("unknown field kind %r" % kind)
        for name, value in zip(self.__slots__, (kind, p) + ops):
            _set(self, name, value)
        # FieldElem is immutable, so one zero and one one serve every caller
        _set(self, "_zero", FieldElem(self, self.raw(0)))
        _set(self, "_one", FieldElem(self, self.raw(1)))

    def zero(self) -> "FieldElem":
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def raw(self, value: Union[int, Fraction, "FieldElem"]):
        """The canonical raw value of an int, Fraction or FieldElem; any
        other value, such as a float or a string, is refused."""
        if isinstance(value, FieldElem):
            if value.field is not self and value.field != self:
                raise FieldMismatch("element of %s used in %s" % (value.field, self))
            return value.value
        if not isinstance(value, (int, Fraction)):
            raise PreconditionViolated(
                "scalar %r is not an int, Fraction or FieldElem" % (value,)
            )
        if self.kind == "rationals":
            return Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise DivisionByZero("denominator vanishes mod %d" % self.p)
            return value.numerator * pow(den, -1, self.p) % self.p
        return value % self.p

    def elem(self, value: Union[int, Fraction, "FieldElem"]) -> "FieldElem":
        """Coerce an int, Fraction or FieldElem into this field."""
        raw = self.raw(value)
        return value if isinstance(value, FieldElem) else FieldElem(self, raw)

    def __repr__(self):
        return "Q" if self.kind == "rationals" else "F_%d" % self.p


@functools.lru_cache(maxsize=64)
def prime_field(p: int) -> FieldDescriptor:
    """F_p.  Recent descriptors are shared: each costs a primality test,
    and a dropped one waits for the cycle collector, since it and its
    cached constants refer to each other."""
    return FieldDescriptor("prime", p)


class FieldElem(Frozen):
    """An immutable exact scalar in a fixed field.

    Arithmetic accepts ints (coerced into the element's field) or elements
    of the same field.  All operations are pure.
    """

    __slots__ = _fields = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        _set(self, "field", field)
        _set(self, "value", value)

    def _coerce(self, other):
        """The raw value of an operand in this element's field, or None
        for an operand that is not a scalar."""
        if isinstance(other, (FieldElem, int, Fraction)):
            return self.field.raw(other)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElem(self.field, self.field.add(self.value, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElem(self.field, self.field.sub(self.value, b))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return FieldElem(self.field, self.field.mul(self.value, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        if b == 0:
            raise DivisionByZero("division by zero in %s" % self.field)
        return FieldElem(self.field, self.field.div(self.value, b))

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.value))

    def inverse(self) -> "FieldElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero in %s" % self.field)
        return FieldElem(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.value == 0

    # equal to the int or Fraction it stands for, so not Frozen's equality;
    # defining __eq__ drops the inherited hash, so Frozen's is set back
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    __hash__ = Frozen.__hash__

    def __repr__(self):
        return "FieldElem(%r, %s)" % (self.field, format_scalar(self))

    def __str__(self):
        return format_scalar(self)


# built here because a descriptor makes its constants as FieldElems
QQ = FieldDescriptor("rationals")


def sqrt_in_field(x: FieldElem) -> Optional[FieldElem]:
    """A square root of x in its own field, or None when none exists.

    Over the rationals a root exists iff x >= 0 and both the numerator and
    the denominator of the reduced form are perfect squares.  Over F_p the
    Euler criterion screens non-residues, then Tonelli-Shanks finds a root
    with O(log^2 p) modular multiplications; of the two roots the smaller
    representative is returned.
    """
    field = x.field
    if field.kind == "rationals":
        v = x.value
        if v < 0:
            return None
        rn = math.isqrt(v.numerator)
        rd = math.isqrt(v.denominator)
        if rn * rn != v.numerator or rd * rd != v.denominator:
            return None
        return FieldElem(field, Fraction(rn, rd))
    p = field.p
    v = x.value
    if v == 0 or p == 2:
        return x
    if pow(v, (p - 1) // 2, p) != 1:
        return None
    # p - 1 = q * 2^s with q odd; z is any non-residue
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
    # invariant: r^2 = v * t, and t has order dividing 2^(s-1)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return FieldElem(field, min(r, p - r))


# The one integer rule for text: ASCII digits, matched whole (``\d`` and
# ``int`` also take other scripts' digits, ``int`` also ``_`` and spaces,
# and ``$`` matches before a trailing newline).  The one space rule: ASCII
# whitespace, ``_SPACE`` or ``\s`` under ``re.ASCII`` (``str.strip``,
# ``str.split`` and a plain ``\s`` also take other scripts' spaces).
_SPACE = " \t\n\r\f\v"
_INT_RE = re.compile(r"[+-]?[0-9]+")
_RAT_RE = re.compile(r"([+-]?[0-9]+)\s*/\s*([0-9]+)", re.ASCII)
_MOD_RE = re.compile(r"([+-]?[0-9]+)\s+mod\s+([0-9]+)", re.ASCII)


def int_literal(text: str) -> int:
    """The integer ``text`` spells as ``[+-]?[0-9]+``; anything else, or a
    literal past the interpreter's limit on decimal digits (4,300 by
    default), is a parse error."""
    if _INT_RE.fullmatch(text) is None:
        raise ParseError("expected an integer, got %r" % text)
    try:
        return int(text)
    except ValueError:
        raise ParseError("integer literal of %d characters is too long" % len(text)) from None


def parse_scalar(text: str, field: FieldDescriptor) -> FieldElem:
    """Parse ``k``, ``p/q`` or ``k mod p`` in the context of ``field``."""
    s = text.strip(_SPACE)
    m = _MOD_RE.fullmatch(s)
    if m:
        if field.kind != "prime":
            raise ParseError("'mod' scalar %r in a rational context" % s)
        if int_literal(m.group(2)) != field.p:
            raise ParseError(
                "scalar %r has modulus %s, field is F_%d" % (s, m.group(2), field.p)
            )
        return field.elem(int_literal(m.group(1)))
    m = _RAT_RE.fullmatch(s)
    if m:
        num, den = int_literal(m.group(1)), int_literal(m.group(2))
        if den == 0:
            raise ParseError("zero denominator in %r" % s)
        return field.elem(Fraction(num, den))
    if _INT_RE.fullmatch(s):
        return field.elem(int_literal(s))
    raise ParseError("cannot parse scalar %r" % text)


def format_scalar(x: FieldElem) -> str:
    """Canonical text form: ``-3/4`` over the rationals, ``k`` over F_p."""
    return str(x.value)
