"""Independent arithmetic that the benchmark checks the package against.

Nothing here imports ``ropsum``.  A field is named by its modulus ``p``,
with ``p == 0`` for the rationals; values are ``Fraction`` over the
rationals and ints in ``[0, p)`` over F_p.  A multilinear polynomial is a
dict ``{mask: value}`` (bit i-1 of the mask is x_i) holding nonzero values
only.  A general monomial, as printed for commutators, is a sorted tuple
of variable indices with repeats, so ``x3*x3*x4`` is ``(3, 3, 4)``.

A formula is a nested tuple: ``("leaf", alpha, beta, var)`` computes
alpha*x_var + beta, and ``(op, alpha, beta, left, right)`` with op
``"add"`` or ``"mul"`` computes alpha*(left op right) + beta.
"""

from __future__ import annotations

import math
from fractions import Fraction

ADD, MUL, LEAF = "add", "mul", "leaf"


def norm(value, p):
    return Fraction(value) if p == 0 else value % p


def _accumulate(out, key, value, p):
    total = norm(out.get(key, 0) + value, p)
    if total:
        out[key] = total
    else:
        out.pop(key, None)


# -- polynomials --------------------------------------------------------------


def poly_add(a, b, p):
    out = dict(a)
    for m, c in b.items():
        _accumulate(out, m, c, p)
    return out


def poly_scale(a, c, p):
    if not norm(c, p):
        return {}
    return {m: norm(v * c, p) for m, v in a.items()}


def poly_mul_disjoint(a, b, p):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma & mb:
                raise ValueError("factors share variables")
            _accumulate(out, ma | mb, ca * cb, p)
    return out


def poly_at(poly, point, p):
    """Value at ``point``, a dict from variable index to field value."""
    total = norm(0, p)
    for mask, c in poly.items():
        term = c
        i = 1
        while mask:
            if mask & 1:
                term = term * point[i]
            mask >>= 1
            i += 1
        total = norm(total + term, p)
    return total


def partial(poly, i):
    bit = 1 << (i - 1)
    return {m ^ bit: c for m, c in poly.items() if m & bit}


def restrict(poly, i, value, p):
    bit = 1 << (i - 1)
    out = {}
    for m, c in poly.items():
        if m & bit:
            _accumulate(out, m ^ bit, c * value, p)
        else:
            _accumulate(out, m, c, p)
    return out


def monomials(poly):
    """Re-key a multilinear dict by general monomials (sorted index tuples)."""
    out = {}
    for mask, c in poly.items():
        out[tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)] = c
    return out


def _general_mul(a, b, p):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _accumulate(out, tuple(sorted(ma + mb)), ca * cb, p)
    return out


def commutator(poly, i, j, p):
    """(f|00)(f|11) - (f|01)(f|10) for the pair (x_i, x_j), general monomials."""

    def at(vi, vj):
        return monomials(restrict(restrict(poly, i, vi, p), j, vj, p))

    minus = {m: norm(-c, p) for m, c in _general_mul(at(0, 1), at(1, 0), p).items()}
    out = _general_mul(at(0, 0), at(1, 1), p)
    for m, c in minus.items():
        _accumulate(out, m, c, p)
    return out


def elementary_symmetric(n, k):
    """Masks of S_n^k."""
    return [m for m in range(1 << n) if bin(m).count("1") == k]


# -- formulas -----------------------------------------------------------------


def leaves(tree):
    if tree[0] == LEAF:
        return [tree[3]]
    return leaves(tree[3]) + leaves(tree[4])


def is_read_once(tree):
    found = leaves(tree)
    return len(found) == len(set(found)) and all(v >= 1 for v in found)


def expand(tree, p):
    """The multilinear polynomial a formula computes."""
    kind, alpha, beta = tree[0], tree[1], tree[2]
    if kind == LEAF:
        inner = {1 << (tree[3] - 1): norm(1, p)}
    else:
        left, right = expand(tree[3], p), expand(tree[4], p)
        inner = poly_add(left, right, p) if kind == ADD else poly_mul_disjoint(left, right, p)
    out = poly_scale(inner, alpha, p)
    _accumulate(out, 0, beta, p)
    return out


def tree_at(tree, point, p):
    """Value of a formula at ``point`` by walking the tree."""
    kind, alpha, beta = tree[0], tree[1], tree[2]
    if kind == LEAF:
        inner = point[tree[3]]
    else:
        left, right = tree_at(tree[3], point, p), tree_at(tree[4], point, p)
        inner = left + right if kind == ADD else left * right
    return norm(alpha * inner + beta, p)


def from_package(rof):
    """A package ``Leaf``/``Gate`` tree as a tuple formula (reads attributes only)."""
    if hasattr(rof, "var"):
        return (LEAF, rof.alpha.value, rof.beta.value, rof.var)
    return (rof.op, rof.alpha.value, rof.beta.value, from_package(rof.left), from_package(rof.right))


def format_tree(tree):
    head = "(%s (%s %s)" % (tree[0], tree[1], tree[2])
    if tree[0] == LEAF:
        return "%s x%d)" % (head, tree[3])
    return "%s %s %s)" % (head, format_tree(tree[3]), format_tree(tree[4]))


def parse_tree(text, p):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take(expected=None):
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise ValueError("expected %r, got %r" % (expected, tok))
        return tok

    def node():
        take("(")
        kind = take()
        take("(")
        alpha, beta = parse_scalar(take(), p), parse_scalar(take(), p)
        take(")")
        if kind == LEAF:
            var = take()
            if not var.startswith("x"):
                raise ValueError("bad variable %r" % var)
            out = (LEAF, alpha, beta, int(var[1:]))
        elif kind in (ADD, MUL):
            out = (kind, alpha, beta, node(), node())
        else:
            raise ValueError("bad node %r" % kind)
        take(")")
        return out

    tree = node()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return tree


# -- text ---------------------------------------------------------------------


def parse_scalar(text, p):
    num, _, den = text.partition("/")
    value = Fraction(int(num), int(den)) if den else Fraction(int(num))
    if p == 0:
        return value
    return value.numerator * pow(value.denominator, -1, p) % p


def format_poly(poly, p, rng=None):
    """Polynomial text the package's parser accepts.  With ``rng`` the terms
    come in shuffled order and unit coefficients are sometimes spelled out."""
    if not poly:
        return "0"
    terms = sorted(poly.items())
    if rng is not None:
        rng.shuffle(terms)
    parts = []
    for mask, c in terms:
        factors = ["x%d" % (i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
        sign = "+"
        if p == 0 and c < 0:
            sign, c = "-", -c
        if factors and c == 1 and (rng is None or rng.random() < 0.7):
            text = "*".join(factors)
        else:
            text = "*".join([str(c)] + factors)
        parts.append((sign, text))
    # A leading "-" would read as a command-line option, so start from 0.
    out = ("0 - " if parts[0][0] == "-" else "") + parts[0][1]
    for sign, text in parts[1:]:
        out += " %s %s" % (sign, text)
    return out


def parse_poly(text, p):
    """Canonical polynomial text (multilinear or with repeated factors) as a
    dict keyed by general monomials."""
    out = {}
    text = text.strip()
    if text == "0":
        return out
    chunks, sign, cur = [], 1, ""
    for ch in text:
        if ch in "+-":
            if cur.strip():
                chunks.append((sign, cur))
            sign, cur = (1 if ch == "+" else -1), ""
        else:
            cur += ch
    chunks.append((sign, cur))
    for sign, chunk in chunks:
        coeff, mono = norm(sign, p), []
        for factor in chunk.strip().split("*"):
            factor = factor.strip()
            if factor.startswith("x"):
                mono.append(int(factor[1:]))
            else:
                coeff = norm(coeff * parse_scalar(factor, p), p)
        _accumulate(out, tuple(sorted(mono)), coeff, p)
    return out


# -- scalars ------------------------------------------------------------------


def is_square(value, p):
    if p == 0:
        value = Fraction(value)
        if value < 0:
            return False
        return all(math.isqrt(v) ** 2 == v for v in (value.numerator, value.denominator))
    value %= p
    return value == 0 or p == 2 or pow(value, (p - 1) // 2, p) == 1


def family_poly(a, b, c, p):
    """a(x1x2 + x3x4) + b(x1x3 + x2x4) + c(x1x4 + x2x3)."""
    out = {}
    for weight, masks in ((a, (0b0011, 0b1100)), (b, (0b0101, 0b1010)), (c, (0b1001, 0b0110))):
        for m in masks:
            _accumulate(out, m, weight, p)
    return out


def family_discriminants(a, b, c, p):
    def disc(x, y, z):
        mid = x * x - y * y - z * z
        return norm(mid * mid - (2 * y * z) ** 2, p)

    return disc(a, b, c), disc(b, a, c), disc(c, b, a)


def family_expressible(a, b, c, p):
    """The closed-form decision for the weighted quadratic family: a sum of two
    read-once formulas exists iff a weight vanishes, two weights have equal
    squares, or one of the three discriminants is a square."""
    a, b, c = norm(a, p), norm(b, p), norm(c, p)
    if not (a and b and c):
        return True
    sq = [norm(v * v, p) for v in (a, b, c)]
    if len(set(sq)) < 3:
        return True
    return any(is_square(d, p) for d in family_discriminants(a, b, c, p))


# -- generators ---------------------------------------------------------------


def random_scalar(rng, p, nonzero):
    """Small integers over the rationals (zero half the time when allowed),
    uniform field elements over F_p."""
    if p == 0:
        if not nonzero and rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.choice((1, -1, 2, -2, 3, -3)))
    if not nonzero and rng.random() < 0.5:
        return 0
    return rng.randrange(1, p) if nonzero else rng.randrange(p)


def random_tree(rng, variables, p):
    """A random read-once formula over exactly ``variables``, nonzero scales."""
    if len(variables) == 1:
        return (LEAF, random_scalar(rng, p, True), random_scalar(rng, p, False), variables[0])
    cut = rng.randint(1, len(variables) - 1)
    return (
        rng.choice((ADD, MUL)),
        random_scalar(rng, p, True),
        random_scalar(rng, p, False),
        random_tree(rng, variables[:cut], p),
        random_tree(rng, variables[cut:], p),
    )


def random_poly(rng, n, p, density):
    """Each monomial present with probability ``density``, nonzero coefficient."""
    out = {}
    for mask in range(1 << n):
        if rng.random() < density:
            if p == 0:
                out[mask] = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 3))
            else:
                out[mask] = rng.randrange(1, p)
    return out
