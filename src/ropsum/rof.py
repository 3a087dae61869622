"""Read-once formula trees in normal form, and sums of them.

A formula is a binary tree whose leaves are variables and whose internal
nodes are ``add``/``mul`` gates; every node carries an affine pair
(alpha, beta).  A leaf labelled x_i computes alpha*x_i + beta, a gate
computes alpha*(left op right) + beta.  Read-once means each variable
labels at most one leaf, which makes every evaluation multilinear.

``RopSum`` is an ordered list of such trees; distinct summands may share
variables freely, each tree alone may not.

``evaluate`` and ``sum_evaluate`` share one private kernel, ``_expand``,
which walks a tree once over raw coefficient maps (see
:mod:`ropsum.mpoly`) and builds no polynomial object per node.  Past the
nodes' own refusal of a label that is not a ``FieldElem``, of a leaf
variable that is not an ``int`` and of a gate child that is not a node,
it is the one place that refuses a formula, with ``validate``'s words for
any tree that ``validate`` flags, so each check that a sum computes its
target also checks that every summand is read-once; ``sum_evaluate``
names the summand it refuses.  The witnesses below expand their formula
before their own checks, so they refuse a bad formula as ``evaluate`` does
(``three_var_linearizing_restriction`` first refuses more than 3
variables, whose expansion could reach 2^n terms).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from ._record import Frozen, _set
from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    ParseError,
    PreconditionViolated,
    RopsumError,
)
from .mpoly import (
    MultilinearPoly,
    _check_var_count,
    _disjoint_product,
)
from .scalars import FieldDescriptor, FieldElem, format_scalar, int_literal, parse_scalar

ADD = "add"
MUL = "mul"


_LABELS = "node labels must be FieldElems, not %s and %s"
_CHILDREN = "gate children must be Leaf or Gate nodes, not %s and %s"
# a variable token, x<i>, in formula and polynomial text alike; its digits
# are ASCII, as in scalars.int_literal, and it is matched whole
_VAR_RE = re.compile(r"x([0-9]+)")


class Leaf(Frozen):
    __slots__ = _fields = ("var", "alpha", "beta")

    def __init__(self, var: int, alpha: FieldElem, beta: FieldElem):
        if var.__class__ is not int:
            raise PreconditionViolated("leaf variable must be an int, not %s" % type(var).__name__)
        if alpha.__class__ is not FieldElem or beta.__class__ is not FieldElem:
            raise PreconditionViolated(_LABELS % (type(alpha).__name__, type(beta).__name__))
        _set(self, "var", var)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)


class Gate(Frozen):
    __slots__ = _fields = ("op", "alpha", "beta", "left", "right")

    def __init__(self, op: str, alpha: FieldElem, beta: FieldElem, left: "Rof", right: "Rof"):
        if alpha.__class__ is not FieldElem or beta.__class__ is not FieldElem:
            raise PreconditionViolated(_LABELS % (type(alpha).__name__, type(beta).__name__))
        if not (left.__class__ is Gate or left.__class__ is Leaf) or not (
            right.__class__ is Gate or right.__class__ is Leaf
        ):
            raise PreconditionViolated(_CHILDREN % (type(left).__name__, type(right).__name__))
        _set(self, "op", op)  # ADD or MUL
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "left", left)
        _set(self, "right", right)


Rof = Union[Leaf, Gate]


def _post_order(rof: Rof) -> List[Rof]:
    """Every node after both its children, left subtree first; the leaves
    come out left to right.

    The walks over a tree use an explicit stack, not recursion, so a
    formula of any depth is handled.
    """
    # a pre-order that visits the right child first, reversed
    order: List[Rof] = []
    stack = [rof]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Gate):
            stack += (node.left, node.right)
    order.reverse()
    return order


def leaf_vars(rof: Rof) -> List[int]:
    """Variables labelling leaves, in left-to-right order (with repeats)."""
    return [node.var for node in _post_order(rof) if isinstance(node, Leaf)]


def validate(rof: Rof) -> List[str]:
    """The words of every read-once / consistency violation, such as
    ``x1 labels 2 leaves``; an empty list means valid."""
    violations: List[str] = []
    field = rof.alpha.field
    seen: Dict[int, int] = {}
    for node in _post_order(rof):
        for scalar in (node.alpha, node.beta):
            if scalar.field != field:
                violations.append("scalar in %s, tree is over %s" % (scalar.field, field))
        if isinstance(node, Leaf):
            if node.var < 1:
                violations.append("leaf variable x%d" % node.var)
            seen[node.var] = seen.get(node.var, 0) + 1
        elif node.op not in (ADD, MUL):
            violations.append("unknown op %r" % node.op)
    for v, count in sorted(seen.items()):
        if count > 1:
            violations.append("x%d labels %d leaves" % (v, count))
    return violations


def _expand(rof: Rof, n: int, field: FieldDescriptor) -> dict:
    """The canonical raw coefficient map of the polynomial the formula
    computes over ``field``, on variables x_1..x_n; the caller checks n.

    One walk keeps a (map, leaves) pair per node, ``leaves`` being the mask
    of the variables its leaves read.  The sides of a gate must read
    disjoint variables, so a sum meets only in its constant term.  A gate
    whose sides share a variable, or whose op is neither add nor mul,
    refuses the formula with ``validate``'s words; a scalar of another
    field raises ``FieldMismatch`` and a leaf outside 1..n
    ``IndexOutOfRange``.
    """
    canon = field.canon
    values: List[Tuple[dict, int]] = []
    for node in _post_order(rof):
        a, b = node.alpha, node.beta
        alpha = a.value if a.field is field else field.raw(a)
        beta = b.value if b.field is field else field.raw(b)
        if isinstance(node, Leaf):
            if not (1 <= node.var <= n):
                raise IndexOutOfRange("leaf variable x%d outside 1..%d" % (node.var, n))
            leaves = 1 << (node.var - 1)
            coeffs = {leaves: alpha} if alpha else {}
            if beta:
                coeffs[0] = beta
            values.append((coeffs, leaves))
            continue
        right, right_leaves = values.pop()
        left, left_leaves = values.pop()
        if left_leaves & right_leaves or node.op not in (ADD, MUL):
            raise PreconditionViolated("invalid formula: " + "; ".join(validate(rof)))
        if node.op == ADD:
            # disjoint sides meet only in the constant term
            coeffs = {**left, **right}
            if 0 in left and 0 in right:
                _add_to_constant(coeffs, left[0], field)
        # a factor that is the bare monomial of its leaves only moves the
        # other's keys
        elif len(left) == 1 and left.get(left_leaves) == 1:
            coeffs = {left_leaves | m: c for m, c in right.items()}
        elif len(right) == 1 and right.get(right_leaves) == 1:
            coeffs = {m | right_leaves: c for m, c in left.items()}
        else:
            coeffs = _disjoint_product(left, right, field)
        # most gates of a decomposition carry the identity pair (1, 0)
        if alpha != 1:
            coeffs = canon({m: c * alpha for m, c in coeffs.items()}) if alpha else {}
        if beta:
            _add_to_constant(coeffs, beta, field)
        values.append((coeffs, left_leaves | right_leaves))
    return values[0][0]


def _add_to_constant(coeffs: dict, c, field: FieldDescriptor) -> None:
    """Add the nonzero raw constant c to a canonical map, in place."""
    c0 = field.add(coeffs.get(0, 0), c)
    if c0:
        coeffs[0] = c0
    else:
        del coeffs[0]


def evaluate(rof: Rof, n: Optional[int] = None) -> MultilinearPoly:
    """The multilinear polynomial the formula computes, expanded in one
    walk over raw coefficient maps.

    ``n`` defaults to the highest variable index in the tree.  A formula
    that is not read-once is refused with ``validate``'s words.
    """
    field = rof.alpha.field
    if n is None:
        n = max(leaf_vars(rof))
    _check_var_count(n)
    return MultilinearPoly._trusted(n, field, _expand(rof, n, field))


def is_multiplicative_structural(rof: Rof) -> bool:
    """True iff the tree contains no addition gate."""
    return not any(
        isinstance(node, Gate) and node.op == ADD for node in _post_order(rof)
    )


def mrops_witness(rof: Rof, i: int) -> Tuple[int, FieldElem]:
    """For a multiplicative formula and a variable x_i, a pair (j, gamma)
    with d/dx_j of the computed polynomial vanishing under x_i = gamma.

    j is the smallest variable in the sibling subtree of x_i's leaf and
    gamma = -beta/alpha from that leaf's labels; the identity is exact.
    """
    p = evaluate(rof)
    if not is_multiplicative_structural(rof):
        raise PreconditionViolated("formula contains an addition gate")
    all_vars = leaf_vars(rof)
    if len(all_vars) < 2:
        raise PreconditionViolated("need at least 2 variables")
    if i not in all_vars:
        raise IndexOutOfRange("x%d does not occur in the formula" % i)

    if any(node.alpha.is_zero() for node in _post_order(rof)):
        raise PreconditionViolated("zero scale collapses a subtree to a constant")

    # the formula is read-once, so x_i labels exactly one leaf, and with
    # >= 2 variables that leaf has a parent
    leaf, sibling = next(
        (child, sibling)
        for node in _post_order(rof)
        if isinstance(node, Gate)
        for child, sibling in ((node.left, node.right), (node.right, node.left))
        if isinstance(child, Leaf) and child.var == i
    )
    gamma = -leaf.beta / leaf.alpha
    j = min(leaf_vars(sibling))
    # the defining identity is checked exactly, not sampled
    if not p.partial(j).restrict(i, gamma).is_zero():
        raise RopsumError("internal: witness identity failed")
    return j, gamma


def three_var_linearizing_restriction(rof: Rof) -> Tuple[int, FieldElem]:
    """A pair (i, a) such that restricting x_i = a makes the computed
    polynomial have degree at most 1.

    The top gate splits the three variables 1+2.  Under an addition gate
    any value for a variable of the bivariate side works (we pick 0); under
    a multiplication gate the univariate factor is zeroed at -beta/alpha.
    """
    vars_present = leaf_vars(rof)
    # refused before the expansion, which can reach 2^k terms on k
    # variables where a formula on 3 has at most 8
    k = len(set(vars_present))
    if k > 3:
        raise PreconditionViolated("need exactly 3 variables, got %d" % k)
    p = evaluate(rof)
    if len(vars_present) < 3:
        raise PreconditionViolated("need exactly 3 variables, got %d" % len(vars_present))
    assert isinstance(rof, Gate)
    field = rof.alpha.field
    left_vars = leaf_vars(rof.left)
    solo, pair_side = (
        (rof.left, rof.right) if len(left_vars) == 1 else (rof.right, rof.left)
    )
    if rof.op == ADD:
        i, a = min(leaf_vars(pair_side)), field.zero()
    else:
        assert isinstance(solo, Leaf)
        if solo.alpha.is_zero():
            i, a = min(leaf_vars(pair_side)), field.zero()
        else:
            i, a = solo.var, -solo.beta / solo.alpha
    if p.restrict(i, a).degree() > 1:
        raise RopsumError("internal: restriction left a degree above 1")
    return i, a


# -- sums of read-once formulas ----------------------------------------------


class RopSum(Frozen):
    """An ordered sum of read-once formulas over a shared variable range."""

    __slots__ = _fields = ("field", "n", "summands")

    def __init__(self, field: FieldDescriptor, n: int, summands: Tuple[Rof, ...]):
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "summands", summands)

    def __len__(self):
        return len(self.summands)


def sum_evaluate(s: RopSum) -> MultilinearPoly:
    """The polynomial the sum computes: every summand is expanded in
    ``s.field`` and added into one coefficient map; a summand that is not
    read-once is refused as in ``evaluate``.  Each refusal of a summand
    names its index from 0: ``summand <index>: `` comes before each
    violation and before the words of the other refusals."""
    _check_var_count(s.n)
    total: dict = {}
    for idx, rof in enumerate(s.summands):
        try:
            coeffs = _expand(rof, s.n, s.field)
        except PreconditionViolated:
            raise PreconditionViolated(
                "invalid formula: "
                + "; ".join("summand %d: %s" % (idx, w) for w in validate(rof))
            ) from None
        except (FieldMismatch, IndexOutOfRange) as exc:
            raise type(exc)("summand %d: %s" % (idx, exc)) from None
        for m, c in coeffs.items():
            t = total.get(m)
            total[m] = c if t is None else t + c
    return MultilinearPoly._trusted(s.n, s.field, s.field.canon(total))


def verify_against(s: RopSum, target: MultilinearPoly) -> bool:
    """Exact polynomial equality of the sum against a target, compared as
    coefficient maps, so the two variable counts may differ.  A summand
    that is not read-once is refused even when the sum equals the target."""
    if target.field != s.field:
        raise FieldMismatch("sum over %s, target over %s" % (s.field, target.field))
    return sum_evaluate(s).coeffs == target.coeffs


# -- text form ---------------------------------------------------------------


def print_rof(rof: Rof) -> str:
    """Canonical s-expression, e.g. ``(mul (1 0) (leaf (2 3) x1) (leaf (1 0) x2))``."""
    parts: List[str] = []
    stack: List[Union[Rof, str]] = [rof]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        a, b = format_scalar(item.alpha), format_scalar(item.beta)
        if isinstance(item, Leaf):
            parts.append("(leaf (%s %s) x%d)" % (a, b, item.var))
        else:
            parts.append("(%s (%s %s) " % (item.op, a, b))
            stack += (")", item.right, " ", item.left)
    return "".join(parts)


# a formula token: a parenthesis, or a run of other characters up to a
# parenthesis or ASCII whitespace (scalars' one space rule)
_TOKEN_RE = re.compile(r"[()]|[^()\s]+", re.ASCII)


def _tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text)


class _TokenStream:
    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError("expected %r, got %r" % (tok, got), self.pos - 1)


def _parse_scalar_tokens(ts: _TokenStream, field: FieldDescriptor) -> FieldElem:
    first = ts.next()
    if ts.peek() == "mod":
        ts.next()
        modulus = ts.next()
        return parse_scalar("%s mod %s" % (first, modulus), field)
    return parse_scalar(first, field)


def _parse_node(ts: _TokenStream, field: FieldDescriptor) -> Rof:
    """One formula, read with an explicit stack of the gates still open."""
    open_gates: List[Tuple[str, FieldElem, FieldElem, List[Rof]]] = []
    while True:
        ts.expect("(")
        head = ts.next()
        if head not in ("leaf", ADD, MUL):
            raise ParseError("expected leaf/add/mul, got %r" % head, ts.pos - 1)
        ts.expect("(")
        alpha = _parse_scalar_tokens(ts, field)
        beta = _parse_scalar_tokens(ts, field)
        ts.expect(")")
        if head != "leaf":
            open_gates.append((head, alpha, beta, []))
            continue
        var_tok = ts.next()
        m = _VAR_RE.fullmatch(var_tok)
        if m is None:
            raise ParseError("expected a variable like x1, got %r" % var_tok, ts.pos - 1)
        var = int_literal(m.group(1))
        if var < 1:
            raise ParseError("variable index must be >= 1", ts.pos - 1)
        ts.expect(")")
        node: Rof = Leaf(var, alpha, beta)
        # a finished node fills the innermost open gate; a gate with both
        # children is finished in turn
        while open_gates:
            head, alpha, beta, children = open_gates[-1]
            children.append(node)
            if len(children) < 2:
                break
            open_gates.pop()
            ts.expect(")")
            node = Gate(head, alpha, beta, children[0], children[1])
        else:
            return node


def parse_rof(text: str, field: FieldDescriptor) -> Rof:
    """Parse the s-expression grammar; scalars are read in ``field``."""
    ts = _TokenStream(_tokenize(text))
    node = _parse_node(ts, field)
    if ts.peek() is not None:
        raise ParseError("trailing input %r" % ts.peek(), ts.pos)
    return node
