"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Set, Tuple

from ropsum import QQ, FieldDescriptor, MultilinearPoly, SparsePoly
from ropsum.rof import ADD, MUL, Gate, Leaf, Rof


def random_scalar(rng: random.Random, field: FieldDescriptor, nonzero: bool = False):
    if field.kind == "prime":
        lo = 1 if nonzero else 0
        return field.elem(rng.randrange(lo, field.p))
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if not nonzero or value != 0:
            return field.elem(value)


def random_poly(
    rng: random.Random,
    n: int,
    field: FieldDescriptor = QQ,
    density: float = 0.5,
) -> MultilinearPoly:
    coeffs = {}
    for mask in range(1 << n):
        if rng.random() < density:
            coeffs[mask] = random_scalar(rng, field)
    return MultilinearPoly(n, field, coeffs)


def random_rof(
    rng: random.Random,
    variables: List[int],
    field: FieldDescriptor = QQ,
    multiplicative: bool = False,
    nonzero_scales: bool = True,
) -> Rof:
    """A random read-once tree over exactly the given variables."""
    assert variables
    if len(variables) == 1:
        return Leaf(
            variables[0],
            random_scalar(rng, field, nonzero=nonzero_scales),
            random_scalar(rng, field),
        )
    cut = rng.randint(1, len(variables) - 1)
    shuffled = variables[:]
    rng.shuffle(shuffled)
    left = random_rof(rng, sorted(shuffled[:cut]), field, multiplicative, nonzero_scales)
    right = random_rof(rng, sorted(shuffled[cut:]), field, multiplicative, nonzero_scales)
    op = MUL if multiplicative else rng.choice((ADD, MUL))
    return Gate(
        op,
        random_scalar(rng, field, nonzero=nonzero_scales),
        random_scalar(rng, field),
        left,
        right,
    )


def random_variable_subset(rng: random.Random, n: int, k: int) -> List[int]:
    return sorted(rng.sample(range(1, n + 1), k))


# ---------------------------------------------------------------------------
# exhaustive F2 read-once formula summaries
# ---------------------------------------------------------------------------
#
# Enumerates, up to function-level deduplication, every read-once formula
# over F_2 on variable subsets of [n], keeping for each one:
#   - its evaluation table on {0,1}^n, packed into an int;
#   - whether any addition gate survives constant-subtree pruning;
#   - whether the whole formula collapses to a constant.
# Output affine relabelings (alpha, beta) never change the two flags, so
# deduplicating by the triple preserves every (function, flags) combination
# any concrete formula can exhibit.

Summary = Tuple[int, bool, bool]  # (packed evals, pruned_has_plus, is_const)


def f2_rof_summaries(n: int) -> Dict[int, Set[Summary]]:
    size = 1 << n
    all_ones = (1 << size) - 1
    var_pattern = []
    for i in range(n):
        pat = 0
        for s in range(size):
            if s & (1 << i):
                pat |= 1 << s
        var_pattern.append(pat)

    consts = {(0, False, True), (all_ones, False, True)}
    tables: Dict[int, Set[Summary]] = {}
    for u in sorted(range(1, 1 << n), key=lambda m: m.bit_count()):
        out: Set[Summary] = set(consts)
        if u.bit_count() == 1:
            pat = var_pattern[u.bit_length() - 1]
            out.add((pat, False, False))
            out.add((pat ^ all_ones, False, False))
        else:
            low = u & -u
            rest = u ^ low
            sub = rest
            while True:
                sub = (sub - 1) & rest
                a, b = low | sub, u ^ (low | sub)
                for ta, pa, ca in tables[a]:
                    for tb, pb, cb in tables[b]:
                        for op in (ADD, MUL):
                            raw = (ta ^ tb) if op == ADD else (ta & tb)
                            if ca and cb:
                                flags = (False, True)
                            elif ca or cb:
                                cval, other = (ta, (pb, cb)) if ca else (tb, (pa, ca))
                                if op == MUL and cval == 0:
                                    flags = (False, True)
                                else:
                                    flags = other
                            elif op == ADD:
                                flags = (True, False)
                            else:
                                flags = (pa or pb, False)
                            out.add((raw, flags[0], flags[1]))
                            out.add((raw ^ all_ones, flags[0], flags[1]))
                if sub == 0:
                    break
        tables[u] = out
    return tables


def f2_evals_to_coeff_mask(table: int, n: int) -> int:
    """Packed evaluation table -> packed F_2 coefficient mask."""
    for b in range(n):
        bit = 1 << b
        mask = 0
        for s in range(1 << n):
            if not s & bit:
                mask |= 1 << s
        table ^= (table & mask) << bit
    return table


# ---------------------------------------------------------------------------
# linear forms for the commutator-divisibility shape
# ---------------------------------------------------------------------------


def random_linear_form(
    rng: random.Random, n: int, vars_pair: Tuple[int, int], field: FieldDescriptor
) -> MultilinearPoly:
    """A nonzero a*x_u + b*x_v + c supported on the given pair."""
    u, v = vars_pair
    while True:
        coeffs = {
            1 << (u - 1): random_scalar(rng, field),
            1 << (v - 1): random_scalar(rng, field),
            0: random_scalar(rng, field),
        }
        p = MultilinearPoly(n, field, coeffs)
        if not p.is_zero():
            return p


def product_sum(n: int, field: FieldDescriptor, terms) -> SparsePoly:
    """The sum of sign*a*b over (sign, a, b) in terms, formed on exponent
    tuples: no code is shared with the package's packed product."""
    out: Dict[Tuple[int, ...], object] = {}
    for sign, a, b in terms:
        for ma, ca in a.coeffs.items():
            for mb, cb in b.coeffs.items():
                exps = tuple((ma >> i & 1) + (mb >> i & 1) for i in range(n))
                out[exps] = out.get(exps, 0) + sign * ca * cb
    return SparsePoly(n, field, out)
