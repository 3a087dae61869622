"""The four workloads: seeded inputs, calls into the package, and checks.

A workload hands out *rounds*: fixed lists of operations whose mix is the
same in every round and whose inputs are drawn from the round's random
generator.  The loop in ``run.py`` times each operation alone and stops
only between rounds, so every run measures the same mix.  Inputs, including
the ``MultilinearPoly`` objects handed to the package, are built when the
round is made, outside the timed calls.  Every answer is checked against
``reference``, which does not use the package, after the timed call.

Operations reach the package through module attributes looked up at call
time (``recognize.is_rop``, ``cli.main``), so the wrappers that the traced
run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import reference as ref
from ropsum import cli, decompose, mpoly, oracle, recognize, rof, scalars


class Op:
    """One call into the package and the check of its answer.

    ``check`` returns None for a correct answer, otherwise what was wrong.
    """

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def field_of(p):
    return scalars.QQ if p == 0 else scalars.prime_field(p)


def package_poly(poly, n, p):
    field = field_of(p)
    return mpoly.MultilinearPoly(n, field, {m: field.elem(c) for m, c in poly.items()})


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def planted_rop(rng, variables, p, terms):
    """The polynomial of a random read-once formula over exactly ``variables``
    whose monomial count lies in the range ``terms``.  Recognition cost
    follows the monomial count, so fixing its range keeps the cost of one
    input within a narrow band."""
    while True:
        poly = ref.expand(ref.random_tree(rng, shuffled(rng, variables), p), p)
        if len(poly) in terms:
            return poly


def certified_non_rop(rng, n, p, form):
    """A planted ROP on x1..x(n-3) times (``form == "mul"``) or plus S_3^2 on
    the last three variables.  Restricting x1..x(n-3) to a point where the
    ROP is a nonzero constant c leaves c*S_3^2 or c + S_3^2, which no
    read-once formula computes; read-once polynomials are closed under
    restriction, so neither is the whole."""
    s3 = {(1 << (n - 3)) | (1 << (n - 2)): 1, (1 << (n - 3)) | (1 << (n - 1)): 1,
          (1 << (n - 2)) | (1 << (n - 1)): 1}
    s3 = {m: ref.norm(c, p) for m, c in s3.items()}
    rop = planted_rop(rng, list(range(1, n - 2)), p, range(n - 3, n - 1))
    return ref.poly_mul_disjoint(rop, s3, p) if form == "mul" else ref.poly_add(rop, s3, p)


def random_point(rng, n, p):
    return {i: (Fraction(rng.randint(-20, 20)) if p == 0 else rng.randrange(p))
            for i in range(1, n + 1)}


def symmetric_target(n, a, b, p):
    """a*S_n^n + b*S_n^(n-1), the target of symmetric_halves."""
    return ref.poly_add(
        ref.poly_scale({m: 1 for m in ref.elementary_symmetric(n, n)}, a, p),
        ref.poly_scale({m: 1 for m in ref.elementary_symmetric(n, n - 1)}, b, p), p)


def sympoly4_target(coeffs, p):
    """sum_k coeffs[k] * S_4^k, the target of sympoly4."""
    target = {}
    for k, c in enumerate(coeffs):
        target = ref.poly_add(
            target, ref.poly_scale({m: 1 for m in ref.elementary_symmetric(4, k)}, c, p), p)
    return target


def check_rop_sum(summands, target, n, p, bound, points):
    """Summand count within ``bound``, every summand valid, and the sum equal
    to the target at the given points by the reference tree walker."""
    if len(summands) > bound:
        return "%d summands, bound %d" % (len(summands), bound)
    trees = []
    for s in summands:
        if isinstance(s, str):
            tree = ref.parse_tree(s, p)
            if not ref.is_read_once(tree) or max(ref.leaves(tree)) > n:
                return "summand is not read-once on x1..x%d" % n
        else:
            if rof.validate(s):
                return "summand fails rof.validate"
            tree = ref.from_package(s)
        trees.append(tree)
    for point in points:
        total = sum((ref.tree_at(t, point, p) for t in trees), ref.norm(0, p))
        if ref.norm(total, p) != ref.poly_at(target, point, p):
            return "sum differs from the target at %s" % point
    return None


class Workload:
    name = ""
    trace_rounds = 1
    state = None  # what ``prepare`` returned, set by the caller

    def prepare(self):
        """Precomputation the operations need, returned; timed as part of
        ``setup_s``."""
        return None

    def prepare_checks(self):
        """The benchmark's own reference data; not timed."""

    def round(self, rng, warm=False):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class RecognizeMix(Workload):
    """``is_rop`` on an F_2 n=4 sample, planted ROPs and certified non-ROPs."""

    name = "recognize-mix"
    trace_rounds = 4
    FIELDS = (0, 2, 3, 101)
    SIZES = range(6, 11)
    # Most operations are F_2 n=4 samples, so the median sits inside them.
    F2N4_PER_ROUND = 100

    def prepare_checks(self):
        # For p = 2 the packed encoding of a polynomial is its monomial bitmask.
        self.f2n4_class = frozenset(oracle.enumerate_rops(2, 4).members)

    def _op(self, kind, poly, n, p, expected):
        target = package_poly(poly, n, p)

        def check(witness):
            if (witness is not None) != expected:
                return "answered %s, expected %s" % (witness is not None, expected)
            if witness is not None and ref.expand(ref.from_package(witness), p) != poly:
                return "witness does not evaluate to the input"
            return None

        return Op(kind, lambda: recognize.is_rop(target), check)

    def round(self, rng, warm=False):
        ops = []
        for _ in range(self.F2N4_PER_ROUND):
            bits = rng.getrandbits(16)
            poly = {m: 1 for m in range(16) if bits >> m & 1}
            ops.append(self._op("f2n4", poly, 4, 2, bits in self.f2n4_class))
        for p in self.FIELDS:
            for n in self.SIZES:
                rop = planted_rop(rng, list(range(1, n + 1)), p, range(n, 2 * n + 1))
                ops.append(self._op("planted", rop, n, p, True))
                for form in ("mul", "add"):
                    ops.append(self._op("non-rop-" + form, certified_non_rop(rng, n, p, form),
                                        n, p, False))
        return shuffled(rng, ops)


# ---------------------------------------------------------------------------


def generic_bound(n):
    return {1: 1, 2: 1, 3: 2, 4: 3}.get(n, 3 * 2 ** max(n - 4, 0))


class DecomposeVerify(Workload):
    """The four constructions on seeded polynomials, each re-verified inside
    the package."""

    name = "decompose-verify"
    trace_rounds = 1
    # Every round has the same cells: each (size, density, strategy) with a
    # fixed field, and the light calls cycling through fields and sizes, so
    # that rounds differ only in their coefficients.
    FIELDS = (0, 3, 10007, 2147483647)
    SIZES = range(6, 13)
    WARM_SIZES = range(6, 9)
    DENSITIES = (0.2, 0.9)
    # Dense cells stop at this size.  A dense call at n=12 takes up to 2 s;
    # four of them made most of a round, so that a run's throughput rested on
    # about a dozen calls and moved with the machine's speed during each.
    DENSE_MAX = 10
    # symmetric_halves on 2..10 variables and sympoly4, about 1 ms each, are
    # most of a round's operations; the median falls among them.  Their
    # number also places p90 among the heavy calls: with 88 of 112, p90 lies
    # on a run of calls of about the same cost, where with 72 of 96 it lay on
    # a step between two sizes and moved by a fifth with a few calls' speed.
    LIGHT_PER_ROUND = 44
    POINTS = 3

    def _sum_op(self, kind, call, target, n, p, bound, rng):
        points = [random_point(rng, n, p) for _ in range(self.POINTS)]
        return Op(kind, call,
                  lambda out: check_rop_sum(out.summands, target, n, p, bound, points))

    def round(self, rng, warm=False):
        ops = []
        cell = 0
        for n in (self.WARM_SIZES if warm else self.SIZES):
            for density in self.DENSITIES:
                if density > 0.5 and n > self.DENSE_MAX:
                    continue
                for kind in ("generic", "pair_monomials"):
                    p = self.FIELDS[cell % len(self.FIELDS)]
                    cell += 1
                    poly = {}
                    while not poly:
                        poly = ref.random_poly(rng, n, p, density)
                    target = package_poly(poly, n, p)
                    if kind == "generic":
                        call, bound = (lambda t=target: decompose.generic(t)), generic_bound(n)
                    else:
                        call = lambda t=target: decompose.pair_monomials(t)
                        bound = (len(poly) + 1) // 2
                    ops.append(self._sum_op(kind, call, poly, n, p, bound, rng))
        for k in range(self.LIGHT_PER_ROUND):
            p = self.FIELDS[k % len(self.FIELDS)]
            field = field_of(p)
            n = 2 + k % 9
            a, b = ref.random_scalar(rng, p, False), ref.random_scalar(rng, p, True)
            fa, fb = field.elem(a), field.elem(b)
            ops.append(self._sum_op(
                "symmetric_halves",
                lambda n=n, fa=fa, fb=fb, field=field: decompose.symmetric_halves(n, fa, fb, field),
                symmetric_target(n, a, b, p), n, p, (n + 1) // 2, rng))

            coeffs = [ref.random_scalar(rng, p, False) for _ in range(5)]
            fcs = [field.elem(c) for c in coeffs]
            ops.append(self._sum_op(
                "sympoly4", lambda fcs=fcs, field=field: decompose.sympoly4(*fcs, field=field),
                sympoly4_target(coeffs, p), 4, p, 2, rng))
        return shuffled(rng, ops)


# ---------------------------------------------------------------------------


class OracleSumset(Workload):
    """``min_k`` sumset queries against enumerated classes."""

    name = "oracle-sumset"
    trace_rounds = 4
    # (kind, p, n, kmax, queries per round).  The steady F_2 n=5 full scans
    # are two thirds of the operations and most of the time, so the median
    # and p90 fall among them; the planted queries, whose cost varies widely
    # between inputs, are held to about a fifth of the time, or throughput
    # would follow the seed more than the code.
    QUERIES = (
        ("planted-f2n5-k3", 2, 5, 3, 6),
        ("f2n5-k2", 2, 5, 2, 130),
        ("planted-f3n4-k2", 3, 4, 2, 1),
        ("f2n4-k3", 2, 4, 3, 60),
    )
    # A planted F_2 n=5 target's first member comes from the PLANTED_LEAD
    # smallest encodings.  The k=3 scan stops at the first candidate that
    # completes a 2-sum, so one query costs at most PLANTED_LEAD + 1 full
    # scans; with a uniform first member one query takes up to 18 s, which a
    # closed loop of 100 operations per run cannot hold.  Planted F_3 n=4
    # targets are sums of two uniform members: every query is positive and
    # stops at its first hit.  Uniform F_3 n=4 targets include full-scan
    # negatives (0.5 s, one query in 14), which made throughput follow the
    # seed rather than the code.
    PLANTED_LEAD = 8

    def prepare(self):
        return {(p, n): oracle.enumerate_rops(p, n) for p, n in ((2, 4), (2, 5), (3, 4))}

    def prepare_checks(self):
        self.member_sets = {key: frozenset(c.members) for key, c in self.state.items()}

    def round(self, rng, warm=False):
        ops = []
        for kind, p, n, kmax, count in self.QUERIES:
            cls = self.state[(p, n)]
            members = cls.members
            for _ in range(count):
                if kind == "planted-f2n5-k3":
                    planted = [members[rng.randrange(self.PLANTED_LEAD)],
                               rng.choice(members), rng.choice(members)]
                elif kind == "planted-f3n4-k2":
                    planted = [rng.choice(members), rng.choice(members)]
                else:
                    ops.append(self._op(kind, rng.randrange(p ** (1 << n)), cls, kmax, None))
                    continue
                value = 0
                for digit in range(1 << n):
                    place = p ** digit
                    value += sum(m // place % p for m in planted) % p * place
                ops.append(self._op(kind, value, cls, kmax, len(planted)))
        return shuffled(rng, ops)

    def _op(self, kind, value, cls, kmax, planted):
        """A query for the packed ``value``; ``planted`` is the number of class
        members summed to make it, or None for a random target."""
        p, n = cls.p, cls.n
        digits = {}
        v, mask = value, 0
        while v:
            v, digit = divmod(v, p)
            if digit:
                digits[mask] = digit
            mask += 1
        target = package_poly(digits, n, p)
        in_class = value in self.member_sets[(p, n)]

        def check(answer):
            if (answer == 1) != in_class:
                return "answer %s disagrees with class membership" % answer
            if answer is None:
                return None if planted is None else "no answer for a sum of %d members" % planted
            if not 1 <= answer <= (kmax if planted is None else planted):
                return "answer %d out of range" % answer
            return None

        return Op(kind, lambda: oracle.min_k(oracle.pack(target), cls, kmax), check)


# ---------------------------------------------------------------------------


def _largest_prime_below(bound):
    q = bound - 1
    while not scalars.is_prime(q):
        q -= 1
    return q


class CliSmall(Workload):
    """In-process ``ropsum.cli.main`` on small commands over five variables
    or fewer."""

    name = "cli-small"
    trace_rounds = 10
    SMALL_PRIMES = (5, 7, 101)
    # check2rop over primes spread from 2^3 to 2^20 in half-bit steps, one of
    # each per round.  sqrt_in_field searches linearly, so the nine primes
    # from 2^16 up cost 1 to 30 ms and make up the top fifth of the
    # operations; p90 falls in their middle.
    FAMILY_PRIMES = tuple(sorted({_largest_prime_below(int(2 ** (k / 2))) for k in range(6, 41)}))

    def _op(self, kind, argv, check):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def checked(result):
            code, out, err = result
            if code != 0:
                return "exit %s: %s" % (code, err.strip())
            return check(out)

        return Op(kind, call, checked)

    @staticmethod
    def _spec(p):
        return "q" if p == 0 else "fp:%d" % p

    def _poly(self, rng, p, n):
        """A random nonzero polynomial that uses x_n."""
        poly = {}
        while not any(m >> (n - 1) & 1 for m in poly):
            poly = ref.random_poly(rng, n, p, 0.5)
        return poly

    def round(self, rng, warm=False):
        ops = []
        p = rng.choice((0,) + self.SMALL_PRIMES)
        spec = self._spec(p)
        n = rng.randint(2, 5)
        poly = self._poly(rng, p, n)
        text = ref.format_poly(poly, p, rng)
        mono = ref.monomials(poly)
        ops.append(self._op("parse", ["parse", "--field", spec, text],
                            lambda out: None if ref.parse_poly(out, p) == mono else "wrong polynomial"))

        i = rng.randint(1, n)
        want = ref.monomials(ref.partial(poly, i))
        ops.append(self._op("diff", ["diff", "--field", spec, "--var", str(i), text],
                            lambda out: None if ref.parse_poly(out, p) == want else "wrong derivative"))

        i, j = rng.sample(range(1, n + 1), 2)
        comm = ref.commutator(poly, i, j, p)
        ops.append(self._op("commutator",
                            ["commutator", "--field", spec, "--vars", "%d,%d" % (i, j), text],
                            lambda out: None if ref.parse_poly(out, p) == comm else "wrong commutator"))

        tree = ref.random_tree(rng, rng.sample(range(1, 6), rng.randint(1, 5)), p)
        value = ref.monomials(ref.expand(tree, p))
        ops.append(self._op("eval", ["eval", "--field", spec, ref.format_tree(tree)],
                            lambda out: None if ref.parse_poly(out, p) == value else "wrong value"))

        n = rng.randint(4, 5)
        for expected in (True, False):
            if expected:
                target = planted_rop(rng, list(range(1, n + 1)), p, range(n, 2 * n + 1))
            else:
                target = certified_non_rop(rng, n, p, rng.choice(("mul", "add")))
            ops.append(self._op("is-rop", ["is-rop", "--field", spec, ref.format_poly(target, p, rng)],
                                self._is_rop_check(target, p, expected)))

        ops.append(self._refute2(rng))
        ops.extend(self._decompose(rng))
        ops.extend(self._verify(rng, p))

        for q in (0,) + self.FAMILY_PRIMES:
            abc = [ref.random_scalar(rng, q, True) for _ in range(3)]
            if q == 0:
                abc = [c * rng.randint(1, 3) for c in abc]
            argv = ["check2rop", "--field", self._spec(q),
                    "--family=" + ",".join(str(c) for c in abc)]
            ops.append(self._op("check2rop", argv, self._family_check(abc, q)))
        return shuffled(rng, ops)

    @staticmethod
    def _is_rop_check(target, p, expected):
        def check(out):
            answer = json.loads(out)
            if answer["is_rop"] != expected:
                return "answered %s, expected %s" % (answer["is_rop"], expected)
            if expected and ref.expand(ref.parse_tree(answer["witness"], p), p) != target:
                return "witness does not evaluate to the input"
            return None

        return check

    @staticmethod
    def _family_check(abc, p):
        """Outcome against the closed-form decision; witness or discriminants
        checked by the reference arithmetic."""
        a, b, c = abc

        def check(out):
            answer = json.loads(out)
            expressible = ref.family_expressible(a, b, c, p)
            if answer["outcome"] != ("expressible" if expressible else "not_expressible"):
                return "outcome %s" % answer["outcome"]
            if expressible:
                target = ref.family_poly(a, b, c, p)
                points = [random_point(random.Random(k), 4, p) for k in range(3)]
                return check_rop_sum(answer["witness"], target, 4, p, 2, points)
            ds = [ref.parse_scalar(d, p) for d in answer["d"]]
            if ds != list(ref.family_discriminants(a, b, c, p)):
                return "wrong discriminants"
            if any(ref.is_square(d, p) for d in ds):
                return "a discriminant is a square"
            return None

        return check

    def _refute2(self, rng):
        if rng.random() < 0.5:
            abc = [ref.random_scalar(rng, 0, True) * rng.randint(1, 3) for _ in range(3)]
            poly = ref.family_poly(*abc, 0)
            family = self._family_check(abc, 0)
            check = family
        else:
            poly = self._poly(rng, 0, 4)

            def check(out):
                outcome = json.loads(out)["outcome"]
                return None if outcome == "inconclusive" else "outcome %s outside the family" % outcome

        return self._op("refute2", ["refute2", ref.format_poly(poly, 0, rng)], check)

    def _decompose(self, rng):
        ops = []
        p = rng.choice((0,) + self.SMALL_PRIMES)
        coeffs = [ref.random_scalar(rng, p, False) for _ in range(5)]
        ops.append(self._decompose_op(rng, p, "sympoly4:" + ",".join(map(str, coeffs)),
                                      sympoly4_target(coeffs, p), 4, 2))

        n = rng.randint(2, 5)
        a, b = ref.random_scalar(rng, p, False), ref.random_scalar(rng, p, True)
        ops.append(self._decompose_op(rng, p, "symmetric:%d,%s,%s" % (n, a, b),
                                      symmetric_target(n, a, b, p), n, (n + 1) // 2))
        return ops

    def _decompose_op(self, rng, p, strategy, target, n, bound):
        points = [random_point(rng, n, p) for _ in range(3)]

        def check(out):
            answer = json.loads(out)
            if answer["count"] != len(answer["rofs"]) or not answer["verified"]:
                return "inconsistent answer"
            return check_rop_sum(answer["rofs"], target, n, p, bound, points)

        return self._op("decompose", ["decompose", "--field", self._spec(p), "--strategy", strategy],
                        check)

    def _verify(self, rng, p):
        ops = []
        for equal in (True, False):
            trees = [ref.random_tree(rng, rng.sample(range(1, 6), rng.randint(1, 5)), p)
                     for _ in range(rng.randint(2, 3))]
            target = {}
            for t in trees:
                target = ref.poly_add(target, ref.expand(t, p), p)
            if not equal:
                target = ref.poly_add(target, {0: ref.norm(1, p)}, p)
            argv = ["verify", "--field", self._spec(p), "--target", ref.format_poly(target, p, rng),
                    json.dumps([ref.format_tree(t) for t in trees])]
            ops.append(self._op("verify", argv,
                                lambda out, equal=equal: None if json.loads(out)["equal"] == equal
                                else "wrong equality"))
        return ops


WORKLOADS = {w.name: w for w in (RecognizeMix, DecomposeVerify, OracleSumset, CliSmall)}
