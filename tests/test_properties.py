"""Property tests: both text grammars round-trip, and the CLI maps every
input to exit code 0, 2 or 3 without letting an exception escape."""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ropsum import QQ, MultilinearPoly, prime_field
from ropsum.cli import main, parse_poly_text
from ropsum.mpoly import format_poly
from ropsum.rof import ADD, MUL, Gate, Leaf, parse_rof, print_rof

FIELDS = [QQ, prime_field(2), prime_field(3), prime_field(7), prime_field(2147483647)]
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None)


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**3))
    return st.integers(0, field.p - 1)


@st.composite
def polys(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 8))
    masks = st.integers(0, (1 << n) - 1)
    coeffs = draw(st.dictionaries(masks, scalars(field), max_size=12))
    return MultilinearPoly(n, field, coeffs)


@st.composite
def formulas(draw):
    field = draw(st.sampled_from(FIELDS))
    pair = st.lists(scalars(field).map(field.elem), min_size=2, max_size=2)
    variables = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
    nodes = [Leaf(v, *draw(pair)) for v in variables]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        op = draw(st.sampled_from([ADD, MUL]))
        nodes[i : i + 2] = [Gate(op, *draw(pair), nodes[i], nodes[i + 1])]
    return field, nodes[0]


@DERANDOMIZED
@given(polys())
def test_poly_text_round_trip(p):
    assert parse_poly_text(format_poly(p), p.field).with_n(p.n) == p


@DERANDOMIZED
@given(formulas())
def test_formula_text_round_trip(field_and_tree):
    field, tree = field_and_tree
    assert parse_rof(print_rof(tree), field) == tree


# -- CLI fuzz ----------------------------------------------------------------

TOKENS = [
    "x1", "x2", "x3", "x4", "x0", "x30", "x31", "x3199999999999", "x", "*", "+", "-",
    "/", " ", "0", "1", "2", "3", "7", "3/4", "1/0", "mod", "(", ")", "leaf", "add",
    "mul", "(1 0)", "[", "]", '"', ",",
]
text = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
term = st.tuples(
    st.sampled_from(["", "2", "3/4", "0", "3 mod 7"]),
    st.lists(st.sampled_from(["x1", "x2", "x3", "x4", "x5"]), max_size=3, unique=True),
).map(lambda t: "*".join(([t[0]] if t[0] else []) + t[1]) or "1")
valid_poly = st.lists(term, min_size=1, max_size=4).flatmap(
    lambda ts: st.sampled_from([" + ", " - "]).map(lambda sep: sep.join(ts))
)
bad_term = st.sampled_from(["x0", "x31", "x3199999999999", "x1*x1", "1/0", "x", "x1*2"])
poly_text = st.one_of(
    valid_poly, valid_poly, text, st.tuples(valid_poly, bad_term).map(" + ".join)
)
rof_text = st.sampled_from(
    [
        "(leaf (1 0) x1)",
        "(mul (1 0) (leaf (2 3) x1) (leaf (1 0) x2))",
        "(add (1 1) (leaf (1 0) x3) (mul (1 0) (leaf (1 0) x1) (leaf (1 0) x2)))",
        "(leaf (1 0) x1) (leaf (1 0) x2)",
    ]
) | text
field_flag = st.sampled_from(["q", "q", "fp:2", "fp:3", "fp:7", "fp:7", "fp:4", "z"])
small_int = st.integers(-2, 12).map(str)
scalar_text = st.sampled_from(["0", "1", "2", "5", "-3", "3/4", "2 mod 7", "1/0", "a"])


def command(name, *parts):
    return st.tuples(field_flag, *parts).map(
        lambda t: [name, "--field", t[0]] + [a for part in t[1:] for a in part]
    )


def one(s):
    return s.map(lambda v: [v])


argvs = st.one_of(
    command("parse", one(poly_text)),
    command("eval", one(rof_text)),
    command("diff", st.tuples(st.just("--var"), small_int).map(list), one(poly_text)),
    command(
        "commutator",
        st.tuples(
            st.just("--vars"), st.sampled_from(["1,2", "2,3", "1,1", "1", "0,5", "a,b"])
        ).map(list),
        one(poly_text),
    ),
    command("is-rop", one(poly_text)),
    command(
        "decompose",
        st.tuples(
            st.just("--strategy"),
            st.sampled_from(["pairing", "generic", "other"])
            | st.tuples(small_int, scalar_text, scalar_text).map(
                lambda t: "symmetric:" + ",".join(t)
            )
            | st.lists(scalar_text, min_size=4, max_size=6).map(
                lambda cs: "sympoly4:" + ",".join(cs)
            )
            | text,
        ).map(list),
        st.lists(poly_text, max_size=1),
    ),
    command(
        "check2rop",
        st.tuples(
            st.just("--family"),
            st.lists(scalar_text, min_size=3, max_size=3).map(",".join) | text,
        ).map(list),
    ),
    command("refute2", one(poly_text)),
    # only F_2 with n <= 3 is enumerated, so each call is quick; the
    # other fields and n are refused before any enumeration
    command(
        "oracle",
        st.tuples(
            st.just("--field"),
            st.sampled_from(["fp:2", "fp:4", "q"]),
            st.just("--n"),
            st.sampled_from(["-1", "0", "1", "2", "3", "9"]),
            st.just("--kmax"),
            st.sampled_from(["0", "1", "2", "3"]),
        ).map(list),
        st.lists(st.tuples(st.just("--min-k"), poly_text).map(list), max_size=1).map(
            lambda opt: opt[0] if opt else []
        ),
        st.sampled_from([[], ["--closure-report"]]),
    ),
    command("verify", st.tuples(st.just("--target"), poly_text).map(list), one(rof_text)),
    st.lists(text, max_size=3),
)


@settings(DERANDOMIZED, max_examples=800)
@given(argvs)
def test_cli_exit_codes(argv):
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        code = main(argv)
    assert code in (0, 2, 3)
