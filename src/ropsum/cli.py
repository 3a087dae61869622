"""Command-line surface.

Commands operate on two textual grammars:

* polynomial text -- terms joined by ``+``/``-``; a term is an optional
  scalar factor followed by distinct ``x<i>`` factors joined by ``*``
  (repeating a variable inside a term is a parse error, so inputs are
  multilinear by construction);
* formula s-expressions -- the read-once tree grammar of
  :func:`ropsum.rof.parse_rof`.

Scalars are exact: integers, ``p/q`` rationals, or ``k mod p``.  Decisions
are reported as JSON on stdout, never through the exit status; exit code 2
means a parse error and 3 a violated precondition.

Polynomial and formula arguments may be given inline or as a path to a
file holding the same text (the file wins if it exists).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional

from .decompose import generic, pair_monomials, sympoly4, symmetric_halves
from .errors import ParseError, PreconditionError
from .mpoly import MultilinearPoly, _check_var_count, commutator, format_poly, sparse_str
from .oracle import _check_kmax, closure_report, enumerate_rops, min_k, pack
from .recognize import family4_decide, is_rop, sum2_refute
from .rof import RopSum, evaluate, leaf_vars, parse_rof, print_rof, verify_against
from .scalars import QQ, FieldDescriptor, int_literal, parse_scalar, prime_field

_VAR_RE = re.compile(r"^x(\d+)$")


def parse_poly_text(text: str, field: FieldDescriptor) -> MultilinearPoly:
    """Parse polynomial text over x1..xn, n the highest variable used."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")

    # sign, term, sign, term, ...; a leading sign leaves an empty first term
    parts = ["+"] + re.split(r"([+-])", s)
    if not parts[1]:
        del parts[:2]

    terms: Dict[int, object] = {}
    max_var = 0
    for sign, chunk in zip(parts[::2], parts[1::2]):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty term in %r" % text)
        factors = [f.strip() for f in chunk.split("*")]
        if any(f == "" for f in factors):
            raise ParseError("empty factor in term %r" % chunk)
        coeff = field.elem(1 if sign == "+" else -1)
        mask = 0
        for idx, factor in enumerate(factors):
            m = _VAR_RE.match(factor)
            if m:
                var = int_literal(m.group(1))
                if var < 1:
                    raise ParseError("variable index must be >= 1 in %r" % factor)
                _check_var_count(var)  # before 1 << (var - 1) is built
                bit = 1 << (var - 1)
                if mask & bit:
                    raise ParseError("variable x%d repeats within term %r" % (var, chunk))
                mask |= bit
                max_var = max(max_var, var)
            elif idx == 0:
                coeff = coeff * parse_scalar(factor, field)
            else:
                raise ParseError(
                    "scalar %r must come first in term %r" % (factor, chunk)
                )
        prev = terms.get(mask)
        terms[mask] = coeff if prev is None else prev + coeff

    return MultilinearPoly(max(1, max_var), field, terms)


def _parse_field(spec: str) -> FieldDescriptor:
    if spec == "q":
        return QQ
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ParseError("bad field spec %r" % spec) from None
        return prime_field(p)
    raise ParseError("field must be 'q' or 'fp:<prime>', got %r" % spec)


def _read_arg(text: str) -> str:
    if os.path.exists(text) and os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("file %r is not UTF-8 text: %s" % (text, exc)) from None
    return text


def _parse_rofsum_text(text: str, field: FieldDescriptor, n: int) -> RopSum:
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            entries = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError("malformed JSON sum of formulas: %s" % exc) from None
        if not all(isinstance(e, str) for e in entries):
            raise ParseError("a JSON sum of formulas must be an array of strings")
    else:
        entries = [line for line in stripped.splitlines() if line.strip()]
    summands = tuple(parse_rof(entry, field) for entry in entries)
    high = max((max(leaf_vars(r)) for r in summands), default=0)
    return RopSum(field, max(n, high), summands)


def _scalars_csv(text: str, field: FieldDescriptor, count: int) -> List:
    parts = text.split(",")
    if len(parts) != count:
        raise ParseError("expected %d comma-separated scalars in %r" % (count, text))
    return [parse_scalar(p, field) for p in parts]


def _emit(obj) -> int:
    print(json.dumps(obj))
    return 0


def _cmd_parse(args, field) -> int:
    poly = parse_poly_text(_read_arg(args.poly), field)
    print(format_poly(poly))
    return 0


def _cmd_eval(args, field) -> int:
    rof = parse_rof(_read_arg(args.rof), field)
    print(format_poly(evaluate(rof)))
    return 0


def _cmd_diff(args, field) -> int:
    poly = parse_poly_text(_read_arg(args.poly), field)
    print(format_poly(poly.partial(args.var)))
    return 0


def _cmd_commutator(args, field) -> int:
    try:
        i_s, j_s = args.vars.split(",")
        i, j = int(i_s), int(j_s)
    except ValueError:
        raise ParseError("--vars needs two comma-separated indices") from None
    poly = parse_poly_text(_read_arg(args.poly), field)
    print(sparse_str(commutator(poly, i, j)))
    return 0


def _cmd_is_rop(args, field) -> int:
    poly = parse_poly_text(_read_arg(args.poly), field)
    witness = is_rop(poly)
    return _emit(
        {
            "is_rop": witness is not None,
            "witness": None if witness is None else print_rof(witness),
        }
    )


def _cmd_decompose(args, field) -> int:
    spec = args.strategy
    if spec == "pairing" or spec == "generic":
        if args.poly is None:
            raise ParseError("strategy %r needs a polynomial argument" % spec)
        poly = parse_poly_text(_read_arg(args.poly), field)
        result = pair_monomials(poly) if spec == "pairing" else generic(poly)
    elif spec.startswith("symmetric:"):
        parts = spec[len("symmetric:") :].split(",")
        if len(parts) != 3:
            raise ParseError("symmetric strategy needs n,alpha,beta")
        try:
            n = int(parts[0])
        except ValueError:
            raise ParseError("symmetric strategy needs an integer n") from None
        alpha = parse_scalar(parts[1], field)
        beta = parse_scalar(parts[2], field)
        result = symmetric_halves(n, alpha, beta, field)
    elif spec.startswith("sympoly4:"):
        coeffs = _scalars_csv(spec[len("sympoly4:") :], field, 5)
        result = sympoly4(*coeffs, field=field)
    else:
        raise ParseError(
            "strategy must be pairing | generic | symmetric:<n,a,b> | sympoly4:<a0..a4>"
        )
    # every strategy re-verifies internally before returning
    return _emit(
        {
            "rofs": [print_rof(r) for r in result.summands],
            "count": len(result.summands),
            "verified": True,
        }
    )


def _cmd_check2rop(args, field) -> int:
    a, b, c = _scalars_csv(args.family, field, 3)
    return _emit(family4_decide(a, b, c, field).to_json_dict())


def _cmd_refute2(args, field) -> int:
    poly = parse_poly_text(_read_arg(args.poly), field)
    if poly.n < 4:
        poly = poly.with_n(4)
    return _emit(sum2_refute(poly).to_json_dict())


def _cmd_oracle(args, field) -> int:
    if args.kmax is not None:  # before any enumeration
        _check_kmax(args.kmax)
        if args.min_k is None:
            raise ParseError("--kmax needs --min-k")
    target = None
    if args.min_k is not None:  # a bad target is refused before any enumeration
        target = parse_poly_text(_read_arg(args.min_k), field)
    cls = enumerate_rops(field.p, args.n)
    if target is not None:  # fitted to the class before packing p^(2^n) digits
        kmax = 3 if args.kmax is None else args.kmax
        return _emit({"min_k": min_k(pack(target.with_n(cls.n)), cls, kmax)})
    if args.closure_report:
        rep = closure_report(cls)
        return _emit(
            {
                "ok": rep.ok,
                "members": rep.members_checked,
                "derivative_violations": len(rep.derivative_violations),
                "restriction_violations": len(rep.restriction_violations),
            }
        )
    return _emit({"members": len(cls)})


def _cmd_verify(args, field) -> int:
    target = parse_poly_text(_read_arg(args.target), field)
    ropsum = _parse_rofsum_text(_read_arg(args.rofsum), field, target.n)
    return _emit({"equal": verify_against(ropsum, target)})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropsum",
        description="Exact read-once decompositions of multilinear polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument(
            "--field",
            default="q",
            help="'q' for rationals (default) or 'fp:<prime>'",
        )
        p.set_defaults(fn=fn)
        return p

    p = add("parse", _cmd_parse, help="canonicalize polynomial text")
    p.add_argument("poly")

    p = add("eval", _cmd_eval, help="evaluate a formula s-expression to a polynomial")
    p.add_argument("rof")

    p = add("diff", _cmd_diff, help="partial derivative")
    p.add_argument("--var", type=int, required=True)
    p.add_argument("poly")

    p = add("commutator", _cmd_commutator, help="pairwise commutator")
    p.add_argument("--vars", required=True, help="i,j")
    p.add_argument("poly")

    p = add("is-rop", _cmd_is_rop, help="read-once recognition with witness")
    p.add_argument("poly")

    p = add("decompose", _cmd_decompose, help="sum-of-read-once decomposition")
    p.add_argument(
        "--strategy",
        required=True,
        help="pairing | generic | symmetric:<n,a,b> | sympoly4:<a0,..,a4>",
    )
    p.add_argument("poly", nargs="?")

    p = add("check2rop", _cmd_check2rop, help="decide the weighted quadratic family")
    p.add_argument("--family", required=True, help="alpha,beta,gamma")

    p = add("refute2", _cmd_refute2, help="sum-of-2 structural decision, 4 variables")
    p.add_argument("poly")

    p = add("oracle", _cmd_oracle, help="exhaustive finite-field queries")
    p.add_argument("--n", type=int, required=True)
    query = p.add_mutually_exclusive_group()
    query.add_argument("--min-k", dest="min_k", default=None, help="target polynomial")
    query.add_argument("--closure-report", action="store_true")
    p.add_argument("--kmax", type=int, help="with --min-k; default 3")

    p = add("verify", _cmd_verify, help="check a sum of formulas against a target")
    p.add_argument("--target", required=True)
    p.add_argument("rofsum")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    field = None
    try:
        field = _parse_field(args.field)
        return args.fn(args, field)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
