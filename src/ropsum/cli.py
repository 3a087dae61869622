"""Command-line surface.

Commands operate on two textual grammars:

* polynomial text -- terms joined by ``+``/``-``; a term is an optional
  scalar factor followed by distinct ``x<i>`` factors joined by ``*``
  (repeating a variable inside a term is a parse error, so inputs are
  multilinear by construction);
* formula s-expressions -- the read-once tree grammar of
  :func:`ropsum.rof.parse_rof`.

Scalars are exact: integers, ``p/q`` rationals, or ``k mod p``.  Every
integer the program reads as text -- in a scalar, a variable index,
``--field fp:P``, ``--var``, ``--vars``, ``--n``, ``--kmax`` or the ``n`` of
``symmetric:n,a,b`` -- is read by :func:`ropsum.scalars.int_literal`, which
takes ASCII ``[+-]?[0-9]+`` and nothing else, and a malformed integer in an
option (``--field``, ``--var``, ``--vars``, ``--n``, ``--kmax`` or
``--strategy``) is refused under the option's name; comma lists
(``--vars``, ``--family``, ``symmetric:``, ``sympoly4:``) are split by one
rule that checks their length.  Wherever a grammar takes whitespace, it
takes ASCII whitespace alone, ``scalars._SPACE``.

Each command returns its answer, text or a JSON object, and :func:`main`
prints it.  Decisions are reported as JSON on stdout, never through the exit
status; exit code 2 means a parse error and 3 a violated precondition.

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
from .errors import ParseError, PreconditionError, PreconditionViolated
from .mpoly import MultilinearPoly, _check_var_count, commutator, format_poly, sparse_str
from .oracle import _check_kmax, closure_report, enumerate_rops, min_k, pack
from .recognize import family4_decide, is_rop, sum2_refute
from .rof import _VAR_RE, RopSum, evaluate, leaf_vars, parse_rof, print_rof, verify_against
from .scalars import _SPACE, QQ, FieldDescriptor, int_literal, parse_scalar, prime_field


def parse_poly_text(text: str, field: FieldDescriptor) -> MultilinearPoly:
    """Parse polynomial text over x1..xn, n the highest variable used."""
    s = text.strip(_SPACE)
    if not s:
        raise ParseError("empty polynomial text")

    # sign, term, sign, term, ...; a leading sign leaves an empty first term
    parts = ["+"] + re.split(r"([+-])", s)
    if not parts[1]:
        del parts[:2]

    terms: Dict[int, object] = {}
    max_var = 0
    for sign, chunk in zip(parts[::2], parts[1::2]):
        chunk = chunk.strip(_SPACE)
        if not chunk:
            raise ParseError("empty term in %r" % text)
        factors = [f.strip(_SPACE) for f in chunk.split("*")]
        if any(f == "" for f in factors):
            raise ParseError("empty factor in term %r" % chunk)
        coeff = field.elem(1 if sign == "+" else -1)
        mask = 0
        for idx, factor in enumerate(factors):
            m = _VAR_RE.fullmatch(factor)
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
        return prime_field(_option_int("field", spec[3:]))
    raise ParseError("field must be 'q' or 'fp:<prime>', got %r" % spec)


def _read_arg(text: str) -> str:
    if os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("file %r is not UTF-8 text: %s" % (text, exc)) from None
        except OSError as exc:
            raise ParseError("file %r cannot be read: %s" % (text, exc)) from None
    return text


def _parse_rofsum_text(text: str, field: FieldDescriptor, n: int) -> RopSum:
    stripped = text.strip(_SPACE)
    if stripped.startswith("["):
        try:
            entries = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError("malformed JSON sum of formulas: %s" % exc) from None
        if not all(isinstance(e, str) for e in entries):
            raise ParseError("a JSON sum of formulas must be an array of strings")
    else:
        # the ASCII line breaks of str.splitlines
        entries = [line for line in re.split("[\n\r\v\f]", stripped) if line.strip(_SPACE)]
    summands = tuple(parse_rof(entry, field) for entry in entries)
    high = max((max(leaf_vars(r)) for r in summands), default=0)
    return RopSum(field, max(n, high), summands)


def _option_int(name: str, text: str) -> int:
    """The integer ``text``, read inside option ``--name``: a malformed one
    is refused under the option's name."""
    try:
        return int_literal(text)
    except ParseError as exc:
        raise ParseError("argument --%s: %s" % (name, exc)) from None


def _csv(text: str, what: str, shape: str) -> List[str]:
    """``text`` split at its commas into the fields ``shape`` names."""
    parts = text.split(",")
    if len(parts) != shape.count(",") + 1:
        raise ParseError("%s needs %s, got %r" % (what, shape, text))
    return parts


def _cmd_parse(args, field) -> str:
    return format_poly(parse_poly_text(_read_arg(args.poly), field))


def _cmd_eval(args, field) -> str:
    return format_poly(evaluate(parse_rof(_read_arg(args.rof), field)))


def _cmd_diff(args, field) -> str:
    poly = parse_poly_text(_read_arg(args.poly), field)
    return format_poly(poly.partial(args.var))


def _cmd_commutator(args, field) -> str:
    i, j = (_option_int("vars", v) for v in _csv(args.vars, "--vars", "i,j"))
    poly = parse_poly_text(_read_arg(args.poly), field)
    return sparse_str(commutator(poly, i, j))


def _cmd_is_rop(args, field) -> dict:
    witness = is_rop(parse_poly_text(_read_arg(args.poly), field))
    return {
        "is_rop": witness is not None,
        "witness": None if witness is None else print_rof(witness),
    }


def _cmd_decompose(args, field) -> dict:
    spec = args.strategy
    if spec == "pairing" or spec == "generic":
        if args.poly is None:
            raise ParseError("strategy %r needs a polynomial argument" % spec)
        poly = parse_poly_text(_read_arg(args.poly), field)
        result = pair_monomials(poly) if spec == "pairing" else generic(poly)
    elif not spec.startswith(("symmetric:", "sympoly4:")):
        raise ParseError(
            "strategy must be pairing | generic | symmetric:<n,a,b> | sympoly4:<a0..a4>"
        )
    elif args.poly is not None:  # before it is read
        raise ParseError("strategy %r takes no polynomial argument" % spec)
    elif spec.startswith("symmetric:"):
        n, alpha, beta = _csv(spec[len("symmetric:") :], "symmetric strategy", "n,alpha,beta")
        result = symmetric_halves(
            _option_int("strategy", n), parse_scalar(alpha, field), parse_scalar(beta, field), field
        )
    else:
        coeffs = _csv(spec[len("sympoly4:") :], "sympoly4 strategy", "a0,a1,a2,a3,a4")
        result = sympoly4(*(parse_scalar(c, field) for c in coeffs), field=field)
    # every strategy re-verifies internally before returning
    return {
        "rofs": [print_rof(r) for r in result.summands],
        "count": len(result.summands),
        "verified": True,
    }


def _cmd_check2rop(args, field) -> dict:
    family = _csv(args.family, "--family", "alpha,beta,gamma")
    a, b, c = (parse_scalar(w, field) for w in family)
    return family4_decide(a, b, c, field).to_json_dict()


def _cmd_refute2(args, field) -> dict:
    poly = parse_poly_text(_read_arg(args.poly), field)
    if poly.n < 4:
        poly = poly.with_n(4)
    return sum2_refute(poly).to_json_dict()


def _cmd_oracle(args, field) -> dict:
    if field.kind != "prime":  # before the target is parsed in that field
        raise PreconditionViolated("the oracle needs a prime field, --field fp:<p>")
    if args.kmax is not None:  # before any enumeration
        _check_kmax(args.kmax)
        if args.min_k is None:
            raise ParseError("--kmax needs --min-k")
    target = None
    if args.min_k is not None:  # a bad target is refused before any enumeration
        target = parse_poly_text(_read_arg(args.min_k), field)
    cls = enumerate_rops(field.p, args.n)
    if target is not None:  # fitted to the class before packing p^(2^n) digits
        bound = {} if args.kmax is None else {"kmax": args.kmax}
        return {"min_k": min_k(pack(target.with_n(cls.n)), cls, **bound)}
    if args.closure_report:
        rep = closure_report(cls)
        return {
            "ok": rep.ok,
            "members": rep.members_checked,
            "derivative_violations": len(rep.derivative_violations),
            "restriction_violations": len(rep.restriction_violations),
        }
    return {"members": len(cls)}


def _cmd_verify(args, field) -> dict:
    target = parse_poly_text(_read_arg(args.target), field)
    ropsum = _parse_rofsum_text(_read_arg(args.rofsum), field, target.n)
    return {"equal": verify_against(ropsum, target)}


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
    p.add_argument("--var", required=True)
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

    p = add("refute2", _cmd_refute2, help="sum-of-2 decision, 4 variables; certified on the weighted family")
    p.add_argument("poly")

    p = add("oracle", _cmd_oracle, help="exhaustive finite-field queries")
    p.add_argument("--n", required=True)
    query = p.add_mutually_exclusive_group()
    query.add_argument("--min-k", dest="min_k", default=None, help="target polynomial")
    query.add_argument("--closure-report", action="store_true")
    p.add_argument("--kmax", help="with --min-k; default 3")

    p = add("verify", _cmd_verify, help="check a sum of formulas against a target")
    p.add_argument("--target", required=True)
    p.add_argument("rofsum")

    return parser


# the integer options, read before --field, so that a malformed one exits 2
# whatever the field
_INT_OPTIONS = ("var", "n", "kmax")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        for name in _INT_OPTIONS:
            text = getattr(args, name, None)
            if text is not None:
                setattr(args, name, _option_int(name, text))
        answer = args.fn(args, _parse_field(args.field))
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    print(answer if isinstance(answer, str) else json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
