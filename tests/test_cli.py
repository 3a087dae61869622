import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ropsum import QQ, MultilinearPoly, cli, prime_field
from ropsum.cli import main, parse_poly_text
from ropsum.errors import ParseError
from ropsum.mpoly import elementary_symmetric, format_poly
from ropsum.rof import parse_rof

from helpers import random_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


# -- the polynomial grammar ----------------------------------------------------


def test_parse_poly_basic():
    p = parse_poly_text("2*x1*x2 + 3/4*x3 - x4 + 5", QQ)
    assert p.n == 4
    assert p.coeff(0b0011) == 2
    assert p.coeff(0b0100).value.numerator == 3
    assert p.coeff(0b1000) == -1
    assert p.coeff(0) == 5


def test_parse_poly_mod_scalars():
    F7 = prime_field(7)
    p = parse_poly_text("3 mod 7 * x1 + 6", F7)
    assert p.coeff(0b1) == 3 and p.coeff(0) == 6


def test_parse_poly_accumulates_duplicates():
    p = parse_poly_text("x1 + x1", QQ)
    assert p.coeff(0b1) == 2


def test_parse_poly_rejects_repeated_variable_in_term():
    with pytest.raises(ParseError):
        parse_poly_text("x1*x1", QQ)


def test_parse_poly_rejects_trailing_scalar():
    for bad in ("x1*3", "5*"):
        with pytest.raises(ParseError):
            parse_poly_text(bad, QQ)


def test_parse_poly_round_trip_random():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 6)
        p = random_poly(rng, n, QQ, density=0.5)
        if p.is_zero():
            continue
        assert parse_poly_text(format_poly(p), QQ) == p.with_n(p.var_mask().bit_length() or 1)


def test_zero_polynomial_round_trip():
    assert parse_poly_text("0", QQ).is_zero()


# -- commands -------------------------------------------------------------------


def test_cmd_parse(capsys):
    code, out, _ = run(capsys, "parse", "x2 + x1 + 0*x3")
    assert code == 0 and out == "x1 + x2"


def test_cmd_eval_round_trip(capsys):
    code, out, _ = run(capsys, "eval", "(mul (2 1) (leaf (1 0) x1) (leaf (1 -1) x2))")
    assert code == 0 and out == "1 - 2*x1 + 2*x1*x2"


def test_cmd_diff(capsys):
    code, out, _ = run(
        capsys, "diff", "--var", "1", "2*x1*x2 + 4*x1*x3 + 5*x1*x4 + 2*x3*x4"
    )
    assert code == 0 and out == "2*x2 + 4*x3 + 5*x4"


def test_cmd_commutator(capsys):
    code, out, _ = run(
        capsys,
        "commutator",
        "--vars",
        "1,2",
        "x1*x2 + x3*x4 + 2*x1*x3 + 2*x2*x4 + 2*x1*x4 + 2*x2*x3",
    )
    assert code == 0 and out == "-4*x3*x3 - 7*x3*x4 - 4*x4*x4"


def test_cmd_commutator_refuses_equal_variables(capsys):
    code, out, err = run(capsys, "commutator", "--vars", "2,2", "x1*x2")
    assert (code, out) == (3, "")
    assert err == "precondition violated: commutator needs two distinct variables"


def test_cmd_is_rop(capsys):
    code, out, _ = run(capsys, "is-rop", "x1*x2 + x2*x3 + x1*x3")
    assert code == 0 and json.loads(out) == {"is_rop": False, "witness": None}
    code, out, _ = run(capsys, "is-rop", "x1*x2 + 5")
    payload = json.loads(out)
    assert payload["is_rop"] is True
    assert parse_rof(payload["witness"], QQ) is not None


def test_cmd_check2rop(capsys):
    code, out, _ = run(capsys, "check2rop", "--family", "2,4,5")
    payload = json.loads(out)
    assert code == 0
    assert payload["outcome"] == "not_expressible"
    assert payload["d"] == ["-231", "-231", "-231"]


def test_cmd_decompose_symmetric(capsys):
    code, out, _ = run(capsys, "decompose", "--strategy", "symmetric:5,0,1")
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True and payload["count"] == 3


def test_cmd_decompose_pairing_and_verify(capsys, tmp_path):
    poly = "2*x1*x2*x3 + x2*x3*x4 - x4 + 7"
    code, out, _ = run(capsys, "decompose", "--strategy", "pairing", poly)
    payload = json.loads(out)
    assert code == 0 and payload["verified"]
    rofsum_file = tmp_path / "sum.rofs"
    rofsum_file.write_text("\n".join(payload["rofs"]))
    code, out, _ = run(capsys, "verify", "--target", poly, str(rofsum_file))
    assert code == 0 and json.loads(out) == {"equal": True}


@pytest.mark.parametrize("spec", ["q", "fp:5"])
def test_cmd_decompose_sympoly4_and_verify(capsys, spec):
    field = QQ if spec == "q" else prime_field(5)
    # one coefficient row for each of the four cases of the table
    for coeffs in [(2, 3, 0, 0, 4), (0, 1, 0, 1, 0), (1, 1, 1, 1, 1), (1, 2, 3, 4, 1)]:
        target = MultilinearPoly.zero(4, field)
        for k, c in enumerate(coeffs):
            target = target + elementary_symmetric(4, k, field).scale(c)
        strategy = "sympoly4:" + ",".join(map(str, coeffs))
        code, out, _ = run(capsys, "decompose", "--field", spec, "--strategy", strategy)
        payload = json.loads(out)
        assert code == 0 and payload["verified"] and payload["count"] <= 2
        code, out, _ = run(
            capsys, "verify", "--field", spec, "--target=" + format_poly(target),
            json.dumps(payload["rofs"]),
        )
        assert code == 0 and json.loads(out) == {"equal": True}
    code, out, err = run(
        capsys, "decompose", "--field", "fp:2", "--strategy", "sympoly4:1,1,1,1,1"
    )
    assert code == 3 and out == "" and "precondition" in err


def test_cmd_verify_json_list_and_mismatch(capsys, tmp_path):
    rofsum_file = tmp_path / "sum.json"
    rofsum_file.write_text(json.dumps(["(leaf (1 0) x1)"]))
    code, out, _ = run(capsys, "verify", "--target", "x1", str(rofsum_file))
    assert code == 0 and json.loads(out) == {"equal": True}
    code, out, _ = run(capsys, "verify", "--target", "x1 + 1", str(rofsum_file))
    assert code == 0 and json.loads(out) == {"equal": False}


def test_cmd_refute2(capsys):
    code, out, _ = run(capsys, "refute2", "x1*x2*x3*x4")
    payload = json.loads(out)
    assert code == 0 and payload["outcome"] == "inconclusive"
    code, out, _ = run(
        capsys,
        "refute2",
        "2*x1*x2 + 2*x3*x4 + 4*x1*x3 + 4*x2*x4 + 5*x1*x4 + 5*x2*x3",
    )
    assert json.loads(out)["outcome"] == "not_expressible"


def test_cmd_oracle_min_k_and_cache(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        "--field",
        "fp:2",
        "--n",
        "3",
        "--min-k",
        "x1*x2 + x1*x3 + x2*x3",
    )
    assert code == 0 and json.loads(out) == {"min_k": 2}
    code, out, _ = run(capsys, "oracle", "--field", "fp:2", "--n", "3", "--min-k", "x1")
    assert code == 0 and json.loads(out) == {"min_k": 1}


def test_cmd_oracle_min_k_odd_prime_cache_round_trip(capsys):
    # x1*(x2 + x3) + (x2*x3 + x4) over F_3: a sum of two read-once formulas
    # that is not read-once itself
    target = "x1*x2 + x1*x3 + x2*x3 + x4"
    query = ("oracle", "--field", "fp:3", "--n", "4", "--min-k", target)
    code, out, _ = run(capsys, *query)
    assert code == 0 and json.loads(out) == {"min_k": 2}
    code, out, _ = run(capsys, *query, "--kmax", "1")
    assert code == 0 and json.loads(out) == {"min_k": None}


def test_cmd_oracle_refuses_kmax_outside_1_to_4_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_rops", lambda p, n: pytest.fail("enumerated"))
    for kmax in ("0", "5", "9"):
        for extra in ((), ("--min-k", "x1")):
            query = ("oracle", "--field", "fp:2", "--n", "3", "--kmax", kmax, *extra)
            code, out, err = run(capsys, *query)
            assert code == 3 and out == "" and "kmax must be between 1 and 4" in err


def test_cmd_oracle_refuses_kmax_without_min_k_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_rops", lambda p, n: pytest.fail("enumerated"))
    for extra in ((), ("--closure-report",)):
        query = ("oracle", "--field", "fp:2", "--n", "2", "--kmax", "2", *extra)
        code, out, err = run(capsys, *query)
        assert code == 2 and out == "" and err == "parse error: --kmax needs --min-k"


def test_cmd_oracle_min_k_searches_to_3_by_default(capsys):
    target = "x2 + x1*x2 + x1*x3 + x2*x3 + x4 + x1*x4 + x1*x2*x4 + x2*x3*x4 + x1*x2*x3*x4"
    query = ("oracle", "--field", "fp:2", "--n", "4", "--min-k", target)
    code, out, _ = run(capsys, *query)
    assert code == 0 and json.loads(out) == {"min_k": 3}
    code, out, _ = run(capsys, *query, "--kmax", "2")
    assert code == 0 and json.loads(out) == {"min_k": None}


def test_cmd_oracle_takes_its_field_from_the_field_flag(capsys):
    code, out, _ = run(capsys, "oracle", "--field", "fp:3", "--n", "2")
    assert code == 0 and json.loads(out) == {"members": 81}
    for extra in ((), ("--min-k", "x1")):
        code, out, err = run(capsys, "oracle", "--field", "q", "--n", "2", *extra)
        assert code == 3 and out == "" and "precondition" in err


def test_cmd_oracle_closure(capsys):
    code, out, _ = run(
        capsys, "oracle", "--field", "fp:2", "--n", "3", "--closure-report"
    )
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True


def test_cmd_oracle_refuses_min_k_with_closure_report(capsys, monkeypatch):
    # one query per call, refused before the class is built
    monkeypatch.setattr(cli, "enumerate_rops", lambda p, n: pytest.fail("enumerated"))
    query = ("oracle", "--field", "fp:2", "--n", "3", "--min-k", "x1*x2", "--closure-report")
    code, out, err = run(capsys, *query)
    assert code == 2 and out == "" and "not allowed with argument" in err


def test_cmd_field_flag(capsys):
    code, out, _ = run(capsys, "parse", "--field", "fp:7", "8*x1 + 13")
    assert code == 0 and out == "6 + x1"


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "parse", "x1 ++ x2")
    assert code == 2 and "parse error" in err


def test_module_entry_point_exit_codes():
    # the module runs as a program and exits with main's status
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")))
    )
    for argv, code, stream in (
        (("parse", "x1"), 0, "x1"),
        (("parse", "x1 ++ x2"), 2, "parse error"),
        (("diff", "--var", "9", "x1"), 3, "precondition violated"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "ropsum.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == code
        assert stream in (done.stdout if code == 0 else done.stderr)


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "diff", "--var", "9", "x1")
    assert code == 3 and "precondition" in err
    code, _, err = run(capsys, "check2rop", "--field", "fp:2", "--family", "1,1,1")
    assert code == 3


def test_exit_code_bad_usage(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_decompose_verify_end_to_end_random(capsys, tmp_path):
    rng = random.Random(62)
    for idx in range(200):
        n = rng.randint(1, 6)
        p = random_poly(rng, n, QQ, density=0.5)
        if p.is_zero():
            continue
        strategy = "pairing" if idx % 2 else "generic"
        text = format_poly(p)
        # "--" keeps polynomials with a leading minus out of flag parsing
        code, out, _ = run(capsys, "decompose", "--strategy", strategy, "--", text)
        payload = json.loads(out)
        assert code == 0 and payload["verified"]
        path = tmp_path / ("case%d.rofs" % idx)
        path.write_text("\n".join(payload["rofs"]))
        code, out, _ = run(capsys, "verify", "--target=" + text, str(path))
        assert code == 0 and json.loads(out)["equal"] is True


def test_check2rop_large_prime_is_fast(capsys):
    p = 2147483647
    start = time.perf_counter()
    code, out, _ = run(capsys, "check2rop", "--field", "fp:%d" % p, "--family", "3,5,7")
    assert time.perf_counter() - start < 5
    payload = json.loads(out)
    assert code == 0 and payload["branch"] == "C3-false"
    tau = int(payload["params"]["tau"])
    assert tau * tau % p == -675 % p  # d1 = (9 - 25 - 49)^2 - 70^2


def test_deep_formula_eval_and_verify(capsys, tmp_path):
    # a left-deep chain of 2,000 add gates over x1..x30, deeper than the
    # recursion limit, reads each variable many times: eval and verify
    # refuse it with exit 3, not a traceback.  A read-once formula this deep
    # needs more than the 30 variables the cap allows; test_rof covers the
    # library walks on one.
    depth = 2000
    leaves = [1] + [k % 30 + 1 for k in range(depth)]
    path = tmp_path / "deep.rof"
    path.write_text(
        "(add (1 0) " * depth
        + "(leaf (1 0) x1)"
        + "".join(" (leaf (1 0) x%d))" % v for v in leaves[1:])
    )
    target = " + ".join("%d*x%d" % (leaves.count(v), v) for v in range(1, 31))
    repeat = "x1 labels %d leaves" % leaves.count(1)
    code, out, err = run(capsys, "eval", str(path))
    assert code == 3 and out == "" and repeat in err
    code, out, err = run(capsys, "verify", "--target", target, str(path))
    assert code == 3 and out == "" and repeat in err


def test_cmd_eval_refuses_a_repeated_variable_under_add(capsys):
    # a variable read twice is refused whichever gate joins its two leaves
    code, out, err = run(capsys, "eval", "(add (1 0) (leaf (1 0) x1) (leaf (1 0) x1))")
    assert code == 3 and out == "" and "x1 labels 2 leaves" in err
    code, out, err = run(capsys, "eval", "(mul (1 0) (leaf (1 0) x1) (leaf (1 0) x1))")
    assert code == 3 and out == ""


def test_cmd_verify_refuses_a_repeated_variable_under_add(capsys):
    # a summand that reads x1 twice is no sum of read-once formulas, even
    # though it expands to the target; distinct summands may share x1
    rofs = ["(leaf (1 0) x2)", "(add (1 0) (leaf (1 0) x1) (leaf (1 0) x1))"]
    code, out, err = run(capsys, "verify", "--target", "2*x1 + x2", json.dumps(rofs))
    assert code == 3 and out == "" and "summand 1: x1 labels 2 leaves" in err
    rofs = ["(leaf (1 0) x2)", "(leaf (1 0) x1)", "(leaf (1 0) x1)"]
    code, out, _ = run(capsys, "verify", "--target", "2*x1 + x2", json.dumps(rofs))
    assert code == 0 and json.loads(out) == {"equal": True}


def test_exit_code_eval_beyond_variable_cap(capsys):
    # x31 exceeds the 30-variable cap, as it does for parse and verify
    code, out, err = run(capsys, "eval", "(leaf (1 0) x31)")
    assert code == 3 and out == "" and "variable count 31" in err
    code, _, err = run(capsys, "parse", "x31")
    assert code == 3 and "variable count 31" in err


def test_exit_code_huge_variable_index(capsys):
    # the index is checked before 1 << (index - 1) is built
    code, out, err = run(capsys, "parse", "x3199999999999")
    assert code == 3 and out == "" and "variable count 3199999999999" in err
    code, out, err = run(
        capsys, "oracle", "--field", "fp:2", "--n", "2", "--min-k", "x1 + x3199999999999"
    )
    assert code == 3 and out == "" and "precondition" in err


def test_exit_code_verify_malformed_json(capsys):
    code, _, err = run(capsys, "verify", "--target", "x1", "[1,2")
    assert code == 2 and "parse error" in err


def test_exit_code_verify_deeply_nested_json(capsys):
    # json.loads gives up on nesting past the recursion limit
    nested = "[" * 1000 + "]" * 1000
    code, out, err = run(capsys, "verify", "--target", "x1", nested)
    assert code == 2 and out == "" and "parse error" in err


def test_exit_code_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_bytes(b"\xff\xfe x1")
    code, out, err = run(capsys, "parse", str(path))
    assert code == 2 and out == "" and "not UTF-8" in err


def test_exit_code_file_unreadable(capsys, tmp_path, monkeypatch):
    # refused by open itself, so the check also holds for a superuser
    path = tmp_path / "poly.txt"
    path.write_text("x1")

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code, out, err = run(capsys, "parse", str(path))
    assert code == 2 and out == "" and repr(str(path)) in err and "Permission denied" in err


def test_exit_code_verify_json_entry_not_a_string(capsys):
    code, _, err = run(capsys, "verify", "--target", "x1", "[1]")
    assert code == 2 and "parse error" in err


def test_exit_code_symmetric_strategy_bad_n(capsys):
    code, _, err = run(capsys, "decompose", "--strategy", "symmetric:abc,1,1")
    assert code == 2 and "parse error" in err
    code, out, err = run(capsys, "decompose", "--strategy", "symmetric:5,1")
    assert code == 2 and out == "" and "needs n,alpha,beta" in err
    # a polynomial argument that only pairing and generic read is refused,
    # not dropped, and those two still need one
    for strategy, poly in (
        ("symmetric:3,0,1", "x1*x2 + 5"),
        ("sympoly4:1,2,3,4,5", "x1"),
        ("pairing", None),
        ("generic", None),
    ):
        argv = ["decompose", "--strategy", strategy] + ([poly] if poly else [])
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and repr(strategy) in err


def test_exit_code_field_modulus_not_an_integer(capsys):
    code, out, err = run(capsys, "parse", "--field", "fp:abc", "x1")
    assert code == 2 and out == "" and "bad field spec 'fp:abc'" in err


def test_oracle_min_k_target_is_parsed_before_the_class(capsys):
    # a malformed target is refused before the class is built: the class
    # itself is infeasible, which would exit 3
    code, out, err = run(
        capsys, "oracle", "--field", "fp:2", "--n", "9", "--min-k", "x1 ++ x2"
    )
    assert code == 2 and out == "" and "parse error" in err


def test_oracle_min_k_target_is_fitted_to_n_before_packing(capsys):
    # packing x24 over F_3 as it stands would build a number near 3^(2^24)
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--field", "fp:3", "--n", "2", "--min-k", "x24")
    assert code == 3 and out == "" and "above x2" in err
    assert time.perf_counter() - start < 1.0
    code, out, _ = run(capsys, "oracle", "--field", "fp:3", "--n", "2", "--min-k", "x1 + 0*x9")
    assert code == 0 and json.loads(out) == {"min_k": 1}


LONG_LITERAL = "9" * 5000  # past the interpreter's 4,300-digit limit on int()


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "x1 + " + LONG_LITERAL),
        ("parse", "x" + LONG_LITERAL),
        ("eval", "(leaf (1 0) x%s)" % LONG_LITERAL),
    ],
    ids=["scalar", "poly-variable", "rof-variable"],
)
def test_exit_code_long_integer_literal(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "integer literal of 5000 characters" in err
