"""Every value the package returns is frozen, and survives ``copy.copy``,
``copy.deepcopy`` and ``pickle`` as an equal value that still works."""

import copy
import pickle

import pytest

from ropsum import QQ, MultilinearPoly, commutator, family4, prime_field
from ropsum.decompose import generic
from ropsum.oracle import pack
from ropsum.recognize import family4_decide, is_rop
from ropsum.rof import Gate, Leaf, RopSum, verify_against

F5 = prime_field(5)

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _values():
    p = MultilinearPoly(3, QQ, {0: 1, 0b011: QQ.elem(2), 0b110: -3})
    rop = MultilinearPoly(3, F5, {0: 1, 0b001: 2, 0b010: 3, 0b011: 1, 0b100: 4})
    witness = is_rop(rop)
    assert isinstance(witness, Gate)
    decision = family4_decide(1, 2, 3)
    assert decision.outcome == "expressible"
    return {
        "Q": QQ,
        "F_5": F5,
        "elem of Q": QQ.elem(-7) / 3,
        "elem of F_5": F5.elem(3),
        "poly": p,
        "commutator": commutator(p, 1, 2),
        "is_rop witness": witness,
        "generic sum": generic(p),
        "Sum2Decision": decision,
        "PackedPoly": pack(rop),
    }


@pytest.mark.parametrize("how", sorted(COPIES))
def test_every_value_copies_to_an_equal_value(how):
    for name, value in _values().items():
        copied = COPIES[how](value)
        assert type(copied) is type(value) and copied == value, name
        assert repr(copied) == repr(value), name


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_still_compute(how):
    p = MultilinearPoly(3, QQ, {0: 1, 0b011: 2, 0b110: -3})
    s = COPIES[how](generic(p))
    assert verify_against(s, p) and verify_against(s, COPIES[how](p))
    assert F5.elem(2) + COPIES[how](F5.elem(4)) == 1
    assert COPIES[how](QQ.elem(3)).inverse() * 3 == 1
    d = COPIES[how](family4_decide(1, 2, 3))
    assert verify_against(d.witness, family4(1, 2, 3))
    # a rebuilt field equals its original, which still takes its elements
    field = COPIES[how](F5)
    assert field == F5 and hash(field) == hash(F5) and field.elem(F5.elem(2)) == 2
    assert COPIES[how](QQ) == QQ and MultilinearPoly(1, field, {1: 3}).field == F5


def test_a_pickled_sum_shares_one_field():
    s = pickle.loads(pickle.dumps(generic(MultilinearPoly(2, F5, {0b11: 2, 0b01: 1}))))
    fields = {id(s.field)} | {
        id(leaf.alpha.field) for t in s.summands for leaf in _leaves(t)
    }
    assert len(fields) == 1


def _leaves(t):
    return [t] if isinstance(t, Leaf) else _leaves(t.left) + _leaves(t.right)


def test_scalars_fields_and_polynomials_refuse_assignment():
    p = MultilinearPoly(2, QQ, {0b11: 1})
    s = commutator(MultilinearPoly(2, QQ, {0b11: 1, 0: 1}), 1, 2)
    for value, name in (
        (p, "n"), (p, "coeffs"), (p, "field"), (s, "n"),
        (QQ.one(), "value"), (F5.elem(2), "field"),
        (QQ, "kind"), (F5, "p"), (F5, "add"),
    ):
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert p.n == 2 and F5.p == 5 and QQ.one().value == 1
    for value in (p, QQ.one(), F5, RopSum(QQ, 1, ())):
        assert not hasattr(value, "__dict__")
    # a polynomial hashes by its terms; a commutator is not hashable
    assert hash(p) == hash(MultilinearPoly(2, QQ, {0b11: QQ.one()}))
    with pytest.raises(TypeError):
        hash(s)
