"""The package's value classes, written out by hand.

The standard library's record generator is not used: its import pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and took about as long as all
the rest of ``import ropsum.cli``, which every CLI process pays.

A record names its fields, in constructor order, in ``_fields``, and each
class gets its key once, when it is made: ``operator.attrgetter`` of the
fields, which reads them all in one call into a tuple.  Equality, the
hash, the copy and the ``repr`` all read the fields through it, so two
records are equal when they are of the same class with equal fields.  A
record sets its fields, and any index it derives from them, once, in
``__init__``, with ``_set``.  Every value the package returns is
``Frozen``: the field descriptors, the scalars, the polynomials, the
formulas and their sums, the decisions, and the oracle's packed
polynomials, classes and closure reports, so each of them refuses
assignment and survives ``copy`` and ``pickle``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Tuple

# Sets a field of a frozen record, past its refusing __setattr__.
_set = object.__setattr__


class Frozen:
    """An immutable record: compared and hashed by its fields, and
    refusing to assign or delete any attribute with ``AttributeError``.  A
    copy is rebuilt by calling the class on the fields."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        # every record has two fields or more, so the getter returns a tuple
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        # fields shared by many values, such as a field descriptor, are
        # mostly compared with themselves
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % pair for pair in zip(self._fields, self._key(self))),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._key(self)
