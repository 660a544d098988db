"""Exact quadratic irrationals for the character values of Alt(n).

A ``QuadValue`` is a + b*sqrt(d) with rational a and b, the form of every
value in ``character_table(n)`` and of ``alt_value``.  It lives apart from
``characters`` so that the product engine, which reads the integer table,
loads no rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .characters import _squarefree_decompose

RationalLike = Union[int, Fraction]


@lru_cache(maxsize=None)
def _half(p: int) -> Fraction:
    """p/2, normalised once per integer (table entries repeat few values)."""
    return Fraction(p, 2)


class QuadValue:
    """An exact algebraic number a + b*sqrt(d).

    ``a`` and ``b`` are rationals and ``d`` is a squarefree integer,
    possibly negative (the square root is kept symbolic, never floated).
    ``d == 1`` means the value is rational.  Arithmetic between values
    with different radicands is refused unless one side is rational;
    sums across fields are the caller's job (see the per-radicand
    accumulation in the product engine).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        if d == 0:
            b = Fraction(0)
            d = 1
        if b == 0:
            d = 1
        elif d != 1:
            neg = d < 0
            s, sf = _squarefree_decompose(-d if neg else d)
            b *= s
            d = -sf if neg else sf
        if d == 1 and b:
            a += b
            b = Fraction(0)
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _halves(cls, p: int, q: int, d: int) -> "QuadValue":
        """(p + q*sqrt(d))/2 from parts already in normal form (d squarefree,
        d == 1 exactly when q == 0), without renormalising them."""
        value = object.__new__(cls)
        value.a, value.b, value.d = _half(p), _half(q), d
        return value

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadValue":
        """Complex conjugate: flips the radical only for negative radicands."""
        if self.d < 0:
            return QuadValue(self.a, -self.b, self.d)
        return self

    @staticmethod
    def _coerce(value) -> Optional["QuadValue"]:
        if isinstance(value, QuadValue):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadValue(value)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.d == o.d:
            return QuadValue(self.a + o.a, self.b + o.b, self.d)
        if self.b == 0:
            return QuadValue(self.a + o.a, o.b, o.d)
        if o.b == 0:
            return QuadValue(self.a + o.a, self.b, self.d)
        raise ValueError(f"cannot add values over sqrt({self.d}) and sqrt({o.d})")

    __radd__ = __add__

    def __neg__(self):
        return QuadValue(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0:
            return QuadValue(self.a * o.a, self.a * o.b, o.d)
        if o.b == 0:
            return QuadValue(self.a * o.a, self.b * o.a, self.d)
        if self.d != o.d:
            raise ValueError(
                f"cannot multiply values over sqrt({self.d}) and sqrt({o.d})"
            )
        return QuadValue(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadValue":
        if self.is_zero:
            raise ZeroDivisionError("division by zero QuadValue")
        if self.b == 0:
            return QuadValue(1 / self.a)
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadValue(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (o.b == 0 or self.b == 0 or o.d == self.d):
            raise ValueError(
                f"cannot divide values over sqrt({self.d}) and sqrt({o.d})"
            )
        return self * o._inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def to_dict(self) -> dict:
        return {"rational": str(self.a), "coeff": str(self.b), "radicand": self.d}

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.b == 1:
            term = root
        elif self.b == -1:
            term = f"-{root}"
        else:
            term = f"{self.b}*{root}"
        if self.a == 0:
            return term
        sign = "-" if self.b < 0 else "+"
        mag = -self.b if self.b < 0 else self.b
        mag_term = root if mag == 1 else f"{mag}*{root}"
        return f"{self.a} {sign} {mag_term}"

    def __repr__(self):
        return f"QuadValue({self.a!r}, {self.b!r}, {self.d!r})"
