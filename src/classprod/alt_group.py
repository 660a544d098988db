"""Conjugacy classes of Alt(n): parity, exceptionality, sizes, delta.

A cycle type with all parts odd and pairwise distinct labels two Alt(n)
classes of equal size (the Sym(n) class splits); every other even cycle
type labels a single class.  Split classes carry a ``+``/``-`` tag whose
meaning is fixed by the canonical representative convention shared with
the brute-force module: the ``+`` class contains the permutation whose
cycles fill the points in order, longest cycle first.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .errors import CapabilityError, UsageError
from .partitions import (
    Partition,
    TaggedLabel,
    enumerate_partitions,
    parse_tagged_partition,
    validate_partition,
)

if TYPE_CHECKING:  # imported where used: listing classes needs no rationals
    from fractions import Fraction

# how class products are computed: by character sums, by the brute-force
# permutation oracle, or by both with their answers compared
MODES = ("engine", "oracle", "both")


def is_even_type(rho: Partition) -> bool:
    """True when permutations of this cycle type are even."""
    return (sum(rho) - len(rho)) % 2 == 0


def is_exceptional(rho: Partition) -> bool:
    """True when the Sym(n) class of this type splits in Alt(n): all cycle
    lengths odd and pairwise distinct (and n >= 2, so odd elements exist)."""
    if sum(rho) < 2:
        return False
    return all(p % 2 for p in rho) and len(set(rho)) == len(rho)


def centralizer_order_sym(rho: Partition) -> int:
    """|C_Sym(n)(x)| for x of cycle type rho: prod i^{r_i} r_i!."""
    mult: dict[int, int] = {}
    for p in rho:
        mult[p] = mult.get(p, 0) + 1
    order = 1
    for part, r in mult.items():
        order *= part**r * math.factorial(r)
    return order


def _refuse_assignment(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


class _AltClassFields(NamedTuple):
    cycle_type: Partition
    split: Optional[str] = None


class AltClass(TaggedLabel, _AltClassFields):
    """A conjugacy class of Alt(n): an even cycle type, plus a split tag
    when (and only when) the type is exceptional."""

    __slots__ = ()

    def __new__(cls, cycle_type: Iterable[int], split: Optional[str] = None):
        ct = validate_partition(cycle_type)
        if not is_even_type(ct):
            raise UsageError(f"cycle type {ct} is odd, not a class of Alt(n)")
        if is_exceptional(ct):
            if split not in ("+", "-"):
                raise UsageError(
                    f"exceptional type {ct} requires a '+'/'-' tag "
                    "(a bare name denotes the union of both classes)"
                )
        elif split is not None:
            raise UsageError(f"type {ct} does not split")
        return super().__new__(cls, ct, split)


def parse_class(text: str) -> AltClass:
    """Parse a single class name such as ``"5,3,1-"``; exceptional types
    must carry an explicit tag."""
    classes = parse_class_or_union(text)
    if len(classes) != 1:
        raise UsageError(
            f"{text!r} names an exceptional type without a tag; "
            "append '+' or '-' to pick one class"
        )
    return classes[0]


def parse_class_or_union(text: str) -> tuple[AltClass, ...]:
    """Parse a class name, expanding a bare exceptional type to the pair
    of split classes it denotes."""
    ct, split = parse_tagged_partition(text)
    if split is not None:
        return (AltClass(ct, split),)
    if is_exceptional(ct):
        return (AltClass(ct, "+"), AltClass(ct, "-"))
    return (AltClass(ct),)


def class_size(cls: AltClass) -> int:
    """Number of elements: the Sym(n) class size, halved when split."""
    n = cls.n
    size = math.factorial(n) // centralizer_order_sym(cls.cycle_type)
    if cls.split is not None:
        size //= 2
    return size


def delta(cls: AltClass) -> int:
    """n minus the number of disjoint cycles; even for every Alt(n) class."""
    return cls.n - len(cls.cycle_type)


@lru_cache(maxsize=None)
def enumerate_alt_classes(n: int) -> tuple[AltClass, ...]:
    """All classes of Alt(n) in canonical order: cycle types in descending
    lexicographic order, '+' before '-' within a split pair."""
    classes = []
    for rho in enumerate_partitions(n):
        if not is_even_type(rho):
            continue
        if is_exceptional(rho):
            classes.append(AltClass(rho, "+"))
            classes.append(AltClass(rho, "-"))
        else:
            classes.append(AltClass(rho))
    return tuple(classes)


@lru_cache(maxsize=None)
def classes_by_type(n: int) -> dict[Partition, tuple[AltClass, ...]]:
    """The classes of Alt(n) keyed by cycle type, in canonical order: one
    class for a type that does not split, the '+' and then the '-' class
    for one that does."""
    out: dict[Partition, tuple[AltClass, ...]] = {}
    for cls in enumerate_alt_classes(n):
        out[cls.cycle_type] = out.get(cls.cycle_type, ()) + (cls,)
    return out


@lru_cache(maxsize=None)
def class_index(n: int) -> dict[AltClass, int]:
    return {cls: i for i, cls in enumerate(enumerate_alt_classes(n))}


def identity_class(n: int) -> AltClass:
    return AltClass((1,) * n)


def inverse_class(cls: AltClass) -> AltClass:
    """The class of inverses.

    Inverting is conjugation by the product of per-cycle reversals, whose
    sign is (-1)**sum(floor(part/2)); for a split class the tag flips
    exactly when that sign is odd.
    """
    if cls.split is None:
        return cls
    flips = sum(p // 2 for p in cls.cycle_type) % 2
    if not flips:
        return cls
    return AltClass(cls.cycle_type, "-" if cls.split == "+" else "+")


def long_cycle_type(n: int) -> Partition:
    return (n,) if n % 2 else (n - 1, 1)


def long_cycle_classes(n: int) -> tuple[AltClass, AltClass]:
    """The two split classes of long cycles (their type is always
    exceptional for n >= 3)."""
    ct = long_cycle_type(n)
    return (AltClass(ct, "+"), AltClass(ct, "-"))


class NormalSet:
    """A union of Alt(n) conjugacy classes (possibly empty); immutable,
    equal to a NormalSet of the same n and classes."""

    __slots__ = ("n", "classes")

    n: int
    classes: frozenset[AltClass]

    def __init__(self, n: int, classes: frozenset[AltClass]):
        for cls in classes:
            if cls.n != n:
                raise UsageError(f"class {cls.name} is not a class of Alt({n})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "classes", classes)

    __setattr__ = __delattr__ = _refuse_assignment

    def __reduce__(self):
        return NormalSet, (self.n, self.classes)

    def __repr__(self):
        return f"NormalSet(n={self.n!r}, classes={self.classes!r})"

    def __eq__(self, other):
        if not isinstance(other, NormalSet):
            return NotImplemented
        return (self.n, self.classes) == (other.n, other.classes)

    def __hash__(self):
        return hash((self.n, self.classes))

    @staticmethod
    def of(classes: Iterable[AltClass], n: Optional[int] = None) -> "NormalSet":
        cs = frozenset(classes)
        if n is None:
            if not cs:
                raise UsageError("empty normal set needs an explicit n")
            n = next(iter(cs)).n
        return NormalSet(n, cs)

    def is_full(self) -> bool:
        return len(self.classes) == len(enumerate_alt_classes(self.n))

    def sorted_classes(self) -> tuple[AltClass, ...]:
        index = class_index(self.n)
        return tuple(sorted(self.classes, key=index.__getitem__))

    def __contains__(self, cls: AltClass) -> bool:
        return cls in self.classes

    def __iter__(self):
        return iter(self.sorted_classes())

    def __len__(self):
        return len(self.classes)


def check_n(n: int, cap: int, what: str) -> None:
    """Refuse an n below 1 (a usage error) or above the cap of ``what``
    (a capability error)."""
    if n < 1:
        raise UsageError("n must be positive")
    if n > cap:
        raise CapabilityError(f"{what} supports n <= {cap}, got {n}")


EXPONENT_MAX_PART = 100


def check_exponent_parts(value: Fraction, name: str) -> None:
    """Reject a threshold exponent whose numerator or denominator exceeds
    EXPONENT_MAX_PART: power_at_least raises integers to both, so larger
    parts would make one size comparison run for minutes."""
    if max(value.numerator, value.denominator) > EXPONENT_MAX_PART:
        raise UsageError(
            f"{name} {value}: numerator and denominator must be at most {EXPONENT_MAX_PART}"
        )


def power_at_least(value: int, base: int, exponent: Fraction) -> bool:
    """Exact test of value >= base**exponent via cross-multiplied integer
    powers; value, base >= 1 and exponent > 0."""
    from fractions import Fraction

    if value < 1 or base < 1:
        raise ValueError("power comparison needs positive integers")
    exponent = Fraction(exponent)
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    return value**exponent.denominator >= base**exponent.numerator


class DeltaBoundRow(NamedTuple):
    cls: AltClass
    size: int
    delta: int
    ratio: Fraction
    minimal: bool

    def to_dict(self) -> dict:
        return {
            "class": self.cls.name,
            "size": self.size,
            "delta": self.delta,
            "ratio": str(self.ratio),
            "minimal": self.minimal,
        }


class DeltaBoundReport(NamedTuple):
    n: int
    gamma: Fraction
    rows: tuple[DeltaBoundRow, ...]

    @property
    def min_ratio(self) -> Optional[Fraction]:
        return min((r.ratio for r in self.rows), default=None)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": str(self.gamma),
            "min_ratio": None if self.min_ratio is None else str(self.min_ratio),
            "rows": [r.to_dict() for r in self.rows],
        }


def delta_bound_report(n: int, gamma: Fraction) -> DeltaBoundReport:
    """For each class at least as large as (n!/2)**gamma, report delta and
    delta/n, marking the minimum ratio.  Size comparisons are exact.

    Empirical companion to the size-to-delta bound: no asymptotic claim
    is made, the table simply shows the witnesses at this n.
    """
    from fractions import Fraction

    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise UsageError("gamma must lie strictly between 0 and 1")
    if n < 2:
        raise UsageError("delta report needs n >= 2")
    check_exponent_parts(gamma, "gamma")
    order = math.factorial(n) // 2
    rows = []
    for cls in enumerate_alt_classes(n):
        size = class_size(cls)
        if not power_at_least(size, order, gamma):
            continue
        rows.append((cls, size, delta(cls), Fraction(delta(cls), n)))
    min_ratio = min((r[3] for r in rows), default=None)
    return DeltaBoundReport(
        n,
        gamma,
        tuple(
            DeltaBoundRow(cls, size, d, ratio, ratio == min_ratio)
            for cls, size, d, ratio in rows
        ),
    )
