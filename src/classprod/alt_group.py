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
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

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

# the largest n the brute-force oracle serves (Alt(8) has 20160 elements)
ORACLE_MAX_N = 8


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

    def __init__(self, n: int, classes: Iterable[AltClass]):
        classes = frozenset(classes)
        for cls in classes:
            check_in_alt(cls, n)
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


def check_same_n(*items: AltClass | NormalSet) -> int:
    """The n of classes or normal sets that all belong to Alt(n), refused
    when they belong to different groups."""
    n = items[0].n
    if any(item.n != n for item in items[1:]):
        raise UsageError("classes belong to different alternating groups")
    return n


def check_in_alt(cls: AltClass, n: int, name: Optional[str] = None) -> AltClass:
    """``cls``, refused unless it is a class of Alt(n); the error names it
    by ``name``, by default its own."""
    if cls.n != n:
        raise UsageError(f"class {name or cls.name} is not a class of Alt({n})")
    return cls


EXPONENT_MAX_PART = 100


def read_exponent(value: Fraction | int | str, name: str) -> Fraction:
    """The threshold exponent ``name`` (epsilon or gamma) as a Fraction,
    from a Fraction, an int or text such as "1/10".  Refused: exponent
    notation, text that is not a rational number, and a numerator or
    denominator above EXPONENT_MAX_PART, since size_at_least raises the
    base to the numerator and takes the root of that power by the
    denominator, so larger parts would make one size threshold run for
    minutes."""
    import re
    import sys
    from fractions import Fraction

    text, cut = value, 0
    if isinstance(value, str):
        # Fraction() expands "1e-10000000" into a power of ten before any
        # bound can look at it, which alone takes seconds
        if "e" in value.lower():
            raise UsageError(f"exponent notation is not accepted, write p/q: {value!r}")
        # int() refuses a part longer than its digit limit, leading zeros
        # included: read those off each part.  A part still that long is
        # over 100, so it is parsed cut to one digit and refused unshown
        text = re.sub(r"(?<![\d.])0+(?=\d)", "", value)
        if limit := sys.get_int_max_str_digits():
            text, cut = re.subn(rf"\d{{{limit + 1},}}", "1", text)
    try:
        parsed = Fraction(text)
    except (ArithmeticError, TypeError, ValueError):
        raise UsageError(f"not a rational number: {value!r}") from None
    largest = max(parsed.numerator, parsed.denominator)
    if cut or largest > EXPONENT_MAX_PART:
        # a part of more than 50 digits is not shown: past 4300 digits str()
        # refuses it, and the message stays one short line
        shown = f" {parsed}" if not cut and largest < 10**50 else ""
        raise UsageError(
            f"{name}{shown}: numerator and denominator must be at most {EXPONENT_MAX_PART}"
        )
    return parsed


def size_at_least(base: int, exponent: Fraction) -> Callable[[int], bool]:
    """The exact test x >= base**exponent of an integer size x, as x >= t
    with num/den = exponent (an int or a Fraction) and t the least integer
    with t**den >= base**num, computed once; base >= 1 and exponent > 0."""
    if base < 1 or exponent <= 0:
        raise UsageError("a size threshold needs a base >= 1 and an exponent > 0")
    den, bound = exponent.denominator, base**exponent.numerator
    # Newton's iteration from above ends at the floor of the den-th root
    t = 1 << -(-bound.bit_length() // den)
    while (step := ((den - 1) * t + bound // t ** (den - 1)) // den) < t:
        t = step
    return (t if t**den == bound else t + 1).__le__


class DeltaBoundRow(NamedTuple):
    cls: AltClass
    size: int
    delta: int
    ratio: Fraction
    minimal: bool

    def to_dict(self) -> dict:
        fields = self._asdict()
        fields["class"] = fields.pop("cls").name
        return {**fields, "ratio": str(self.ratio)}


class DeltaBoundReport(NamedTuple):
    n: int
    gamma: Fraction
    rows: tuple[DeltaBoundRow, ...]

    @property
    def min_ratio(self) -> Optional[Fraction]:
        return min((r.ratio for r in self.rows), default=None)

    def to_dict(self) -> dict:
        least = self.min_ratio
        return {
            **self._asdict(),
            "gamma": str(self.gamma),
            "min_ratio": None if least is None else str(least),
            "rows": [r.to_dict() for r in self.rows],
        }


def delta_bound_report(n: int, gamma: Fraction | int | str) -> DeltaBoundReport:
    """For each class at least as large as (n!/2)**gamma, report delta and
    delta/n, marking the minimum ratio.  Size comparisons are exact.

    Empirical companion to the size-to-delta bound: no asymptotic claim
    is made, the table simply shows the witnesses at this n.
    """
    from fractions import Fraction

    gamma = read_exponent(gamma, "gamma")
    if not 0 < gamma < 1:
        raise UsageError("gamma must lie strictly between 0 and 1")
    if n < 2:
        raise UsageError("delta report needs n >= 2")
    reaches = size_at_least(math.factorial(n) // 2, gamma)
    classes = enumerate_alt_classes(n)
    kept = [(c, s, delta(c)) for c, s in zip(classes, map(class_size, classes)) if reaches(s)]
    least = min((d for _, _, d in kept), default=None)  # delta/n is least where delta is
    rows = tuple(DeltaBoundRow(c, s, d, Fraction(d, n), d == least) for c, s, d in kept)
    return DeltaBoundReport(n, gamma, rows)
