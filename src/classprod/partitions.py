"""Integer partitions, Young diagrams and hooks.

A partition is a plain tuple of weakly decreasing positive integers.  The
same tuple doubles as a Young diagram (rows of cells, English notation)
and as the cycle type of a permutation.  All functions here are pure and
safe to call concurrently; the enumeration order is fixed so that CLI
output and test fixtures are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional

from .errors import UsageError

Partition = tuple[int, ...]


def validate_partition(parts: Iterable[int]) -> Partition:
    """Return ``parts`` as a canonical tuple, rejecting invalid shapes."""
    lam = tuple(int(p) for p in parts)
    for i, p in enumerate(lam):
        if p < 1:
            raise UsageError(f"partition parts must be positive, got {p}")
        if i and lam[i - 1] < p:
            raise UsageError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition string such as ``"5,3,1"``.

    Rejects empty input, non-integer parts, non-positive parts, and part
    sequences that are not weakly decreasing.
    """
    items = [t.strip() for t in text.split(",")]
    if items == [""]:
        raise UsageError("empty partition string")
    try:
        parts = [int(t) for t in items]
    except ValueError:
        raise UsageError(f"partition parts must be integers: {text!r}") from None
    return validate_partition(parts)


def parse_tagged_partition(text: str) -> tuple[Partition, Optional[str]]:
    """Parse a partition with an optional trailing split tag, ``+`` or
    ``-`` (U+2212 also reads as ``-``), as in ``"5,3,1-"``."""
    text = text.strip()
    split = None
    if text.endswith(("+", "-", "−")):
        split = "+" if text[-1] == "+" else "-"
        text = text[:-1]
    return parse_partition(text), split


class TaggedLabel:
    """Base for the NamedTuple records of a partition and a split tag, the
    Alt(n) classes and characters, whose constructors check their fields.
    Both derive ``n`` and ``name`` from the two fields on each read.

    ``_replace`` builds through the constructor, so a derived value is
    checked too, and a value equals only a value of its own type: not a
    plain tuple, nor a class whose fields equal a character's.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return sum(self[0])

    @property
    def name(self) -> str:
        return format_partition(self[0]) + (self[1] or "")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def conjugate(lam: Partition) -> Partition:
    """Reflect the Young diagram through its main diagonal: column j has
    as many cells as there are parts of size at least j + 1, a suffix sum
    of the parts counted by size."""
    if not lam:
        return ()
    by_size = [0] * lam[0]
    for p in lam:
        by_size[p - 1] += 1
    return tuple(accumulate(reversed(by_size)))[::-1]


def is_self_adjoint(lam: Partition) -> bool:
    return lam == conjugate(lam)


def hook_length_product(lam: Partition) -> int:
    prod = 1
    conj = conjugate(lam)
    for i in range(len(lam)):
        for j in range(lam[i]):
            prod *= lam[i] + conj[j] - i - j - 1
    return prod


def diagonal_hook_partition(lam: Partition) -> Partition:
    """Partition formed by the hook lengths along the main diagonal.

    Defined for self-adjoint shapes only; the result always has pairwise
    distinct odd parts (each diagonal hook has equal arm and leg, and the
    lengths drop by at least 2 down the diagonal).
    """
    if not is_self_adjoint(lam):
        raise ValueError(f"diagonal hooks require a self-adjoint partition, got {lam}")
    parts = []
    for i, p in enumerate(lam):
        if p <= i:
            break
        parts.append(2 * (p - i) - 1)
    return tuple(parts)


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order.

    The order starts at ``(n,)`` and ends at ``(1,)*n``; it is the
    canonical order for every enumeration in this package.
    """
    if n < 0:
        raise UsageError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []
    cur = [n]
    while True:
        out.append(tuple(cur))
        k = len(cur) - 1
        while k >= 0 and cur[k] == 1:
            k -= 1
        if k < 0:
            break
        cur[k] -= 1
        val = cur[k]
        rem = len(cur) - 1 - k
        del cur[k + 1 :]
        rem += 1
        while rem > 0:
            take = min(val, rem)
            cur.append(take)
            rem -= take
    return tuple(out)
