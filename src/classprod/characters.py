"""Exact character values for Sym(n) and Alt(n).

Sym(n) values come from the Murnaghan-Nakayama recursion on an abacus
(memoized: the recursion revisits subproblems exponentially often without
the cache) and degrees from the hook length formula.  Alt(n) characters
are labeled by partition pairs ``{lam, lam'}``, with a split pair
``+``/``-`` whenever ``lam`` is self-adjoint; split values on the one
critical cycle type are quadratic irrationals.  ``integer_table(n)`` holds
every Alt(n) value once, as integers (p, q, d) with value (p + q*sqrt(d))/2;
the product engine reads it directly, and ``character_table(n)`` shows it
as :class:`~classprod.quadvalue.QuadValue` entries, kept symbolic so that
every membership test is an exact zero-test.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Union

from .alt_group import AltClass, class_size, enumerate_alt_classes
from .partitions import (
    Partition,
    TaggedLabel,
    conjugate,
    diagonal_hook_partition,
    enumerate_partitions,
    hook_length_product,
    is_self_adjoint,
    parse_tagged_partition,
    validate_partition,
)
from .errors import ConsistencyError, UsageError

if TYPE_CHECKING:  # imported where a value is built: the engine needs no rationals
    from .quadvalue import QuadValue


def _squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m = s*s*d with d squarefree; m must be positive."""
    s, d = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


# The Murnaghan-Nakayama recursion runs on an abacus: a partition of size
# at most n is its beta-set for n beads, as a bitmask (bead b at bit b).
# Removing a border strip of length L moves a bead from b to a gap at b - L,
# and the strip's height is the number of beads strictly between the two.
# A cycle type is interned with all its suffixes; suffix id 0 is the empty
# one, and _SUFFIXES[sid] holds the suffix's first part, the id of the rest
# and the memo of its values by bead mask, which every column shares.
_SUFFIX_IDS: dict[Partition, int] = {(): 0}
_SUFFIXES: list[tuple[int, int, dict[int, int]]] = [(0, 0, {})]


def _suffix_id(rho: Partition) -> int:
    sid = _SUFFIX_IDS.get(rho)
    if sid is None:
        rest = _suffix_id(rho[1:])
        sid = _SUFFIX_IDS[rho] = len(_SUFFIXES)
        _SUFFIXES.append((rho[0], rest, {}))
    return sid


def _abacus(lam: Partition, n: int) -> int:
    """The beta-set of ``lam`` (at most n parts) with n beads."""
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


def _mn(mask: int, sid: int) -> int:
    """The Sym character of the abacus ``mask`` on the suffix ``sid``."""
    if not sid:
        return 1
    length, rest, memo = _SUFFIXES[sid]
    value = memo.get(mask)
    if value is None:
        value = 0
        movable = mask & (~mask << length)  # beads with a gap L below
        while movable:
            bead = movable & -movable
            movable ^= bead
            gap = bead >> length
            term = _mn(mask ^ bead ^ gap, rest)
            # beads strictly between the gap and the bead: the strip's height
            value += -term if (mask & (bead - (gap << 1))).bit_count() & 1 else term
        memo[mask] = value
    return value


@lru_cache(maxsize=None)
def mn_value(lam: Partition, rho: Partition) -> int:
    """Character of Sym(n) labeled by ``lam``, evaluated on cycle type ``rho``.

    Murnaghan-Nakayama recursion on the abacus of ``lam``: strip a border
    strip of length ``rho[0]`` in every possible way, recurse on the
    remainder with sign ``(-1)**height``.
    """
    n = sum(lam)
    if n != sum(rho):
        raise UsageError(
            f"partition sizes differ: |{lam}| = {n}, |{rho}| = {sum(rho)}"
        )
    return _mn(_abacus(lam, n), _suffix_id(rho))


@lru_cache(maxsize=None)
def degree(lam: Partition) -> int:
    """Degree of the Sym(n) character labeled by ``lam`` (hook length formula)."""
    n = sum(lam)
    num = math.factorial(n)
    den = hook_length_product(lam)
    if num % den:
        raise ConsistencyError(f"hook product {den} does not divide {n}!")
    return num // den


class _AltCharFields(NamedTuple):
    partition: Partition
    split: Optional[str] = None


class AltChar(TaggedLabel, _AltCharFields):
    """An irreducible character of Alt(n).

    ``partition`` is the canonical label: the lexicographically smaller
    of the partition and its conjugate.  ``split`` is present exactly for
    self-adjoint labels (n >= 2), which restrict as a pair of characters.
    """

    __slots__ = ()

    def __new__(cls, partition: Iterable[int], split: Optional[str] = None):
        parts = validate_partition(partition)
        lam = min(parts, conjugate(parts))
        if lam != parts:
            raise UsageError(
                f"{parts} is not the canonical label; use {lam} "
                "(or the alt_char_for factory)"
            )
        self_adj = is_self_adjoint(parts) and sum(parts) >= 2
        if self_adj:
            if split not in ("+", "-"):
                raise UsageError(
                    f"self-adjoint label {parts} needs a '+'/'-' tag"
                )
        elif split is not None:
            raise UsageError(f"label {parts} does not split")
        return super().__new__(cls, parts, split)


def alt_char_for(lam: Partition, split: Optional[str] = None) -> AltChar:
    """Build an AltChar from either member of a conjugate pair."""
    lam = tuple(lam)
    return AltChar(min(lam, conjugate(lam)), split)


def parse_char(text: str) -> AltChar:
    """Parse a character name such as ``"3,2,1+"`` (ASCII or U+2212 minus)."""
    return alt_char_for(*parse_tagged_partition(text))


@lru_cache(maxsize=None)
def alt_irreducibles(n: int) -> tuple[AltChar, ...]:
    """All irreducible characters of Alt(n), one per conjugate pair of
    partitions plus a split pair per self-adjoint partition."""
    chars = []
    # descending order meets the larger of lam and its conjugate first
    for lam in enumerate_partitions(n):
        mu = conjugate(lam)
        if lam == mu and n >= 2:
            chars.append(AltChar(lam, "+"))
            chars.append(AltChar(lam, "-"))
        elif lam >= mu:
            chars.append(AltChar(mu))
    return tuple(chars)


def alt_degree(psi: AltChar) -> int:
    """psi(1): the full Sym degree, halved for split characters."""
    d = degree(psi.partition)
    if psi.split is None:
        return d
    if d % 2:
        raise ConsistencyError(f"split character degree {d} is odd")
    return d // 2


def _alt_parts(
    psi: AltChar, cls: AltClass, chi: int, crit: Optional[Partition]
) -> tuple[int, int, int]:
    """The value of ``psi`` on ``cls`` as integer parts (p, q, d) of
    (p + q*sqrt(d))/2, d squarefree and d == 1 exactly when q == 0, from
    ``chi``, the Sym value of its label on the class's cycle type, and
    ``crit``, the diagonal hooks of its label if ``psi`` is split (else
    None).

    Non-split characters restrict from Sym(n) unchanged.  A split pair
    takes half the Sym value except on its critical cycle type ``crit``,
    where chi is +-1 and the value is (chi +- sqrt(chi * product of the
    hooks)) / 2: the ``+`` character takes +sqrt on the ``+`` class (the
    class of the canonical representative) and the conjugate value on the
    other, and symmetrically for the ``-`` character.  A square radicand
    folds into a rational value (first at Alt(9) and Alt(10)).
    """
    if psi.split is None:
        return 2 * chi, 0, 1
    if cls.cycle_type != crit:
        return chi, 0, 1
    radicand = chi * math.prod(crit)
    s, d = _squarefree_decompose(abs(radicand))
    if radicand < 0:
        d = -d
    if psi.split != cls.split:
        s = -s
    return (chi + s, 0, 1) if d == 1 else (chi, s, d)


def alt_value(psi: AltChar, cls: AltClass) -> QuadValue:
    """Exact value of an Alt(n) irreducible character on a conjugacy class
    (see ``_alt_parts``)."""
    lam = psi.partition
    ct = cls.cycle_type
    from .quadvalue import QuadValue

    crit = diagonal_hook_partition(lam) if psi.split else None
    return QuadValue._halves(*_alt_parts(psi, cls, mn_value(lam, ct), crit))


class CharacterTable(NamedTuple):
    """The full character table of Alt(n) with exact entries.

    ``values[i][j]`` is ``chars[i]`` evaluated on ``classes[j]``: a
    QuadValue in ``character_table(n)``, and in ``integer_table(n)`` its
    integer parts (p, q, d) as ``_alt_parts`` gives them.  Rows and
    columns follow the canonical enumeration orders.
    """

    n: int
    chars: tuple[AltChar, ...]
    classes: tuple[AltClass, ...]
    degrees: tuple[int, ...]
    class_sizes: tuple[int, ...]
    values: tuple[tuple[Union[QuadValue, tuple[int, int, int]], ...], ...]

    @property
    def order(self) -> int:
        return math.factorial(self.n) // 2 if self.n >= 2 else 1


@lru_cache(maxsize=None)
def integer_table(n: int) -> CharacterTable:
    """Every Alt(n) character value as integer parts, from one abacus per
    partition and one Murnaghan-Nakayama evaluation per even cycle type."""
    chars = alt_irreducibles(n)
    classes = enumerate_alt_classes(n)
    sids = {ct: _suffix_id(ct) for ct in dict.fromkeys(c.cycle_type for c in classes)}
    rows = []
    lam = chis = crit = None
    for psi in chars:
        if psi.partition != lam:  # a split pair shares its Sym values
            lam = psi.partition
            mask = _abacus(lam, n)
            chis = {ct: _mn(mask, sid) for ct, sid in sids.items()}
            crit = diagonal_hook_partition(lam) if psi.split else None
        rows.append(tuple(_alt_parts(psi, c, chis[c.cycle_type], crit) for c in classes))
    return CharacterTable(
        n,
        chars,
        classes,
        tuple(alt_degree(psi) for psi in chars),
        tuple(class_size(cls) for cls in classes),
        tuple(rows),
    )


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """``integer_table(n)`` with each entry as a QuadValue."""
    from .quadvalue import QuadValue

    tbl = integer_table(n)
    halves = QuadValue._halves
    return tbl._replace(values=tuple(tuple(halves(*entry) for entry in row) for row in tbl.values))
