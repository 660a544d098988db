"""Ground-truth oracle: explicit permutation arithmetic for small n.

Everything here works by explicit permutations and is capped at n <= 8
(Alt(8) has 20160 elements).  A permutation lists the images of the
points 0..n-1, and products are composed right-to-left:
``compose(p, q)(i) == p(q(i))``.  The convention matters because
split-class membership of products depends on it; it is frozen here and
used consistently everywhere.

Two representations carry the same images.  Tuples of ints are the
public one: ``compose``, ``inverse``, ``cycles``, the representatives,
the generators and ``GroupTable`` take and return tuples.  The oracle's
own working set is n-byte ``bytes`` (41 bytes at n = 8, against 104 for
a tuple): every orbit member of ``class_members``, every product that
``oracle_class_product`` forms and every key of its memo.  Padded with
the fixed points n..255, a permutation r is a translation table, so
``m.translate(table)`` is the product r·m in one C call (m first, then
r); translating g^-1 through m's table gathers m·g^-1, so a conjugate
g m g^-1 is two translates.

A class product is computed from the members of one class only:
``class_members`` conjugates a representative by two generators of
Alt(n) until the orbit closes, and insists that the orbit has the size
``class_size`` predicts.  Each orbit files its members in one memo from
permutation to class, which classifies later products by lookup.
``alt_conjugacy_classes`` is the union of the orbits, each sorted and
converted to tuples once (bytes sort in the order of their tuples).

A product of classes A and B is the set of classes met by m·r, for m in
A and one fixed r in B; the oracle forms r·m instead.  That is
r (m·r) r^-1, and r is even, so conjugating by it fixes every Alt(n)
class, split classes included: both products meet the same classes.

A product the memo does not know is classified from one walk of its
cycles, then filed in it: the number of cycles gives the parity (odd
permutations are dropped), their sorted lengths give the cycle type, and
the class is looked up in ``classes_by_type(n)``.  For an exceptional type
the split tag is read off the same cycles.  Laid end to end, longest
first, they spell the canonical conjugator: position i of the canonical
representative (whose cycles fill 0..n-1 in order, longest first) goes to
the i-th point of that sequence.  An even conjugator means the '+' class,
an odd one the '-' class.  The conjugator is fixed up to the centralizer,
which the odd-length, hence even, cycles generate, so its sign is well
defined.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional

from .alt_group import (
    AltClass,
    NormalSet,
    check_n,
    class_size,
    classes_by_type,
    enumerate_alt_classes,
)
from .errors import ConsistencyError, UsageError
from .partitions import Partition

Perm = tuple[int, ...]

ORACLE_MAX_N = 8


def check_oracle_n(n: int) -> None:
    """Refuse an n the oracle does not serve."""
    check_n(n, ORACLE_MAX_N, "brute-force mode")


def compose(p: Perm, q: Perm) -> Perm:
    """Right-to-left product: apply q first, then p."""
    if len(p) != len(q):
        raise ValueError("permutations act on different point sets")
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    # the point sent to j is the one that sorts to position j by its image
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def cycles(p: Perm) -> list[list[int]]:
    """Disjoint cycles, each starting at its smallest point, ordered by
    that point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        out.append(cyc)
    return out


def canonical_representative(ct: Partition) -> Perm:
    """The permutation whose cycles fill 0..n-1 in order, longest first.

    This permutation anchors the split-class labeling: its Alt(n) class
    is the '+' class of its (exceptional) cycle type.
    """
    images = []
    start = 0
    for length in ct:
        images.extend(range(start + 1, start + length))
        images.append(start)
        start += length
    return tuple(images)


def _even_class(p: Perm, by_type: dict[Partition, tuple[AltClass, ...]]) -> Optional[AltClass]:
    """The Alt(n) class of p, or None when p is odd, from one walk of p."""
    cycs = cycles(p)
    if (len(p) - len(cycs)) % 2:
        return None
    cycs.sort(key=len, reverse=True)
    found = by_type[tuple(map(len, cycs))]
    if len(found) == 1:
        return found[0]
    # exceptional: the lengths are distinct, so the cycles laid end to end
    # are the canonical conjugator, and its parity picks '+' or '-'
    sigma = tuple(chain.from_iterable(cycs))
    return found[(len(sigma) - len(cycles(sigma))) % 2]


class GroupTable(NamedTuple):
    """Alt(n) fully enumerated: every even permutation and its class."""

    n: int
    classes: tuple[AltClass, ...]
    members: dict[AltClass, tuple[Perm, ...]]
    class_of: dict[Perm, AltClass]

    @property
    def order(self) -> int:
        return len(self.class_of)

    def representative(self, cls: AltClass) -> Perm:
        return self.members[cls][0]

    def size(self, cls: AltClass) -> int:
        return len(self.members[cls])


@lru_cache(maxsize=None)
def alt_conjugacy_classes(n: int) -> GroupTable:
    """Alt(n) as the union of its classes' orbits (``class_members``).

    Each class's members, and the keys of ``class_of``, are tuples, sorted
    as the orbit's bytes before one conversion: the lexicographic order of
    ``itertools.permutations``.  Capped at n = 8 to bound memory and time.
    """
    check_oracle_n(n)
    members = {c: tuple(map(tuple, sorted(class_members(c)))) for c in enumerate_alt_classes(n)}
    class_of = dict(sorted((p, c) for c, ps in members.items() for p in ps))
    return GroupTable(n, enumerate_alt_classes(n), members, class_of)


def _alt_generators(n: int) -> tuple[Perm, ...]:
    """(0 1 2) and the n-cycle (n odd) or the (n-1)-cycle fixing 0 (n
    even), which generate Alt(n) for n >= 3."""
    if n < 3:
        return ()
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        return three, tuple(range(1, n)) + (0,)
    return three, (0,) + tuple(range(2, n)) + (1,)


def _representative(cls: AltClass) -> Perm:
    """The canonical representative, conjugated by (0 1) for a '-' class."""
    rep = canonical_representative(cls.cycle_type)
    if cls.split != "-":
        return rep
    swap = (1, 0) + tuple(range(2, cls.n))
    return compose(compose(swap, rep), swap)


def _table(p: Perm) -> bytes:
    """p as a translation table: ``m.translate(_table(p))`` is p·m."""
    return bytes(p) + bytes(range(len(p), 256))


# every permutation filed by an orbit of class_members or walked by
# oracle_class_product, as bytes, and its class
_class_of: dict[bytes, AltClass] = {}


@lru_cache(maxsize=None)
def class_members(cls: AltClass) -> tuple[bytes, ...]:
    """The members of cls: the orbit of its representative under
    conjugation by the generators of Alt(n), representative first."""
    check_oracle_n(cls.n)
    # g p g^-1 gathers p through g^-1 (g^-1 translated through p's table),
    # then translates the gather through g's
    gens = [(bytes(inverse(g)), _table(g)) for g in _alt_generators(cls.n)]
    fixed = bytes(range(cls.n, 256))
    orbit = [bytes(_representative(cls))]
    seen = set(orbit)
    for p in orbit:  # grows while it is walked
        for g_inv, g in gens:
            q = g_inv.translate(p + fixed).translate(g)
            if q not in seen:
                seen.add(q)
                orbit.append(q)
    if len(orbit) != class_size(cls):
        raise ConsistencyError(
            f"orbit of {cls.name} has {len(orbit)} elements, expected {class_size(cls)}"
        )
    _class_of.update(dict.fromkeys(orbit, cls))
    return tuple(orbit)


def oracle_class_product(a: AltClass, b: AltClass) -> frozenset[AltClass]:
    """Classes meeting AB, from the members of the smaller class times one
    element of the other.  AB = BA is normal, so every class meeting it
    meets Ab and Ba for any fixed a in A and b in B.  Stops once every
    class of Alt(n) is met."""
    if a.n != b.n:
        raise UsageError("classes of different groups")
    small, other = (a, b) if class_size(a) <= class_size(b) else (b, a)
    members = class_members(small)
    # r·m in place of m·r: a conjugate by the even r, in the same class
    times_rep = _table(_representative(other))
    by_type = classes_by_type(a.n)
    every = len(enumerate_alt_classes(a.n))
    hit = set()
    for m in members:
        p = m.translate(times_rep)
        cls = _class_of.get(p)
        if cls is None:
            cls = _class_of[p] = _even_class(p, by_type)
        hit.add(cls)
        if len(hit) == every:
            break
    return frozenset(hit)


def oracle_product_set(table: GroupTable, s: NormalSet, t: NormalSet) -> NormalSet:
    """The product of two normal sets, from the oracle's class products;
    ``table`` is not read (the sets name their group)."""
    from .product_engine import product_set

    return product_set(s, t, mode="oracle")


def oracle_covering_number(table: GroupTable, cls: AltClass, k_max: int):
    """Least k <= k_max with the k-fold class product covering Alt(n),
    from the oracle's class products."""
    from .product_engine import covering_number

    return covering_number(cls, k_max, mode="oracle")
