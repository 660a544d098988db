"""Class-product analysis through exact character sums.

The number of factorizations g = xy with x in A and y in B equals
|A||B|/|G| times the sum over irreducible characters of
chi(a) chi(b) conj(chi(g)) / chi(1); the class of g lies in the normal
set AB exactly when that sum is nonzero.  Every sum is evaluated over the
full Alt(n) character table in exact integer arithmetic: each value is
(p + q*sqrt(d))/2 with integers p, q and one radicand d per character.
Each row is packed into one integer, its entry at every class in a signed
slot whose width is bounded from the table's own entries, so the sums of a
class pair at all classes are one dot product, and its radical parts one
more per radicand.  The radical part of each radicand must cancel, each
pair count must be a nonnegative integer, and the counts of a class pair
must conserve mass.  Any failure raises ConsistencyError.

Pairwise class products are bitmasks over the canonical class order, each
computed once, when first asked for, by the ProductAlgebra that holds it;
the ``jobs`` parameters are accepted and change nothing.  Every larger
product (product sets, powers, the named sweeps in ``classprod.sweeps``)
is a chain of one step in ProductAlgebra, "normal set times class".  Each
computation runs once, over the algebra of its mode (``_algebra``): the
engine's, the brute-force oracle's, or one whose every pair mask comes
from both and raises ConsistencyError where they differ.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .alt_group import (
    MODES,
    AltClass,
    NormalSet,
    class_index,
    enumerate_alt_classes,
    identity_class,
)
from .characters import CharacterTable, integer_table
from .errors import ConsistencyError, UsageError

if TYPE_CHECKING:  # imported where a sum or an error message builds one
    from fractions import Fraction

_EXACTNESS_CHECKS = 0


def exactness_check_count() -> int:
    """How many character sums have passed the radical, integrality and
    mass checks in this process."""
    return _EXACTNESS_CHECKS


class FrobeniusResult(NamedTuple):
    class_triple: tuple[AltClass, AltClass, AltClass]
    sum_value: Fraction
    pair_count: int


def _check_same_n(*classes: AltClass) -> int:
    n = classes[0].n
    for c in classes[1:]:
        if c.n != n:
            raise UsageError("classes belong to different alternating groups")
    return n


class _Lifted(NamedTuple):
    """The integer Alt(n) character table laid out for the hot loop.

    Entry (i, j) is (p + q*sqrt(d_i))/2 with integers p and q and one
    radicand d_i per row.  Row i has weight L / chi_i(1), L the lcm of the
    degrees, so that sum_i chi_i(a) chi_i(b) conj(chi_i(g)) / chi_i(1) is
    R / (8L), where R is the integer sum over i of the weight times
    (2 chi_i(a)) (2 chi_i(b)) (2 conj(chi_i(g))).
    Row i is also packed into one integer: its entry at class g is the g-th
    signed slot of ``width`` bits, class 0 lowest.
    """

    p: tuple[tuple[int, ...], ...]  # p[j][i] for class j, character i
    q: tuple[tuple[int, ...], ...]  # q[j][r] over the rows in ``rad_rows``
    weights: tuple[int, ...]
    rad_rows: tuple[int, ...]  # the irrational rows, grouped by radicand
    rad_d: tuple[int, ...]  # their radicands
    radicands: tuple[tuple[int, slice, tuple[int, ...]], ...]  # (d, span in rad_rows, packed cols)
    packed: tuple[int, ...]  # packed p of every row, then conjugated q of ``rad_rows``
    width: int  # bits per slot, a multiple of 8
    offset: int  # 2^(width-1) in every slot: added, it makes each slot nonnegative
    scale: int  # 8L
    order: int
    sizes: tuple[int, ...]


def _slot_width(weights: Sequence[int], reach: Sequence[int]) -> int:
    """Bits per signed slot, a multiple of 8, for sums over rows of these
    weights, where ``reach`` is each row's largest |p| + |d*q|.

    With M that reach, the rational and the radical part of a product of
    two entries of a row are at most M^2 in size (|d| >= 1), and of three
    at most M^3, so every part of a sum lies in [-B, B], B = sum over rows
    of weight * M^3.
    """
    bound = sum(w * x**3 for w, x in zip(weights, reach))
    return 8 * ((bound.bit_length() + 8) // 8)  # B < 2^(width - 1)


def _layout(tbl: CharacterTable) -> _Lifted:
    """The hot-loop layout of an integer character table; each row may
    take irrational values over one radicand only."""
    k, m = len(tbl.chars), len(tbl.classes)
    row_d = []
    for psi, row in zip(tbl.chars, tbl.values):
        ds = sorted({d for _, q, d in row if q})
        if len(ds) > 1:
            raise ConsistencyError(f"character {psi.name} takes values over radicands {ds}")
        row_d.append(ds[0] if ds else 1)
    rad_rows = tuple(sorted((i for i in range(k) if row_d[i] != 1), key=lambda i: (row_d[i], i)))
    rad_d = tuple(row_d[i] for i in rad_rows)
    p_rows = [[x[0] for x in row] for row in tbl.values]
    p = tuple(zip(*p_rows))
    q = tuple(tuple(tbl.values[i][j][1] for i in rad_rows) for j in range(m))
    # the complex conjugate flips q where the radicand is negative
    qbar_rows = [[-x if d < 0 else x for x in q_row] for q_row, d in zip(zip(*q), rad_d)]
    reach = [max(max(row), -min(row)) for row in p_rows]
    for i, d, q_row in zip(rad_rows, rad_d, qbar_rows):
        reach[i] = max(abs(x) + abs(d * y) for x, y in zip(p_rows[i], q_row))
    lcm = math.lcm(*tbl.degrees)
    weights = tuple(lcm // deg for deg in tbl.degrees)
    width = _slot_width(weights, reach)
    nbytes, half = width // 8, 1 << (width - 1)
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * m, "little")
    slots = {x: (x + half).to_bytes(nbytes, "little") for x in set().union(*p_rows, *qbar_rows)}

    def pack(row: Iterable[int]) -> int:
        return int.from_bytes(b"".join(map(slots.__getitem__, row)), "little") - offset

    packed_p = [pack(row) for row in p_rows]
    packed_q = [pack(row) for row in qbar_rows]
    radicands = []
    for d in sorted(set(rad_d)):
        first = rad_d.index(d)
        at = slice(first, first + rad_d.count(d))
        radicands.append((d, at, tuple(packed_q[at]) + tuple(packed_p[i] for i in rad_rows[at])))
    return _Lifted(
        p=p,
        q=q,
        weights=weights,
        rad_rows=rad_rows,
        rad_d=rad_d,
        radicands=tuple(radicands),
        packed=tuple(packed_p + packed_q),
        width=width,
        offset=offset,
        scale=8 * lcm,
        order=tbl.order,
        sizes=tbl.class_sizes,
    )


@lru_cache(maxsize=None)
def _lifted(n: int) -> _Lifted:
    return _layout(integer_table(n))


def _unpacked(lay: _Lifted, packed: int) -> list[int]:
    """The signed slots of a packed sum, in class order."""
    nbytes, half = lay.width // 8, 1 << (lay.width - 1)
    try:
        raw = (packed + lay.offset).to_bytes(nbytes * len(lay.sizes), "little")
    except OverflowError:
        raise ConsistencyError(f"character sums overflow their {lay.width}-bit slots") from None
    return [int.from_bytes(raw[s : s + nbytes], "little") - half for s in range(0, len(raw), nbytes)]


def _pair_sums(lay: _Lifted, ia: int, ib: int) -> list[int]:
    """The integer sums R of the classes a, b (indices) with every class g,
    in class order; raises ConsistencyError unless every radical part
    cancels."""
    pa, pb, qa, qb, w = lay.p[ia], lay.p[ib], lay.q[ia], lay.q[ib], lay.weights
    # u + v*sqrt(d) = weight * (2 chi(a)) * (2 chi(b)), row by row
    u = [wi * x * y for wi, x, y in zip(w, pa, pb)]
    v = []
    for r, (i, d) in enumerate(zip(lay.rad_rows, lay.rad_d)):
        u[i] += w[i] * d * qa[r] * qb[r]
        v.append(w[i] * (pa[i] * qb[r] + qa[r] * pb[i]))
    rational = u + [d * x for d, x in zip(lay.rad_d, v)]
    sums = _unpacked(lay, sum(map(mul, rational, lay.packed)))
    for d, at, cols in lay.radicands:
        # the radical part sum(u*conj(q) + v*p) over this radicand's rows:
        # ``cols`` holds their packed conj(q), then their packed p
        kept = sum(map(mul, [u[i] for i in lay.rad_rows[at]] + v[at], cols))
        if kept:
            from fractions import Fraction

            jg, part = next((j, x) for j, x in enumerate(_unpacked(lay, kept)) if x)
            raise ConsistencyError(
                f"character sum at class {jg} kept a radical part "
                f"{Fraction(part, lay.scale)}*sqrt({d})"
            )
    return sums


def _counted(sums: list[int], sa: int, sb: int, den: int, sizes: Iterable[int]) -> list[int]:
    """Pair counts sa*sb*R/den from the sums R of one class pair; each must
    be a nonnegative integer, and the counts must conserve mass:
    sum over g of |C_g| * count(g) = sa*sb.  One exactness check per sum."""
    global _EXACTNESS_CHECKS
    counts = []
    for r in sums:
        num = sa * sb * r
        if num < 0 or num % den:
            from fractions import Fraction

            raise ConsistencyError(
                f"pair count {Fraction(num, den)} is not a nonnegative integer"
            )
        counts.append(num // den)
    total = sum(map(mul, sizes, counts))
    if total != sa * sb:
        raise ConsistencyError(f"pair counts give mass {total}, not |A||B| = {sa * sb}")
    _EXACTNESS_CHECKS += len(counts)
    return counts


def _pair_counts(n: int, ia: int, ib: int) -> tuple[_Lifted, list[int], list[int]]:
    """The layout, the sums and the checked pair counts of one class pair."""
    lay = _lifted(n)
    sums = _pair_sums(lay, ia, ib)
    sa, sb = lay.sizes[ia], lay.sizes[ib]
    return lay, sums, _counted(sums, sa, sb, lay.scale * lay.order, lay.sizes)


def frobenius_sum(a: AltClass, b: AltClass, g: AltClass) -> FrobeniusResult:
    """Exact factorization count data for g = xy, x in A, y in B."""
    from fractions import Fraction

    n = _check_same_n(a, b, g)
    idx = class_index(n)
    lay, sums, counts = _pair_counts(n, idx[a], idx[b])
    jg = idx[g]
    return FrobeniusResult((a, b, g), Fraction(sums[jg], lay.scale), counts[jg])


def contains(a: AltClass, b: AltClass, g: AltClass) -> bool:
    """Does the normal set AB contain the class of g?  Read from the
    engine's pair mask of (A, B), computed once."""
    n = _check_same_n(a, b, g)
    idx = class_index(n)
    return bool(_engine_algebra(n).pair(idx[a], idx[b]) >> idx[g] & 1)


def _compute_pair_mask(n: int, ia: int, ib: int) -> int:
    _, _, counts = _pair_counts(n, ia, ib)
    return sum(1 << jg for jg, count in enumerate(counts) if count)


def ensure_pair_masks(
    n: int, pairs: Optional[Iterable[tuple[int, int]]] = None, jobs: int = 1
) -> None:
    """Compute the engine's masks of the class pairs (i, j), i <= j, in
    ``pairs`` (None: all) that it does not hold yet, one after another;
    ``jobs`` is accepted and changes nothing."""
    alg, k = _engine_algebra(n), len(enumerate_alt_classes(n))
    for i, j in combinations_with_replacement(range(k), 2) if pairs is None else pairs:
        alg.pair(i, j)


def _bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(n: int, classes: Iterable[AltClass]) -> int:
    """The class bitmask of some classes of Alt(n)."""
    idx = class_index(n)
    mask = 0
    for cls in classes:
        mask |= 1 << idx[cls]
    return mask


def names_in(names: Sequence, mask: int) -> tuple:
    """The entries of ``names`` (classes in canonical order, or their
    names) at the set bits of a class bitmask."""
    return tuple(names[j] for j in _bit_indices(mask))


class ProductAlgebra:
    """Normal-set products of Alt(n) as class bitmasks.  ``pairs`` holds
    the mask of each class pair (i, j), i <= j (normal sets commute), that
    has been asked for; ``pair_mask(i, j)`` computes a missing one.
    ``times(mask, c)`` asks only for the pairs of c with the classes in the
    mask and stops as soon as their union is all of Alt(n), as
    ``product`` does; all of Alt(n) times any class is all of Alt(n)
    (GC = G) without a pair.  So only the pairs a product needs are
    computed.  Its results are memoised, so a chain met again asks for
    none.
    """

    def __init__(self, n: int, pair_mask: Callable[[int, int], int]):
        self.full = (1 << len(enumerate_alt_classes(n))) - 1
        self.pairs: dict[tuple[int, int], int] = {}
        self._pair_mask = pair_mask
        self._memo: dict[tuple[int, int], int] = {}

    def pair(self, i: int, j: int) -> int:
        """The product of the classes with indices i and j."""
        key = (i, j) if i <= j else (j, i)
        if key not in self.pairs:
            self.pairs[key] = self._pair_mask(*key)
        return self.pairs[key]

    def times(self, mask: int, c: int) -> int:
        """The normal set ``mask`` times the class with index c."""
        if mask == self.full:
            return mask
        key = (mask, c)
        if key not in self._memo:
            out = 0
            for i in _bit_indices(mask):
                out |= self.pair(i, c)
                if out == self.full:
                    break
            self._memo[key] = out
        return self._memo[key]

    def product(self, mask_a: int, mask_b: int) -> int:
        """The product of two normal sets."""
        out = 0
        for c in _bit_indices(mask_b):
            out |= self.times(mask_a, c)
            if out == self.full:
                break
        return out

    def chain(self, classes: Iterable[int]) -> int:
        """The product of the classes with these indices, left to right."""
        first, *rest = classes
        mask = 1 << first
        for c in rest:
            mask = self.times(mask, c)
        return mask

    def powers(self, c: int, k: int) -> tuple[list[int], Optional[int]]:
        """C, C^2, ..., C^k for the class C with index c, cut before the
        first repeated mask, and the position in that list of the mask the
        cut repeats (None: no cut).  Each power is a function of the one
        before, so from a repeat on the powers cycle through the list's
        tail: no later one is new."""
        masks = [1 << c]
        seen = {masks[0]: 0}
        while len(masks) < k:
            mask = self.times(masks[-1], c)
            if mask in seen:
                return masks, seen[mask]
            seen[mask] = len(masks)
            masks.append(mask)
        return masks, None

    def power(self, c: int, k: int) -> int:
        """C^k for the class C with index c, read off the cycle of its
        powers once one repeats."""
        masks, start = self.powers(c, k)
        if k <= len(masks):
            return masks[k - 1]
        return masks[start + (k - 1 - start) % (len(masks) - start)]


@lru_cache(maxsize=None)
def _engine_algebra(n: int) -> ProductAlgebra:
    """One engine algebra per n, so its memo outlives a single call."""
    return ProductAlgebra(n, partial(_compute_pair_mask, n))


@lru_cache(maxsize=None)
def _oracle_algebra(n: int) -> ProductAlgebra:
    """One oracle algebra per n, like the engine's."""
    from . import brute_force

    brute_force.check_oracle_n(n)
    classes = enumerate_alt_classes(n)
    return ProductAlgebra(
        n, lambda i, j: _mask_of(n, brute_force.oracle_class_product(classes[i], classes[j]))
    )


def _algebra(n: int, mode: str) -> ProductAlgebra:
    """The algebra of a mode: the engine's, the brute-force oracle's, or,
    for ``both``, a fresh one whose every pair mask is asked of the engine,
    then of the oracle, and must agree.  The oracle's algebra comes first,
    so a group too large for it fails before any engine work.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    if mode == "engine":
        return _engine_algebra(n)
    oracle = _oracle_algebra(n)
    if mode == "oracle":
        return oracle
    engine, classes = _engine_algebra(n), enumerate_alt_classes(n)

    def checked(i: int, j: int) -> int:
        mask = engine.pair(i, j)
        if mask != oracle.pair(i, j):
            raise ConsistencyError(
                f"engine and oracle products of {classes[i].name} and "
                f"{classes[j].name} disagree at n={n}"
            )
        return mask

    return ProductAlgebra(n, checked)


def product_set(s: NormalSet, t: NormalSet, mode: str = "engine") -> NormalSet:
    """All classes meeting the product of two normal sets."""
    if s.n != t.n:
        raise UsageError("normal sets over different groups")
    mask = _algebra(s.n, mode).product(_mask_of(s.n, s.classes), _mask_of(t.n, t.classes))
    return NormalSet(s.n, frozenset(names_in(enumerate_alt_classes(s.n), mask)))


def covering_number(cls: AltClass, k_max: int, mode: str = "engine") -> Optional[int]:
    """Least k <= k_max whose k-fold product covers Alt(n), if any."""
    if k_max < 1:
        raise UsageError("k_max must be positive")
    if cls == identity_class(cls.n):
        raise UsageError("covering number is defined for nontrivial classes")
    alg = _algebra(cls.n, mode)
    masks, _ = alg.powers(class_index(cls.n)[cls], k_max)
    return next((k for k, mask in enumerate(masks, 1) if mask == alg.full), None)


def missing_classes(cls: AltClass, k: int, mode: str = "engine") -> tuple[AltClass, ...]:
    """Classes not reached by the k-fold product of a class with itself."""
    if k < 1:
        raise UsageError("k must be positive")
    alg, c = _algebra(cls.n, mode), class_index(cls.n)[cls]
    return names_in(enumerate_alt_classes(cls.n), alg.full & ~alg.power(c, k))


_SWEEPS = {
    "check_dvir_rodgers", "dvir_rodgers_applies",
    "long_cycle_product_checks", "verify_four_class_theorem",
}


def __getattr__(name: str):
    """The sweeps ``perfbench/replay.py`` imports from here, read from
    ``classprod.sweeps`` (PEP 562); this goes when the replay does."""
    if name in _SWEEPS:
        from . import sweeps

        return getattr(sweeps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
