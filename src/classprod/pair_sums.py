"""Exact character sums of class pairs, packed into big integers.

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

This is the layer below ``classprod.product_engine``, which turns each
pair's counts into a class bitmask (``_compute_pair_mask``) and builds
every larger product from those masks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .alt_group import AltClass, class_index
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


def _compute_pair_mask(n: int, ia: int, ib: int) -> int:
    """The class bitmask of the product of the classes ia and ib: the
    classes whose checked pair count is nonzero."""
    _, _, counts = _pair_counts(n, ia, ib)
    return sum(1 << jg for jg, count in enumerate(counts) if count)


def frobenius_sum(a: AltClass, b: AltClass, g: AltClass) -> FrobeniusResult:
    """Exact factorization count data for g = xy, x in A, y in B."""
    from fractions import Fraction

    n = _check_same_n(a, b, g)
    idx = class_index(n)
    lay, sums, counts = _pair_counts(n, idx[a], idx[b])
    jg = idx[g]
    return FrobeniusResult((a, b, g), Fraction(sums[jg], lay.scale), counts[jg])
