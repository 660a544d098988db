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
must conserve mass.  The checks and the pair's class bitmask are read off
the packed sum as whole integers (``_checked``, ``_compute_pair_mask``):
a few bit operations and one division, and one pass over the bytes of
the quotient for the mass; a slot is decoded on its own only to name a
failure.  Any failure raises ConsistencyError.

This is the layer below ``classprod.product_engine``, which turns each
pair's counts into a class bitmask (``_compute_pair_mask``) and builds
every larger product from those masks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
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


class _Slots(NamedTuple):
    """Signed slots of ``width`` bits, one per class, in one integer,
    class 0 lowest."""

    width: int  # bits per slot, a multiple of 8
    ones: int  # 1 in every slot
    offset: int  # 2^(width-1) in every slot: added, it makes each slot nonnegative
    cuts: tuple[slice, ...]  # each slot's bytes in the little-endian image, in class order


def _slots(width: int, m: int) -> _Slots:
    nbytes = width // 8
    ones = int.from_bytes((b"\1" + bytes(nbytes - 1)) * m, "little")
    cuts = tuple(slice(s, s + nbytes) for s in range(0, nbytes * m, nbytes))
    return _Slots(width, ones, ones << (width - 1), cuts)


class _Lifted(NamedTuple):
    """The integer Alt(n) character table laid out for the hot loop.

    Entry (i, j) is (p + q*sqrt(d_i))/2 with integers p and q and one
    radicand d_i per row.  Row i has weight L / chi_i(1), L the lcm of the
    degrees, so that sum_i chi_i(a) chi_i(b) conj(chi_i(g)) / chi_i(1) is
    R / (8L), where R is the integer sum over i of the weight times
    (2 chi_i(a)) (2 chi_i(b)) (2 conj(chi_i(g))).
    Row i is also packed into one integer: its entry at class g is the g-th
    signed slot of ``slots``, class 0 lowest.
    """

    p: tuple[tuple[int, ...], ...]  # p[j][i] for class j, character i
    q: tuple[tuple[int, ...], ...]  # q[j][r] over the rows in ``rad_rows``
    weights: tuple[int, ...]
    rad_rows: tuple[int, ...]  # the irrational rows, grouped by radicand
    rad_d: tuple[int, ...]  # their radicands
    radicands: tuple[tuple[int, slice, tuple[int, ...]], ...]  # (d, span in rad_rows, packed cols)
    packed: tuple[int, ...]  # packed p of every row, then conjugated q of ``rad_rows``
    slots: _Slots
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
    slots = _slots(_slot_width(weights, reach), m)
    nbytes, half = slots.width // 8, 1 << (slots.width - 1)
    image = {x: (x + half).to_bytes(nbytes, "little") for x in set().union(*p_rows, *qbar_rows)}

    def pack(row: Iterable[int]) -> int:
        return int.from_bytes(b"".join(map(image.__getitem__, row)), "little") - slots.offset

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
        slots=slots,
        scale=8 * lcm,
        order=tbl.order,
        sizes=tbl.class_sizes,
    )


@lru_cache(maxsize=None)
def _lifted(n: int) -> _Lifted:
    return _layout(integer_table(n))


def _shifted(slots: _Slots, packed: int) -> int:
    """A packed sum plus ``slots.offset``, which holds every slot
    nonnegative; raises ConsistencyError if the sums overflow their slots."""
    shifted = packed + slots.offset
    if shifted >> (slots.width * len(slots.cuts)):  # below 0, or past the top slot
        raise ConsistencyError(f"character sums overflow their {slots.width}-bit slots")
    return shifted


def _signed(slots: _Slots, packed: int) -> list[int]:
    """The signed slots of a packed sum, in class order; decoded only to
    name a failure."""
    width, half = slots.width, 1 << (slots.width - 1)
    shifted, full = _shifted(slots, packed), (1 << width) - 1
    return [(shifted >> (width * g) & full) - half for g in range(len(slots.cuts))]


def _pair_sum(lay: _Lifted, ia: int, ib: int) -> int:
    """The integer sums R of the classes a, b (indices) with every class g,
    packed in ``lay.slots``; raises ConsistencyError unless every radical
    part cancels."""
    pa, pb, qa, qb, w = lay.p[ia], lay.p[ib], lay.q[ia], lay.q[ib], lay.weights
    # u + v*sqrt(d) = weight * (2 chi(a)) * (2 chi(b)), row by row
    u = [wi * x * y for wi, x, y in zip(w, pa, pb)]
    v = []
    for r, (i, d) in enumerate(zip(lay.rad_rows, lay.rad_d)):
        u[i] += w[i] * d * qa[r] * qb[r]
        v.append(w[i] * (pa[i] * qb[r] + qa[r] * pb[i]))
    for d, at, cols in lay.radicands:
        # the radical part sum(u*conj(q) + v*p) over this radicand's rows:
        # ``cols`` holds their packed conj(q), then their packed p
        kept = sum(map(mul, [u[i] for i in lay.rad_rows[at]] + v[at], cols))
        if kept:
            from fractions import Fraction

            jg, part = next((j, x) for j, x in enumerate(_signed(lay.slots, kept)) if x)
            raise ConsistencyError(
                f"character sum at class {jg} kept a radical part "
                f"{Fraction(part, lay.scale)}*sqrt({d})"
            )
    rational = u + [d * x for d, x in zip(lay.rad_d, v)]
    return sum(map(mul, rational, lay.packed))


def _checked(
    total: int, slots: _Slots, sizes: Sequence[int], ab: int, den: int
) -> tuple[int, int]:
    """Check the packed sums R of one class pair, whose pair counts are
    ab*R/den (ab = |A||B|), as whole integers, and return (e, Q) with
    e = den / gcd(den, ab): the sum at class g is e times the g-th slot
    q_g of Q, and the pair count ab / gcd(den, ab) times it.

    The sums must fit their slots; every count must be a nonnegative
    integer (every R_g >= 0, and R = e*Q slot by slot); and the counts
    must conserve mass: the sum over g of |C_g| * count(g) is ab, that is,
    the sum of |C_g| * q_g is gcd(den, ab).  One exactness check per slot.
    """
    global _EXACTNESS_CHECKS
    width, offset, m = slots.width, slots.offset, len(sizes)
    shifted = _shifted(slots, total)
    unit = math.gcd(den, ab)
    e = den // unit
    quotient, rest = divmod(total, e)
    # with the top bit of every slot of S + offset set, S is a plain
    # base-2^w number whose slots are the R_g, each in [0, 2^(w-1)); a true
    # quotient slot R_g/e is then below 2^(w-1)/e < 2^low.  Below 2^low, e
    # times a slot stays below 2^w, so e*Q carries nothing from slot to
    # slot and its slots are the R_g.  When e passes 2^(w-1), every R_g
    # must be 0, and low = 0 asks Q = 0.
    low = max(width - (e - 1).bit_length(), 0)
    if shifted & offset != offset or rest or quotient & slots.ones * ((1 << width) - (1 << low)):
        from fractions import Fraction

        r = next(x for x in _signed(slots, total) if x < 0 or ab * x % den)
        raise ConsistencyError(f"pair count {Fraction(ab * r, den)} is not a nonnegative integer")
    raw = quotient.to_bytes(width // 8 * m, "little")
    digits = map(int.from_bytes, map(raw.__getitem__, slots.cuts), repeat("little"))
    mass = sum(map(mul, sizes, digits))
    if mass != unit:
        raise ConsistencyError(f"pair counts give mass {mass * (ab // unit)}, not |A||B| = {ab}")
    _EXACTNESS_CHECKS += m
    return e, quotient


def _pair_quotient(n: int, ia: int, ib: int) -> tuple[_Lifted, int, int]:
    """The layout and the checked (e, Q) of one class pair (``_checked``)."""
    lay = _lifted(n)
    ab = lay.sizes[ia] * lay.sizes[ib]
    den = lay.scale * lay.order
    return (lay, *_checked(_pair_sum(lay, ia, ib), lay.slots, lay.sizes, ab, den))


_BITS = bytes.maketrans(b"\0\x80", b"01")


def _compute_pair_mask(n: int, ia: int, ib: int) -> int:
    """The class bitmask of the product of the classes ia and ib: the
    classes whose checked pair count is nonzero.  Slot g of
    Q + offset - ones has its top bit set exactly when q_g > 0; the
    big-endian image of those bits, one top byte per slot, is the mask's
    binary digits, class m-1 first."""
    lay, _, quotient = _pair_quotient(n, ia, ib)
    slots, nbytes = lay.slots, lay.slots.width // 8
    bits = (quotient + slots.offset - slots.ones) & slots.offset
    return int(bits.to_bytes(nbytes * len(lay.sizes), "big")[::nbytes].translate(_BITS), 2)


def frobenius_sum(a: AltClass, b: AltClass, g: AltClass) -> FrobeniusResult:
    """Exact factorization count data for g = xy, x in A, y in B."""
    from fractions import Fraction

    n = _check_same_n(a, b, g)
    idx = class_index(n)
    ia, ib, jg = idx[a], idx[b], idx[g]
    lay, e, quotient = _pair_quotient(n, ia, ib)
    width = lay.slots.width
    r = e * (quotient >> (width * jg) & ((1 << width) - 1))
    count = lay.sizes[ia] * lay.sizes[ib] * r // (lay.scale * lay.order)
    return FrobeniusResult((a, b, g), Fraction(r, lay.scale), count)
