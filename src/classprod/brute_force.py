"""Ground-truth oracle: explicit permutation arithmetic for small n.

Everything here works by exhaustive enumeration over Alt(n) and is capped
at n <= 8 (20160 elements).  Permutations are tuples of images on the
points 0..n-1, composed right-to-left: ``compose(p, q)(i) == p(q(i))``.
The convention matters because split-class membership of products depends
on it; it is frozen here and used consistently everywhere.

Each permutation is classified from one walk of its cycles: the number of
cycles gives the parity (odd permutations are dropped there), their sorted
lengths give the cycle type, and the class is looked up among
``enumerate_alt_classes(n)``.  For an exceptional type the split tag is
read off the same cycles.  Laid end to end, longest first, they spell the
canonical conjugator: position i of the canonical representative (whose
cycles fill 0..n-1 in order, longest first) goes to the i-th point of
that sequence.  An even conjugator means the '+' class, an odd one the
'-' class.  The conjugator is fixed up to the centralizer, which the
odd-length, hence even, cycles generate, so its sign is well defined.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from typing import NamedTuple, Optional

from .alt_group import AltClass, NormalSet, enumerate_alt_classes
from .characters import QuadValue, _squarefree_decompose
from .errors import CapabilityError, ConsistencyError, UsageError
from .partitions import Partition

Perm = tuple[int, ...]

ORACLE_MAX_N = 8
TABLE_MAX_N = 7


def identity(n: int) -> Perm:
    return tuple(range(n))


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


@lru_cache(maxsize=None)
def _classes_by_type(n: int) -> dict[Partition, tuple[AltClass, ...]]:
    """The classes of Alt(n) keyed by cycle type: one class for a type that
    does not split, the '+' and then the '-' class for one that does."""
    out: dict[Partition, tuple[AltClass, ...]] = {}
    for cls in enumerate_alt_classes(n):
        out[cls.cycle_type] = out.get(cls.cycle_type, ()) + (cls,)
    return out


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


def classify(p: Perm) -> AltClass:
    cls = _even_class(p, _classes_by_type(len(p)))
    if cls is None:
        raise ValueError(f"{p} is odd, not an element of Alt({len(p)})")
    return cls


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
    """Enumerate Alt(n) and partition it into conjugacy classes.

    Each permutation is walked once (see the module docstring); members
    keep the lexicographic order of ``itertools.permutations``.  Capped
    at n = 8 to bound memory and time.
    """
    if n < 1:
        raise UsageError("n must be positive")
    if n > ORACLE_MAX_N:
        raise CapabilityError(f"brute-force mode supports n <= {ORACLE_MAX_N}, got {n}")
    by_type = _classes_by_type(n)
    members: dict[AltClass, list[Perm]] = {c: [] for c in enumerate_alt_classes(n)}
    class_of: dict[Perm, AltClass] = {}
    for p in permutations(range(n)):
        cls = _even_class(p, by_type)
        if cls is not None:
            members[cls].append(p)
            class_of[p] = cls
    return GroupTable(
        n,
        enumerate_alt_classes(n),
        {c: tuple(ps) for c, ps in members.items()},
        class_of,
    )


def oracle_pair_count(table: GroupTable, a: AltClass, b: AltClass, g: Perm) -> int:
    """|{(x, y) in A x B : xy = g}| by direct enumeration of x."""
    count = 0
    b_lookup = set(table.members[b])
    for x in table.members[a]:
        if compose(inverse(x), g) in b_lookup:
            count += 1
    return count


def oracle_class_product(table: GroupTable, a: AltClass, b: AltClass) -> frozenset[AltClass]:
    """Classes meeting AB.  One fixed a suffices: AB is normal, so every
    class intersecting AB intersects aB."""
    image = table.representative(a).__getitem__
    class_of = table.class_of
    return frozenset(class_of[tuple(map(image, y))] for y in table.members[b])


def oracle_product_set(table: GroupTable, s: NormalSet, t: NormalSet) -> NormalSet:
    hit: set[AltClass] = set()
    for a in s:
        for b in t:
            hit |= oracle_class_product(table, a, b)
    return NormalSet(table.n, frozenset(hit))


def oracle_covering_number(table: GroupTable, cls: AltClass, k_max: int):
    """Least k <= k_max with the k-fold class product covering Alt(n)."""
    single = NormalSet.of([cls])
    current = single
    for k in range(1, k_max + 1):
        if k > 1:
            current = oracle_product_set(table, current, single)
        if current.is_full():
            return k
    return None


# ---------------------------------------------------------------------------
# Exact character table from class multiplication coefficients
# ---------------------------------------------------------------------------


def _class_algebra_matrices(table: GroupTable) -> list[list[list[int]]]:
    """a[i][j][k] = number of pairs (x, y) in C_i x C_j with x y = g_k,
    for a fixed representative g_k."""
    classes = table.classes
    k = len(classes)
    index = {c: i for i, c in enumerate(classes)}
    reps = [table.representative(c) for c in classes]
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, ci in enumerate(classes):
        for kk, rep in enumerate(reps):
            for x in table.members[ci]:
                j = index[table.class_of[compose(inverse(x), rep)]]
                a[i][j][kk] += 1
    return a


def _quad_roots(coeffs: list[int]) -> list[QuadValue]:
    """Roots of an integer polynomial of degree <= 2."""
    if len(coeffs) == 2:
        b, c = coeffs
        return [QuadValue(Fraction(-c, b))]
    a, b, c = coeffs
    disc = b * b - 4 * a * c
    if disc == 0:
        return [QuadValue(Fraction(-b, 2 * a))]
    s, d = _squarefree_decompose(abs(disc))
    d = d if disc > 0 else -d
    return [
        QuadValue(Fraction(-b, 2 * a), Fraction(sign * s, 2 * a), d)
        for sign in (1, -1)
    ]


def _nullspace_vector(matrix: list[list[QuadValue]]) -> list[QuadValue]:
    """A nonzero kernel vector of a square matrix over one quadratic field;
    insists the kernel is one-dimensional."""
    k = len(matrix)
    rows = [row[:] for row in matrix]
    pivot_cols = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, k) if not rows[i][col].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = QuadValue(1) / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(k):
            if i != r and not rows[i][col].is_zero:
                factor = rows[i][col]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    free = [c for c in range(k) if c not in pivot_cols]
    if len(free) != 1:
        raise ConsistencyError(f"eigenspace dimension {len(free)}, expected 1")
    vec = [QuadValue(0)] * k
    vec[free[0]] = QuadValue(1)
    for row, col in zip(rows, pivot_cols):
        vec[col] = -row[free[0]]
    return vec


def oracle_character_table(table: GroupTable) -> tuple[tuple[QuadValue, ...], ...]:
    """The character table of Alt(n), computed without the recursion used
    by the engine: simultaneous eigenvectors of the class multiplication
    matrices (central characters), rescaled by the degrees.

    Rows are sorted by (degree, entries); columns follow table.classes.
    Capped at n = 7.
    """
    n = table.n
    if n > TABLE_MAX_N:
        raise CapabilityError(f"oracle character table capped at n = {TABLE_MAX_N}")
    import sympy

    classes = table.classes
    k = len(classes)
    order = table.order
    sizes = [table.size(c) for c in classes]
    id_idx = classes.index(AltClass((1,) * n))
    a = _class_algebra_matrices(table)

    rng = random.Random(1729)
    for _ in range(80):
        weights = [rng.randrange(1, 10) for _ in range(k)]
        combo = [
            [sum(w * a[i][j][kk] for i, w in enumerate(weights)) for kk in range(k)]
            for j in range(k)
        ]
        x = sympy.Symbol("x")
        poly = sympy.Matrix(combo).charpoly(x)
        _, factors = sympy.factor_list(poly.as_expr(), x)
        if any(mult > 1 or sympy.degree(f, x) > 2 for f, mult in factors):
            continue
        roots: list[QuadValue] = []
        for f, _ in factors:
            coeffs = [int(c) for c in sympy.Poly(f, x).all_coeffs()]
            roots.extend(_quad_roots(coeffs))
        if len(roots) != k or len(set(roots)) != k:
            continue
        rows = []
        for root in roots:
            shifted = [
                [QuadValue(combo[i][j]) - (root if i == j else QuadValue(0)) for j in range(k)]
                for i in range(k)
            ]
            vec = _nullspace_vector(shifted)
            if vec[id_idx].is_zero:
                raise ConsistencyError("central character vanishes on the identity")
            scale = QuadValue(1) / vec[id_idx]
            omega = [v * scale for v in vec]
            # chi(1)^2 = |G| / sum_j |omega_j|^2 / |C_j| ; the sum collapses
            # to a rational once conjugate columns cancel.
            buckets: dict[int, Fraction] = {}
            rational = Fraction(0)
            for oj, size in zip(omega, sizes):
                term = oj * oj.conjugate() * Fraction(1, size)
                rational += term.a
                if term.b:
                    buckets[term.d] = buckets.get(term.d, Fraction(0)) + term.b
            if any(buckets.values()):
                raise ConsistencyError("norm sum failed to collapse to a rational")
            deg_sq = Fraction(order) / rational
            if deg_sq.denominator != 1:
                raise ConsistencyError("non-integral squared degree")
            deg = math.isqrt(deg_sq.numerator)
            if deg * deg != deg_sq.numerator:
                raise ConsistencyError("squared degree is not a perfect square")
            rows.append(
                tuple(
                    oj * Fraction(deg, size) for oj, size in zip(omega, sizes)
                )
            )
        if len(rows) == k:
            key = lambda row: (
                row[id_idx].a,
                [(v.a, v.b, v.d) for v in row],
            )
            return tuple(sorted(rows, key=key))
    raise ConsistencyError("no random class-sum combination separated the characters")
