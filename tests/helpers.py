"""Shared exact-arithmetic helpers for the test suite."""

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from operator import itemgetter
from typing import NamedTuple

from classprod.alt_group import AltClass
from classprod.brute_force import GroupTable, Perm, compose, inverse
from classprod.characters import _squarefree_decompose
from classprod.errors import CapabilityError, ConsistencyError
from classprod.partitions import conjugate
from classprod.quadvalue import QuadValue


def quad_sum(terms) -> Fraction:
    """Sum QuadValues across fields; insist the radical parts cancel."""
    rational = Fraction(0)
    buckets: dict[int, Fraction] = {}
    for term in terms:
        rational += term.a
        if term.b:
            buckets[term.d] = buckets.get(term.d, Fraction(0)) + term.b
    assert not any(buckets.values()), f"radical parts did not cancel: {buckets}"
    return rational


def frobenius_reference(table, a: int, b: int, g: int) -> Fraction:
    """Sum over characters of chi(a) chi(b) conj(chi(g)) / chi(1), in
    QuadValue arithmetic, for the classes with indices a, b and g."""
    return quad_sum(
        row[a] * row[b] * row[g].conjugate() * Fraction(1, deg)
        for row, deg in zip(table.values, table.degrees)
    )


def exact_sign(value) -> int:
    """Exact sign of a real QuadValue a + b*sqrt(d) (d > 0, or rational)."""
    assert value.d > 0, f"{value} is not real"
    a, b = value.a, value.b
    sign_a, sign_b = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sign_a == sign_b or not sign_b:
        return sign_a
    if not sign_a:
        return sign_b
    # opposite signs: the larger of a*a and b*b*d decides
    diff = a * a - b * b * value.d
    return sign_a if diff > 0 else sign_b if diff < 0 else 0


def row_orthogonality_holds(table) -> bool:
    """Sum over classes of |C| chi_i(C) conj(chi_j(C)) == |G| delta_ij."""
    k = len(table.chars)
    for i in range(k):
        for j in range(i, k):
            total = quad_sum(
                table.values[i][c] * table.values[j][c].conjugate() * size
                for c, size in enumerate(table.class_sizes)
            )
            if total != (table.order if i == j else 0):
                return False
    return True


def column_orthogonality_holds(table) -> bool:
    """Sum over characters of chi(C) conj(chi(C')) == |centralizer| delta_CC'."""
    m = len(table.classes)
    for c1 in range(m):
        for c2 in range(c1, m):
            total = quad_sum(
                table.values[i][c1] * table.values[i][c2].conjugate()
                for i in range(len(table.chars))
            )
            expect = (
                Fraction(table.order, table.class_sizes[c1]) if c1 == c2 else 0
            )
            if total != expect:
                return False
    return True


def unpacked_reference(slots, packed: int) -> list[int]:
    """The signed slots of a packed sum, in class order, decoded one slot
    at a time."""
    nbytes, half = slots.width // 8, 1 << (slots.width - 1)
    try:
        raw = (packed + slots.offset).to_bytes(nbytes * len(slots.cuts), "little")
    except OverflowError:
        raise ConsistencyError(f"character sums overflow their {slots.width}-bit slots") from None
    return [int.from_bytes(raw[s : s + nbytes], "little") - half for s in range(0, len(raw), nbytes)]


def counted_reference(sums: list[int], sa: int, sb: int, den: int, sizes) -> list[int]:
    """Pair counts sa*sb*R/den from the sums R of one class pair, checked
    one at a time: each must be a nonnegative integer, and the counts must
    conserve mass, sum over g of |C_g| * count(g) = sa*sb."""
    counts = []
    for r in sums:
        num = sa * sb * r
        if num < 0 or num % den:
            raise ConsistencyError(f"pair count {Fraction(num, den)} is not a nonnegative integer")
        counts.append(num // den)
    total = sum(size * count for size, count in zip(sizes, counts))
    if total != sa * sb:
        raise ConsistencyError(f"pair counts give mass {total}, not |A||B| = {sa * sb}")
    return counts


def pair_reference(lay, total: int, ia: int, ib: int) -> tuple[list[int], list[int], int]:
    """The sums, the pair counts and the class bitmask of the class pair
    (ia, ib), from its packed sum ``total`` in the layout ``lay``, by the
    per-slot decode and checks."""
    sums = unpacked_reference(lay.slots, total)
    sizes = lay.sizes
    counts = counted_reference(sums, sizes[ia], sizes[ib], lay.scale * lay.order, sizes)
    return sums, counts, sum(1 << g for g, count in enumerate(counts) if count)


def four_class_groups_reference(report, pairs=None):
    """``FourClassReport.groups`` by sorting: each row's quadruple sorted on
    its own, then each group of equal least product sorted whole."""
    order, masks, verdicts = report.order, report.masks, dict(report.verdicts)
    for least, group_pairs in groupby(report.pairs if pairs is None else pairs, itemgetter(2)):
        group = []
        for p, q, _, _ in group_pairs:
            a, b = order[p], order[q]
            ab = masks[a][b]
            group.extend(
                (tuple(sorted((a, b, c, d))), least, verdicts[ab, masks[c][d]])
                for c, d in combinations_with_replacement(order[q:], 2)
            )
        group.sort(key=itemgetter(0))
        yield group


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int) -> int:
    """Independent p(n) recurrence: partitions of n with parts <= max_part."""
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(partition_count(n - k, min(k, n - k)) for k in range(1, max_part + 1))


def hook_leg(lam, length: int):
    """The leg of the first cell (in row-major order) whose hook has the
    given length, or None.  For ``length`` in ``{n, n-1}`` a matching hook
    is unique when it exists; this is asserted rather than assumed."""
    conj = conjugate(lam)
    legs = [
        conj[j] - i - 1
        for i, part in enumerate(lam)
        for j in range(part)
        if part - j + conj[j] - i - 1 == length
    ]
    assert length < sum(lam) - 1 or len(legs) <= 1, (lam, length, legs)
    return legs[0] if legs else None


def skew_strip_removals(lam, length):
    """Independent border-strip oracle by searching sub-partitions.

    A border strip is a connected skew shape containing no 2x2 block; the
    search enumerates every partition of |lam| - length that fits under
    lam and checks the skew cells directly.
    """
    from classprod.partitions import enumerate_partitions

    n = sum(lam)
    results = set()
    for mu in enumerate_partitions(n - length):
        if len(mu) > len(lam):
            continue
        padded = tuple(mu) + (0,) * (len(lam) - len(mu))
        if any(m > l for m, l in zip(padded, lam)):
            continue
        cells = {
            (i, j)
            for i in range(len(lam))
            for j in range(padded[i], lam[i])
        }
        if not cells:
            continue
        if any(
            (i + 1, j) in cells and (i, j + 1) in cells and (i + 1, j + 1) in cells
            for i, j in cells
        ):
            continue
        start = next(iter(cells))
        seen = {start}
        stack = [start]
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cells and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != cells:
            continue
        height = len({i for i, _ in cells}) - 1
        results.add((mu, height))
    return results


class StripRemoval(NamedTuple):
    """Result of removing one border strip: what is left, and the strip's
    height (rows spanned minus one)."""

    remainder: tuple
    height: int


@lru_cache(maxsize=None)
def remove_border_strips(lam, length: int) -> tuple[StripRemoval, ...]:
    """All ways to remove a connected border strip of the given length.

    Implemented on first-column hook lengths (beta-numbers): a strip of
    length L is removable exactly when some beta-number b has b-L
    nonnegative and absent from the beta-set; the strip's height is the
    number of beta-numbers strictly between b-L and b.  Results are
    ordered by the row of the strip's topmost cell.
    """
    if length < 1:
        raise ValueError("strip length must be positive")
    m = len(lam)
    beta = [lam[i] + m - 1 - i for i in range(m)]
    beta_set = set(beta)
    removals = []
    for b in beta:
        nb = b - length
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((nb if x == b else x for x in beta), reverse=True)
        parts = [v - (m - 1 - j) for j, v in enumerate(new_beta)]
        while parts and parts[-1] == 0:
            parts.pop()
        removals.append(StripRemoval(tuple(parts), height))
    return tuple(removals)


@lru_cache(maxsize=None)
def mn_value_reference(lam, rho) -> int:
    """Reference Murnaghan-Nakayama: strip a border strip of length
    rho[0] from the partition itself in every possible way, and recurse on
    the remainder with sign (-1)**height."""
    if not lam:
        return 1
    total = 0
    for removal in remove_border_strips(lam, rho[0]):
        term = mn_value_reference(removal.remainder, rho[1:])
        total += -term if removal.height % 2 else term
    return total


# the four-class sweep's epsilons in tests: with n = 2..12 they give empty
# sweeps (n = 3, and epsilon = 1 for n >= 3) and n = 11's uncovered quadruple
SWEEP_EPSILONS = [
    Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)
]


def qualifying_quadruples_reference(n: int, epsilons) -> list[list]:
    """The four-class sweep's quadruples by the direct filter, for each
    epsilon: every class quadruple whose least pairwise size product (that
    of its two smallest classes) reaches (n!/2)**(1+epsilon), with that
    product, in descending product order."""
    from classprod.alt_group import class_size, enumerate_alt_classes, power_at_least

    sizes = [class_size(c) for c in enumerate_alt_classes(n)]
    least = []
    for quad in combinations_with_replacement(range(len(sizes)), 4):
        smallest, second = sorted(sizes[i] for i in quad)[:2]
        least.append((quad, smallest * second))
    order = math.factorial(n) // 2
    sweeps = []
    for epsilon in epsilons:
        reaches = lru_cache(maxsize=None)(
            lambda p: power_at_least(p, order, 1 + Fraction(epsilon))
        )
        out = [(quad, product) for quad, product in least if reaches(product)]
        out.sort(key=lambda item: (-item[1], item[0]))
        sweeps.append(out)
    return sweeps


# ---------------------------------------------------------------------------
# Reference brute-force classification: one element at a time, several cycle
# walks each (sign, then cycle type, then the split tag's conjugator).
# ---------------------------------------------------------------------------


def compose_reference(p, q):
    """Right-to-left product: apply q first, then p."""
    if len(p) != len(q):
        raise ValueError("permutations act on different point sets")
    return tuple(p[q[i]] for i in range(len(p)))


def inverse_reference(p):
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


def cycles_reference(p):
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


def cycle_type(p):
    return tuple(sorted((len(c) for c in cycles_reference(p)), reverse=True))


def perm_sign(p):
    return -1 if (len(p) - len(cycles_reference(p))) % 2 else 1


def split_tag(p):
    """Which split class an exceptional permutation belongs to: the sign of
    a conjugator carrying the canonical representative to p."""
    from classprod.alt_group import is_exceptional

    ct = cycle_type(p)
    if not is_exceptional(ct):
        raise ValueError(f"type {ct} does not split")
    by_len = {len(c): c for c in cycles_reference(p)}
    sigma = [0] * len(p)
    start = 0
    for length in ct:
        target = by_len[length]
        for k in range(length):
            sigma[start + k] = target[k]
        start += length
    return "+" if perm_sign(tuple(sigma)) == 1 else "-"


def classify_reference(p):
    from classprod.alt_group import AltClass, is_exceptional

    ct = cycle_type(p)
    if is_exceptional(ct):
        return AltClass(ct, split_tag(p))
    return AltClass(ct)


def alt_conjugacy_classes_reference(n: int):
    """Alt(n) enumerated and classified element by element: sign first,
    then cycle type and, for exceptional types, the split tag."""
    import itertools

    from classprod.alt_group import enumerate_alt_classes

    members = {c: [] for c in enumerate_alt_classes(n)}
    class_of = {}
    for p in itertools.permutations(range(n)):
        if perm_sign(p) != 1:
            continue
        cls = classify_reference(p)
        members[cls].append(p)
        class_of[p] = cls
    return GroupTable(
        n,
        enumerate_alt_classes(n),
        {c: tuple(ps) for c, ps in members.items()},
        class_of,
    )


def oracle_class_product_reference(table, a, b):
    """Classes meeting AB, from one fixed element of A."""
    rep = table.representative(a)
    return frozenset(table.class_of[compose_reference(rep, y)] for y in table.members[b])


def oracle_pair_count(table: GroupTable, a: AltClass, b: AltClass, g: Perm) -> int:
    """|{(x, y) in A x B : xy = g}| by direct enumeration of x."""
    count = 0
    b_lookup = set(table.members[b])
    for x in table.members[a]:
        if compose(inverse(x), g) in b_lookup:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Exact character table from class multiplication coefficients
# ---------------------------------------------------------------------------

TABLE_MAX_N = 7


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
