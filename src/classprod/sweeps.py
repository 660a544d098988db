"""The named sweeps: the long-cycle inclusion criterion (``dvir``), the
four-class sweep (``verify-theorem``) and the long-cycle product checks
(``excon``), each a chain of products in the algebra of its mode.

They live apart from the product engine so that a command asking for a
few pairs (``product``, ``contains``, ``covering``) compiles none of them.
Each report also renders its own command's output (``text_lines``, and
the streamed JSON of ``FourClassReport.write_json``), so the CLI compiles
no sweep's output code either.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, combinations_with_replacement, groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, TextIO

from .alt_group import (
    AltClass,
    check_exponent_parts,
    class_index,
    class_size,
    classes_by_type,
    delta,
    enumerate_alt_classes,
    is_exceptional,
    long_cycle_classes,
    power_at_least,
)
from .errors import UsageError
from .partitions import format_partition
from .pair_sums import _check_same_n
from .product_engine import _algebra, _mask_of, names_in

if TYPE_CHECKING:  # imported where used: dvir and excon need no rationals
    from fractions import Fraction


def dvir_rodgers_applies(a: AltClass, b: AltClass) -> bool:
    """The long-cycle inclusion criterion: delta(A) + delta(B) > n-1 for n
    odd, > n for n even."""
    n = _check_same_n(a, b)
    bound = n - 1 if n % 2 else n
    return delta(a) + delta(b) > bound


class DvirRodgersReport(NamedTuple):
    n: int
    pairs_checked: int
    violations: tuple[tuple[str, str, str], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pairs_checked": self.pairs_checked,
            "violations": [list(v) for v in self.violations],
            "passed": self.passed,
        }

    def text_lines(self) -> list[str]:
        lines = [
            f"n={self.n}: {self.pairs_checked} qualifying pairs, "
            f"{len(self.violations)} violations",
        ]
        lines += [f"VIOLATION: {a} * {b} misses {g}" for a, b, g in self.violations]
        return lines


def _type_masks(n: int) -> list[tuple[str, AltClass, int]]:
    """Even cycle types as (name, one class of the type, class bitmask)
    triples; a split type contributes the union of its two classes,
    matching the classes of Sym(n) that lie inside Alt(n)."""
    return [
        (format_partition(ct), group[0], _mask_of(n, group))
        for ct, group in classes_by_type(n).items()
    ]


def check_dvir_rodgers(n: int, jobs: int = 1, mode: str = "engine") -> DvirRodgersReport:
    """Exhaustively verify the long-cycle inclusion criterion at one n.

    The criterion concerns classes of Sym(n) lying inside Alt(n), so the
    sweep runs over even cycle types; a split type enters as the union
    of its two Alt(n) classes.  For every type pair meeting the delta
    condition, both long-cycle classes must appear in the product.
    """
    if n < 3:
        raise UsageError("the long-cycle inclusion sweep needs n >= 3")
    idx = class_index(n)
    targets = [(c.name, idx[c]) for c in long_cycle_classes(n)]
    qualifying = [
        (t1, t2)
        for t1, t2 in combinations_with_replacement(_type_masks(n), 2)
        if dvir_rodgers_applies(t1[1], t2[1])
    ]
    alg = _algebra(n, mode)
    found = []
    for (name1, _, mask1), (name2, _, mask2) in qualifying:
        mask = alg.product(mask1, mask2)
        for target, jt in targets:
            if not mask >> jt & 1:
                found.append((name1, name2, target))
    return DvirRodgersReport(n, len(qualifying), tuple(found))


class QuadrupleVerdict(NamedTuple):
    classes: tuple[str, str, str, str]
    min_pair_product: int
    covered: bool
    missing: tuple[str, ...]


# a row of the four-class sweep: the quadruple's class indices, sorted, its
# least pairwise size product and the mask of the classes its product misses
Row = tuple[tuple[int, int, int, int], int, int]


class FourClassReport(NamedTuple):
    """The four-class sweep, held as the structure that decides its rows,
    not as the rows.  ``order`` is the class indices in size order, and a
    quadruple is positions p <= q <= r <= t in it.  ``pairs`` holds each
    qualifying (p, q) with its least pairwise size product and the number
    of its rows that cover, by descending product; every (r, t) with
    q <= r <= t completes it.  ``masks[i][j]`` is the product of the
    classes i and j, and ``verdicts`` pairs each (AB, CD) mask pair met
    with the mask of the classes ABCD misses (0: it covers Alt(n)).

    The totals are sums over the pairs; the rows are generated on demand,
    one group of equal least product at a time (``groups``).
    """

    n: int
    epsilon: Fraction
    mode: str
    order: tuple[int, ...]
    pairs: tuple[tuple[int, int, int, int], ...]
    masks: tuple[tuple[int, ...], ...]
    verdicts: tuple[tuple[tuple[int, int], int], ...]

    @property
    def total(self) -> int:
        """The number of qualifying quadruples."""
        m = len(self.order)
        return sum((m - q) * (m - q + 1) // 2 for _, q, _, _ in self.pairs)

    @property
    def covered_count(self) -> int:
        """The quadruples whose product covers Alt(n), as the sweep counted
        them per pair."""
        return sum(covered for *_, covered in self.pairs)

    def groups(
        self, pairs: Optional[Iterable[tuple[int, int, int, int]]] = None
    ) -> Iterator[list[Row]]:
        """The rows of ``pairs`` (None: all; else some of ``self.pairs``,
        in their order), in row order: one group of equal least product at
        a time, sorted by the index-sorted quadruple.  Only that group is
        held.

        A pair's rows are built in order: with a <= b and the (c, d),
        c <= d, in lexicographic order, a quadruple is the merge of the two
        sorted pairs, and adding the same pair to pairs in sorted-lex order
        keeps that order.  So sorting a group merges presorted runs."""
        order, masks = self.order, self.masks
        missed: dict[int, dict[int, int]] = {}  # the verdicts, per mask of AB
        for (ab, cd), mask in self.verdicts:
            missed.setdefault(ab, {})[cd] = mask
        for least, group_pairs in groupby(self.pairs if pairs is None else pairs, itemgetter(2)):
            group = []
            for p, q, _, _ in group_pairs:
                a, b = sorted((order[p], order[q]))
                by_cd = missed[masks[a][b]]
                group.extend(
                    (
                        (a, b, c, d) if b <= c
                        else (c, d, a, b) if d <= a
                        else tuple(sorted((a, b, c, d))),
                        least,
                        by_cd[masks[c][d]],
                    )
                    for c, d in combinations_with_replacement(sorted(order[q:]), 2)
                )
            group.sort(key=itemgetter(0))
            yield group

    @property
    def rows(self) -> tuple[Row, ...]:
        """Every row, in order, built on each access."""
        return tuple(chain.from_iterable(self.groups()))

    @property
    def quadruples(self) -> tuple[QuadrupleVerdict, ...]:
        """The rows with class names, built on each access; the classes a
        row misses are named once per mask (few recur in a sweep)."""
        names = [c.name for c in enumerate_alt_classes(self.n)]
        named = {mask: names_in(names, mask) for mask in {mask for _, mask in self.verdicts}}
        return tuple(
            QuadrupleVerdict((names[a], names[b], names[c], names[d]), least, not mask, named[mask])
            for (a, b, c, d), least, mask in self.rows
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": str(self.epsilon),
            "mode": self.mode,
            "total": self.total,
            "covered": self.covered_count,
            "quadruples": [
                {
                    "classes": list(quad.classes),
                    "min_pair_product": quad.min_pair_product,
                    "covered": quad.covered,
                    "missing": list(quad.missing),
                }
                for quad in self.quadruples
            ],
        }

    def write_json(self, out: TextIO) -> None:
        """Write ``json.dumps(self.to_dict(), indent=2, sort_keys=True)``
        and a newline to ``out`` without building the dict.  The totals
        are counted first, and the rows are written one group of equal
        least product at a time.  A row of "quadruples" joins the texts of
        its four classes, built once per class for each of the three places
        a class can take in the list (first, middle, last), and the text of
        the rest of the row, built once per missing-class mask in a group,
        since few of those recur."""
        names = [encode_basestring_ascii(c.name) for c in enumerate_alt_classes(self.n)]
        first = [f'    {{\n      "classes": [\n        {name},\n' for name in names]
        middle = [f"        {name},\n" for name in names]
        last = [f"        {name}\n      ],\n" for name in names]

        def tail(least: int, mask: int) -> str:
            if mask:
                missing = ",\n        ".join(names_in(names, mask))
                covered, missing = "false", "[\n        " + missing + "\n      ]"
            else:
                covered, missing = "true", "[]"
            return (
                f'      "covered": {covered},\n      "min_pair_product": {least},\n'
                f'      "missing": {missing}\n    }}'
            )

        write = out.write
        total = self.total
        write(
            f'{{\n  "covered": {self.covered_count},\n'
            f'  "epsilon": {encode_basestring_ascii(str(self.epsilon))},\n'
            f'  "mode": {encode_basestring_ascii(self.mode)},\n'
            f'  "n": {self.n},\n  "quadruples": ' + ("[\n" if total else "[]")
        )
        separator = ""
        for group in self.groups():
            least = group[0][1]
            ends = {mask: tail(least, mask) for mask in {row[2] for row in group}}
            texts = [
                f"{first[a]}{middle[b]}{middle[c]}{last[d]}{ends[mask]}"
                for (a, b, c, d), _, mask in group
            ]
            write(separator + ",\n".join(texts))
            separator = ",\n"
        write(("\n  ]" if total else "") + f',\n  "total": {total}\n}}\n')

    def text_lines(self, show: int) -> Iterator[str]:
        """The text report, line by line: the totals, every row that does
        not cover, and the first ``show`` covering rows."""
        names = [c.name for c in enumerate_alt_classes(self.n)]
        covered, total, m = self.covered_count, self.total, len(self.order)
        # the rows of every pair with a miss, and of every pair down to the
        # least product at which the pairs' covered rows reach ``show``
        reached = accumulate(pair[3] for pair in self.pairs)
        cut = next((pair[2] for pair, count in zip(self.pairs, reached) if count >= show), 0)
        pairs = [
            (p, q, least, count)
            for p, q, least, count in self.pairs
            if least >= cut or count < (m - q) * (m - q + 1) // 2
        ]
        yield (
            f"n={self.n} epsilon={self.epsilon} mode={self.mode}: "
            f"{covered}/{total} qualifying quadruples cover Alt({self.n})"
        )
        shown = 0
        for group in self.groups(pairs):
            for quad, least, mask in group:
                if mask:
                    missing = ", ".join(names_in(names, mask))
                    yield f"NOT COVERED: {' * '.join(names[i] for i in quad)} misses {missing}"
                elif shown < show:
                    yield f"covered: {' * '.join(names[i] for i in quad)} (min pair product {least})"
                    shown += 1
        if covered > shown:
            yield f"... {covered - shown} further covered quadruples omitted (use --format json)"


def verify_four_class_theorem(
    n: int, epsilon: Fraction, jobs: int = 1, mode: str = "engine"
) -> FourClassReport:
    """Sweep all class quadruples (up to multiset symmetry; normal-set
    products commute) whose six pairwise size products reach
    (n!/2)**(1+epsilon), and report whether ABCD covers Alt(n).

    With the classes ordered by size, a quadruple is positions
    p <= q <= r <= t; the test is monotone in the product, so the least
    product, that of (p, q), decides all six, and each qualifying pair
    (p, q) brings every (r, t) with q <= r <= t untested.  The product is
    taken as (AB)(CD) in that size order, so a verdict is decided once per
    distinct pair of pair masks, by their product in the algebra, which
    stops once it is all of Alt(n).  The walk that decides the verdicts
    also counts each pair's covering rows.  The sweep keeps the pairs with
    those counts, the masks and the verdicts, and no row: see
    FourClassReport.

    The report is descriptive: coverage is only guaranteed for large n,
    so a non-covering quadruple at small n is data, not an error.  With
    ``mode="oracle"`` the products come from brute-force enumeration
    (n <= 8); ``mode="both"`` insists the two agree on every pair mask,
    which decides every verdict and every count.
    """
    from fractions import Fraction

    epsilon = Fraction(epsilon)
    if n < 2:
        raise UsageError("the four-class sweep needs n >= 2")
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    check_exponent_parts(epsilon, "epsilon")
    sizes = [class_size(c) for c in enumerate_alt_classes(n)]
    m = len(sizes)
    order = sorted(range(m), key=lambda i: (sizes[i], i))
    group_order = math.factorial(n) // 2
    reaches = lru_cache(maxsize=None)(lambda p: power_at_least(p, group_order, 1 + epsilon))
    pairs = []
    for q, b in enumerate(order):
        if reaches(sizes[b] * sizes[b]):  # else no (p, q) does
            pairs.extend(
                (p, q, sizes[a] * sizes[b])
                for p, a in enumerate(order[: q + 1])
                if reaches(sizes[a] * sizes[b])
            )
    pairs.sort(key=lambda pair: -pair[2])
    alg = _algebra(n, mode)
    if not pairs:  # no pair is computed
        return FourClassReport(n, epsilon, mode, tuple(order), (), (), ())
    masks = tuple(tuple(alg.pair(i, j) for j in range(m)) for i in range(m))
    verdicts: dict[tuple[int, int], int] = {}
    covered: dict[tuple[int, int, int], int] = {}
    # by descending q, ``tails`` counts the pairs (r, t), q <= r <= t, per
    # mask of CD
    tails: dict[int, int] = {}
    low = m
    for pair in sorted(pairs, key=itemgetter(1), reverse=True):
        p, q, _ = pair
        for r in range(low - 1, q - 1, -1):
            row = masks[order[r]]
            for t in order[r:]:
                tails[row[t]] = tails.get(row[t], 0) + 1
        low = q
        ab = masks[order[p]][order[q]]
        count = 0
        for cd, rows in tails.items():
            missed = verdicts.get((ab, cd))
            if missed is None:
                missed = verdicts[ab, cd] = alg.full & ~alg.product(ab, cd)
            if not missed:
                count += rows
        covered[pair] = count
    counted = tuple((*pair, covered[pair]) for pair in pairs)
    return FourClassReport(n, epsilon, mode, tuple(order), counted, masks, tuple(verdicts.items()))


class ProductCheckCase(NamedTuple):
    classes: tuple[str, ...]
    passed: bool
    missing: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "passed": self.passed,
            "missing": list(self.missing),
        }


class ProductCheckPart(NamedTuple):
    part: int
    statement: str
    cases: tuple[ProductCheckCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "part": self.part,
            "statement": self.statement,
            "passed": self.passed,
            "cases": [c.to_dict() for c in self.cases],
        }


class LongCycleProductReport(NamedTuple):
    n: int
    parts: tuple[ProductCheckPart, ...]

    def to_dict(self) -> dict:
        return {"n": self.n, "parts": [p.to_dict() for p in self.parts]}

    def text_lines(self) -> list[str]:
        lines = []
        for part in self.parts:
            status = "pass" if part.passed else "FAIL"
            lines.append(f"part {part.part} [{status}]: {part.statement}")
            for case in part.cases:
                if not case.passed:
                    lines.append(
                        f"  counterexample {', '.join(case.classes)}: misses {', '.join(case.missing)}"
                    )
        return lines


def long_cycle_product_checks(n: int, jobs: int = 1, mode: str = "engine") -> LongCycleProductReport:
    """Exercise the four long-cycle product statements at a single n.

    These hold for all sufficiently large n; at desk scale the report is
    descriptive, recording pass/fail per case.  ``jobs`` is accepted and
    changes nothing.
    """
    if n < 3:
        raise UsageError("the long-cycle checks need n >= 3")
    classes = enumerate_alt_classes(n)
    names = [c.name for c in classes]
    idx = class_index(n)
    long_pair = long_cycle_classes(n)
    long_mask = _mask_of(n, long_pair)
    exceptional = [c for c in classes if is_exceptional(c.cycle_type)]
    exc_mask = _mask_of(n, exceptional)
    alg = _algebra(n, mode)

    def case(members, mask, targets_mask):
        missing = targets_mask & ~mask
        return ProductCheckCase(
            tuple(c.name for c in members),
            missing == 0,
            names_in(names, missing),
        )

    def chain_case(members, targets_mask):
        return case(members, alg.chain(idx[c] for c in members), targets_mask)

    parts = (
        ProductCheckPart(
            1,
            "a product of two exceptional classes contains both long-cycle classes",
            tuple(
                chain_case(pair, long_mask)
                for pair in combinations_with_replacement(exceptional, 2)
            ),
        ),
        ProductCheckPart(
            2,
            "a product of two long-cycle classes contains every exceptional class",
            tuple(
                chain_case(pair, exc_mask)
                for pair in combinations_with_replacement(long_pair, 2)
            ),
        ),
        ProductCheckPart(
            3,
            "the set of all long cycles times a long-cycle class covers Alt(n)",
            tuple(
                case((a,), alg.times(long_mask, idx[a]), alg.full)
                for a in long_pair
            ),
        ),
        ProductCheckPart(
            4,
            "the product of any three long-cycle classes covers Alt(n)",
            tuple(
                chain_case(triple, alg.full)
                for triple in combinations_with_replacement(long_pair, 3)
            ),
        ),
    )
    return LongCycleProductReport(n, parts)
