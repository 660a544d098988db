"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``);
every tolerance is exact arithmetic, nothing is floating point.
"""

import math
from fractions import Fraction

from classprod.alt_group import (
    AltClass,
    NormalSet,
    class_size,
    long_cycle_classes,
)
from classprod.brute_force import alt_conjugacy_classes
from classprod.characters import (
    alt_degree,
    alt_irreducibles,
    character_table,
)
from classprod.pair_sums import exactness_check_count, frobenius_sum
from classprod.partitions import conjugate, is_self_adjoint
from classprod.product_engine import (
    covering_number,
    missing_classes,
    product_set,
)
from classprod.sweeps import check_dvir_rodgers, verify_four_class_theorem
from helpers import column_orthogonality_holds, hook_leg, oracle_pair_count, row_orthogonality_holds


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_oracle_equivalence_exhaustive():
    mismatches = 0
    triples = 0
    for n in range(4, 8):
        table = alt_conjugacy_classes(n)
        classes = table.classes
        for a in classes:
            for b in classes:
                for g in classes:
                    triples += 1
                    engine = frobenius_sum(a, b, g).pair_count
                    oracle = oracle_pair_count(table, a, b, table.representative(g))
                    if engine != oracle:
                        mismatches += 1
    _report(
        1,
        "engine pair counts equal brute-force counts for every class triple, n=4..7",
        mismatches == 0,
        f"{triples} triples checked",
    )


def test_criterion_2_character_table_validity():
    ok = True
    for n in range(4, 11):
        table = character_table(n)
        if sum(d * d for d in table.degrees) != table.order:
            ok = False
            break
        if not row_orthogonality_holds(table) or not column_orthogonality_holds(table):
            ok = False
            break
    _report(
        2,
        "degree squares sum to |Alt(n)| and row/column orthogonality exact, n=4..10",
        ok,
    )


def test_criterion_3_long_cycles_squared_cover():
    bad = []
    for n in range(5, 12):
        ol = NormalSet.of(long_cycle_classes(n))
        if not product_set(ol, ol).is_full():
            bad.append(n)
    _report(3, "the long-cycle normal set squared covers Alt(n), n=5..11", not bad)


def test_criterion_4_fixed_point_free_involution_covering():
    ok = True
    details = []
    for n in (8, 12):
        fpf = AltClass((2,) * (n // 2))
        k = covering_number(fpf, 6)
        missed = missing_classes(fpf, 3)
        details.append(f"n={n}: k={k}, cube misses {[c.name for c in missed[:3]]}")
        if k != 4 or not missed:
            ok = False
    oracle_k = covering_number(AltClass((2, 2, 2, 2)), 6, mode="oracle")
    if oracle_k != 4:
        ok = False
    _report(
        4,
        "fixed-point-free involutions: covering number 4, cube short, n=8 (oracle too) and n=12",
        ok,
        "; ".join(details),
    )


def test_criterion_5_class_size_estimate():
    ok = True
    for n in (8, 12, 16):
        dfact = 1
        for m in range(n - 1, 1, -2):
            dfact *= m
        assert class_size(AltClass((2,) * (n // 2))) == dfact
        # (n-1)!! >= (2/3)^n (n!/2)^(1/2), squared and cross-multiplied
        if dfact**2 * 3 ** (2 * n) * 2 < 2 ** (2 * n) * math.factorial(n):
            ok = False
    _report(
        5,
        "(n-1)!! >= (2/3)^n (n!/2)^(1/2) exactly at n=8,12,16",
        ok,
    )


def test_criterion_6_dvir_rodgers_sweep():
    violations = []
    pairs = 0
    for n in range(5, 12):
        report = check_dvir_rodgers(n)
        pairs += report.pairs_checked
        violations.extend(report.violations)
    _report(
        6,
        "delta-criterion pairs always contain both long-cycle classes, n=5..11",
        not violations,
        f"{pairs} qualifying type pairs",
    )


def test_criterion_7_degree_bounds():
    ok = True
    for n in range(9, 15):
        length = n if n % 2 else n - 1
        exception_label = min((n - 1, 1), conjugate((n - 1, 1)))
        for psi in alt_irreducibles(n):
            lam = psi.partition
            if lam in ((n,), (1,) * n):
                continue
            if hook_leg(lam, length) is None:
                continue
            d = alt_degree(psi)
            if 2 * d < n * (n - 3):
                if not (n % 2 == 1 and d == n - 1 and lam == exception_label):
                    ok = False
            if is_self_adjoint(lam) and d * n * n < 2 ** (n - 2):
                ok = False
    _report(
        7,
        "long-cycle-hook characters meet the degree dichotomy and the "
        "self-adjoint exponential bound, n=9..14",
        ok,
    )


def test_criterion_8_four_class_sweep():
    ok = True
    details = []
    # n = 8: every verdict must agree with the brute-force oracle
    try:
        r8 = verify_four_class_theorem(8, Fraction(1, 10), mode="both")
        details.append(f"n=8: {len(r8.quadruples)} quadruples, oracle-matched")
    except Exception as exc:  # noqa: BLE001 - reported as failure detail
        ok = False
        details.append(f"n=8 failed: {exc}")
    for n in (9, 10, 11):
        first = verify_four_class_theorem(n, Fraction(1, 10))
        second = verify_four_class_theorem(n, Fraction(1, 10))
        if first != second:
            ok = False
            details.append(f"n={n} nondeterministic")
            continue
        uncovered = [q for q in first.quadruples if not q.covered]
        details.append(f"n={n}: {len(first.quadruples)} quadruples, {len(uncovered)} uncovered")
    _report(
        8,
        "four-class sweep runs to completion deterministically for n=8..11 "
        "(coverage reported, not asserted: the statement is asymptotic)",
        ok,
        "; ".join(details),
    )


def test_criterion_9_internal_exactness():
    checks = exactness_check_count()
    _report(
        9,
        "every character sum collapsed to a rational with an integral "
        "nonnegative pair count (a violation would have raised earlier)",
        checks > 0,
        f"{checks} exactness checks passed in this run",
    )
