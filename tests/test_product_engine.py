import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from classprod.alt_group import (
    AltClass,
    NormalSet,
    class_size,
    enumerate_alt_classes,
    identity_class,
    inverse_class,
    long_cycle_classes,
    long_cycle_type,
)
from classprod.brute_force import alt_conjugacy_classes, oracle_product_set
from classprod.characters import character_table, integer_table, parse_char
from classprod.errors import CapabilityError, ConsistencyError, UsageError
from classprod.pair_sums import (
    _checked,
    _compute_pair_mask,
    _layout,
    _lifted,
    _pair_quotient,
    _pair_sum,
    _slots,
    exactness_check_count,
    frobenius_sum,
)
from classprod.product_engine import (
    ProductAlgebra,
    _engine_algebra,
    contains,
    covering_number,
    ensure_pair_masks,
    missing_classes,
    product_set,
)
from classprod.quadvalue import QuadValue
from classprod.sweeps import (
    QuadrupleVerdict,
    check_dvir_rodgers,
    dvir_rodgers_applies,
    long_cycle_product_checks,
    verify_four_class_theorem,
)
from helpers import (
    SWEEP_EPSILONS,
    four_class_groups_reference,
    frobenius_reference,
    pair_reference,
    qualifying_quadruples_reference,
    unpacked_reference,
)


def test_frobenius_identity_triple():
    ident = identity_class(5)
    result = frobenius_sum(ident, ident, ident)
    assert result.pair_count == 1
    assert result.sum_value == Fraction(math.factorial(5) // 2)


def test_frobenius_inverse_pair_gives_class_size():
    for n in (4, 5, 6, 7):
        ident = identity_class(n)
        for cls in enumerate_alt_classes(n):
            assert frobenius_sum(cls, inverse_class(cls), ident).pair_count == class_size(cls)


def test_identity_needs_the_inverse_class():
    ident = identity_class(5)
    for cls in enumerate_alt_classes(5):
        for other in enumerate_alt_classes(5):
            expected = other == inverse_class(cls)
            assert contains(cls, other, ident) == expected


def test_frobenius_symmetric_in_a_b():
    classes = enumerate_alt_classes(6)
    rng = random.Random(3)
    for _ in range(40):
        a, b, g = rng.choice(classes), rng.choice(classes), rng.choice(classes)
        assert frobenius_sum(a, b, g).pair_count == frobenius_sum(b, a, g).pair_count


def test_three_cycles_squared_reach_five_cycles():
    threes = AltClass((3, 1, 1))
    for tag in ("+", "-"):
        result = frobenius_sum(threes, threes, AltClass((5,), tag))
        assert result.pair_count > 0
        assert contains(threes, threes, AltClass((5,), tag))


def test_pair_counts_match_oracle_exhaustively_n4_n6():
    from helpers import oracle_pair_count

    for n in (4, 5, 6):
        table = alt_conjugacy_classes(n)
        for a in table.classes:
            for b in table.classes:
                for g in table.classes:
                    assert (
                        frobenius_sum(a, b, g).pair_count
                        == oracle_pair_count(table, a, b, table.representative(g))
                    )


def test_mass_conservation_up_to_9():
    # summing pair counts against class sizes recovers |A| |B|
    from itertools import combinations_with_replacement

    for n in (5, 6, 7, 8, 9):
        classes = enumerate_alt_classes(n)
        for a, b in combinations_with_replacement(classes, 2):
            total = sum(
                class_size(g) * frobenius_sum(a, b, g).pair_count for g in classes
            )
            assert total == class_size(a) * class_size(b)


def test_product_set_matches_oracle():
    # n = 8 is the exhaustive top tier: identical products for every class
    # pair means identical containment verdicts for every triple
    for n in (5, 6, 8):
        table = alt_conjugacy_classes(n)
        classes = enumerate_alt_classes(n)
        for a in classes:
            for b in classes:
                s, t = NormalSet.of([a]), NormalSet.of([b])
                assert product_set(s, t) == oracle_product_set(table, s, t)


def test_product_set_commutes_and_associates():
    classes = enumerate_alt_classes(7)
    rng = random.Random(11)
    for _ in range(10):
        s = NormalSet.of(rng.sample(classes, rng.randint(1, 3)))
        t = NormalSet.of(rng.sample(classes, rng.randint(1, 3)))
        u = NormalSet.of(rng.sample(classes, rng.randint(1, 2)))
        assert product_set(s, t) == product_set(t, s)
        assert product_set(product_set(s, t), u) == product_set(s, product_set(t, u))


def test_product_of_identities():
    ident = NormalSet.of([identity_class(5)])
    assert product_set(ident, ident) == ident


def test_split_long_cycle_classes_enter_products_together():
    # whenever neither class consists of long cycles, the two split
    # long-cycle classes enter a product together or not at all
    for n in range(5, 10):
        lplus, lminus = long_cycle_classes(n)
        lct = long_cycle_type(n)
        classes = [c for c in enumerate_alt_classes(n) if c.cycle_type != lct]
        for a in classes:
            for b in classes:
                assert contains(a, b, lplus) == contains(a, b, lminus)


def test_power_covers_and_covering_number():
    fpf = AltClass((2, 2, 2, 2))
    assert missing_classes(fpf, 1)
    assert missing_classes(fpf, 3)
    assert not missing_classes(fpf, 4)
    assert covering_number(fpf, 5) == 4
    assert covering_number(AltClass((2, 2, 1)), 1) is None
    with pytest.raises(ValueError):
        covering_number(identity_class(5), 3)


def test_missing_classes_cube_witness():
    fpf = AltClass((2, 2, 2, 2))
    missed = missing_classes(fpf, 3)
    assert missed
    assert AltClass((5, 3), "+") in missed
    assert not missing_classes(fpf, 4)


def test_powers_match_oracle_up_to_7():
    # the shared powers routine against oracle products taken one power at
    # a time
    from classprod.brute_force import oracle_covering_number

    k_max = 6
    for n in range(3, 8):
        table = alt_conjugacy_classes(n)
        for cls in enumerate_alt_classes(n):
            if cls == identity_class(n):
                continue
            single = NormalSet.of([cls])
            power = single
            for k in range(1, k_max + 1):
                if k > 1:
                    power = oracle_product_set(table, power, single)
                expected = tuple(c for c in enumerate_alt_classes(n) if c not in power)
                assert missing_classes(cls, k) == expected, (cls, k)
            assert covering_number(cls, k_max) == oracle_covering_number(table, cls, k_max)


def test_powers_read_past_their_cycle_match_the_walk():
    # C^k for k beyond the first repeated power is read off the cycle
    for n in range(3, 9):
        alg = _engine_algebra(n)
        for c in range(len(enumerate_alt_classes(n))):
            walked, mask = [], 1 << c
            for _ in range(40):
                walked.append(mask)
                mask = alg.times(mask, c)
            masks, start = alg.powers(c, 40)
            assert masks == walked[: len(masks)]
            if start is not None:
                assert walked[len(masks)] == masks[start]
            assert [alg.power(c, k) for k in range(1, 41)] == walked, (n, c)


@pytest.mark.parametrize(
    "n, cls, missed",
    [(3, AltClass((3,), "+"), ("3-", "1,1,1")), (4, AltClass((2, 2)), ("3,1+", "3,1-"))],
)
def test_powers_that_never_cover_stop_at_their_first_repeat(monkeypatch, n, cls, missed):
    # each power is a function of the one before: a huge k costs a few
    # products in every mode, not k of them
    calls = []
    times = ProductAlgebra.times

    def counted(self, mask, c):
        calls.append((mask, c))
        return times(self, mask, c)

    monkeypatch.setattr(ProductAlgebra, "times", counted)
    huge = 10**5
    for mode in ("engine", "both"):
        calls.clear()
        assert covering_number(cls, huge, mode=mode) is None
        assert tuple(c.name for c in missing_classes(cls, huge, mode=mode)) == missed
        assert len(calls) <= 12, (mode, len(calls))


def test_dvir_rodgers_applies_arithmetic():
    nine = AltClass((9,), "+")
    assert dvir_rodgers_applies(nine, nine)  # 8 + 8 > 8
    fpf = AltClass((2, 2, 2, 2))
    assert not dvir_rodgers_applies(fpf, fpf)  # 4 + 4 = 8, not > 8
    threes = AltClass((3, 3, 3))
    assert dvir_rodgers_applies(threes, threes)  # 6 + 6 > 8


def test_check_dvir_rodgers_small():
    for n in (5, 6, 7):
        report = check_dvir_rodgers(n)
        assert report.passed, report.violations
    assert check_dvir_rodgers(5, mode="both").passed
    assert check_dvir_rodgers(7, mode="oracle").passed


def test_serial_dvir_sweep_computes_only_the_masks_it_asks_for():
    # a fresh interpreter, so that every mask is computed by this sweep:
    # its products stop at all of Alt(8) and ask for 49 of the 51 pairs
    # of its qualifying type pairs; nothing fills ahead
    import subprocess
    import sys

    code = (
        "from classprod.product_engine import _engine_algebra\n"
        "from classprod.sweeps import check_dvir_rodgers\n"
        "assert check_dvir_rodgers(8).passed\n"
        "print(len(_engine_algebra(8).pairs))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["49"]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_long_cycle_sweeps_need_n_at_least_3(n):
    with pytest.raises(UsageError, match="n >= 3"):
        check_dvir_rodgers(n)
    with pytest.raises(UsageError, match="n >= 3"):
        long_cycle_product_checks(n)


def test_lemma_excon_small():
    report = long_cycle_product_checks(9)
    assert all(part.passed for part in report.parts)
    both = long_cycle_product_checks(7, mode="both")
    assert [p.part for p in both.parts] == [1, 2, 3, 4]


def test_excon_fills_only_the_pairs_it_asks_for(monkeypatch):
    # only the pairs its chains touch, each product stopping once it is all
    # of Alt(n): 10 of the 171 class pairs at n=9
    import classprod.product_engine as engine

    monkeypatch.setattr(
        engine, "_engine_algebra", lru_cache(maxsize=None)(engine._engine_algebra.__wrapped__)
    )
    assert all(part.passed for part in long_cycle_product_checks(9).parts)
    assert len(engine._engine_algebra(9).pairs) == 10


def test_covering_of_a_long_cycle_stops_at_all_of_alt_n(monkeypatch, capsys):
    # C^2 of a long-cycle class C of Alt(12) misses only the identity, and
    # C^3 = C^2 C stops at the first class of C^2 whose product with C is
    # all of Alt(12): two of the 946 class pairs are computed
    import classprod.product_engine as engine
    from classprod.cli import main

    monkeypatch.setattr(
        engine, "_engine_algebra", lru_cache(maxsize=None)(engine._engine_algebra.__wrapped__)
    )
    assert main(["covering", "--n", "12", "--class", "11,1+"]) == 0
    capsys.readouterr()
    assert len(engine._engine_algebra(12).pairs) == 2


def test_large_pair_coverage_report_structure():
    # at n=9, epsilon=1/4, every class pair (neither of long cycles) whose
    # size product reaches |G|^(1+epsilon) reaches both long-cycle classes
    from itertools import combinations_with_replacement

    order = math.factorial(9) // 2
    long_pair = long_cycle_classes(9)
    eligible = [c for c in enumerate_alt_classes(9) if c.cycle_type != long_cycle_type(9)]
    qualifying = [
        (a, b)
        for a, b in combinations_with_replacement(eligible, 2)
        if (class_size(a) * class_size(b)) ** 4 >= order**5  # exponent 5/4, exact
    ]
    assert qualifying
    for a, b in qualifying:
        product = product_set(NormalSet.of([a]), NormalSet.of([b]))
        assert all(g in product for g in long_pair), (a.name, b.name)


def test_four_class_sweep_small_is_deterministic():
    r1 = verify_four_class_theorem(7, Fraction(1, 10))
    r2 = verify_four_class_theorem(7, Fraction(1, 10))
    assert r1 == r2
    assert r1.quadruples
    assert all(q.covered for q in r1.quadruples)
    # ordering: descending minimum pairwise product
    mins = [q.min_pair_product for q in r1.quadruples]
    assert mins == sorted(mins, reverse=True)


def test_four_class_report_names_its_rows_and_compares_by_value():
    report = verify_four_class_theorem(11, Fraction(1, 10))
    five, cover = AltClass((5, 1, 1, 1, 1, 1, 1)), AltClass((3, 2, 2, 2, 2))
    assert [q for q in report.quadruples if not q.covered] == [
        QuadrupleVerdict(
            (five.name,) * 3 + (cover.name,),
            class_size(five) ** 2,
            False,
            (identity_class(11).name,),
        )
    ]
    assert report.covered_count == len(report.quadruples) - 1
    assert verify_four_class_theorem(11, Fraction(1, 10)) == report
    # the report holds verdicts per (AB, CD) mask pair, not rows: change
    # the verdict of a covered mask pair that decides exactly one row
    position = {c: i for i, c in enumerate(report.order)}

    def mask_pair(quad):
        w, x, y, z = sorted(quad, key=position.__getitem__)
        return report.masks[w][x], report.masks[y][z]

    rows_per_pair = Counter(mask_pair(quad) for quad, _, _ in report.rows)
    once = next(key for key, missed in report.verdicts if not missed and rows_per_pair[key] == 1)
    changed = report._replace(
        verdicts=tuple((key, missed | (key == once)) for key, missed in report.verdicts)
    )
    assert changed != report
    # the counts are the sweep's, so only the rows see the change: the one
    # row that mask pair decides now misses a class
    differ = [(old, new) for old, new in zip(report.rows, changed.rows) if old != new]
    assert len(differ) == 1
    (quad, _, _), (_, _, missed) = differ[0]
    assert mask_pair(quad) == once and missed


def test_four_class_sweep_huge_epsilon_is_empty():
    report = verify_four_class_theorem(7, Fraction(5))
    assert report.quadruples == ()


def test_four_class_sweep_matches_oracle_n7():
    report = verify_four_class_theorem(7, Fraction(1, 10), mode="both")
    assert all(q.covered for q in report.quadruples)


def _table_with(n, i, j, entry):
    """integer_table(n) with entry (i, j) replaced by integer parts (p, q, d)."""
    tbl = integer_table(n)
    values = [list(row) for row in tbl.values]
    values[i][j] = entry
    return tbl._replace(values=tuple(map(tuple, values)))


def test_exactness_guards():
    # a radical part that does not cancel: sqrt(5) taken off the value of
    # the + character of 3,1,1 on the class 5+
    tbl = integer_table(5)
    i = tbl.chars.index(parse_char("3,1,1+"))
    j = tbl.classes.index(AltClass((5,), "+"))
    e = tbl.classes.index(identity_class(5))
    p, q, d = tbl.values[i][j]
    assert d == 5
    bad = _layout(_table_with(5, i, j, (p, q - 2, d)))
    with pytest.raises(ConsistencyError, match=f"at class {j} kept a radical part"):
        _pair_sum(bad, e, e)
    # one that the pair brings in, on a class where the table is rational:
    # the same character given the value 1 (not 0) on the 3-cycles, with 5+ * 5+
    three = tbl.classes.index(AltClass((3, 1, 1)))
    assert tbl.values[i][three] == (0, 0, 1)
    bad = _layout(_table_with(5, i, three, (2, 0, 1)))
    with pytest.raises(ConsistencyError, match=f"at class {three} kept a radical part"):
        _pair_sum(bad, j, j)
    # sum of chi(1)**2 = |G|, scaled by 8L
    lay = _lifted(5)
    sums = unpacked_reference(lay.slots, _pair_sum(lay, e, e))
    assert sums[e] == 8 * math.lcm(*tbl.degrees) * 60
    # counts 1*1*R/2 over classes of sizes 1 and 2: R = (2, 0) conserves;
    # e = 2 and Q = (1, 0)
    before = exactness_check_count()
    assert _checked(_packed(2, 0), _slots(8, 2), (1, 2), 1, 2) == (2, _packed(1, 0))
    assert exactness_check_count() == before + 2
    with pytest.raises(ConsistencyError, match="nonnegative integer"):
        _checked(_packed(1, 0), _slots(8, 2), (1, 2), 1, 2)  # count 1/2
    with pytest.raises(ConsistencyError, match="nonnegative integer"):
        _checked(_packed(6, -2), _slots(8, 2), (1, 2), 1, 2)  # counts 3 and -1 conserve mass
    before = exactness_check_count()
    frobenius_sum(identity_class(4), identity_class(4), identity_class(4))
    assert exactness_check_count() > before


def _packed(*slots, width=8):
    """Signed slot values packed as the layout packs them, class 0 lowest."""
    return sum(x << (width * g) for g, x in enumerate(slots))


def test_each_bit_check_refuses_a_sum_the_others_pass():
    # each sum below passes every check but one, so dropping that check
    # (or loosening it by one bit) lets it through as a mask
    s8 = _slots(8, 2)
    # the slots (-1, 1) read as (255, 0) without their signs: e = 1, and
    # 255 = gcd(255, 255) conserves mass
    assert _packed(-1, 1) == 255
    with pytest.raises(ConsistencyError, match="pair count -1 is not"):
        _checked(_packed(-1, 1), s8, (1, 1), 255, 255)
    # e = 258 / gcd(258, 86) = 3 divides 258 = (2, 1) as a whole, giving
    # Q = (86, 0), which conserves mass (86) but has 86 >= 2^(8 - 2): slot
    # 0 holds 2, not a multiple of 3, and 3 * 86 carries into slot 1
    with pytest.raises(ConsistencyError, match="pair count 2/3 is not"):
        _checked(_packed(2, 1), s8, (1, 1), 86, 258)
    # e = 2 leaves the remainder 1 of (3, 0); Q = (1, 0) conserves mass
    with pytest.raises(ConsistencyError, match="pair count 3/2 is not"):
        _checked(_packed(3, 0), s8, (1, 2), 1, 2)
    # e = 200 past 2^7: no slot can hold a nonzero multiple, so every sum
    # must be 0 (the integrality shift 8 - bit_length(199) is negative),
    # and the sums that are all 0 fail on mass
    with pytest.raises(ConsistencyError, match="pair count 1/200 is not"):
        _checked(_packed(1, 0), s8, (1, 1), 1, 200)
    with pytest.raises(ConsistencyError, match="mass 0"):
        _checked(0, s8, (1, 1), 1, 200)
    # past the top slot, or below 0
    for total in (1 << 16, -(1 << 16)):
        with pytest.raises(ConsistencyError, match="overflow their 8-bit slots"):
            _checked(total, s8, (1, 1), 1, 1)


def test_slots_too_narrow_for_the_sums_fail_loudly(monkeypatch):
    # every class pair at n = 8 has a sum that needs more than 16 bits, and
    # the layout's own width holds them all; packed into 16-bit slots, the
    # sums overflow or come out garbled, which the count checks refuse, so
    # no pair gets a mask
    import classprod.pair_sums as pair_sums

    sound = _lifted(8)
    monkeypatch.setattr(pair_sums, "_slot_width", lambda weights, reach: 16)
    narrow = _layout(integer_table(8))
    assert narrow.slots.width == 16
    monkeypatch.setattr(pair_sums, "_lifted", lambda n: narrow)
    for a, b in combinations_with_replacement(range(len(sound.sizes)), 2):
        sums = unpacked_reference(sound.slots, _pair_sum(sound, a, b))
        assert 2**15 <= max(map(abs, sums)) < 2 ** (sound.slots.width - 1)
        with pytest.raises(ConsistencyError):
            pair_sums._compute_pair_mask(8, a, b)


@pytest.mark.parametrize("n", range(4, 13))
def test_slots_one_byte_narrower_fail_loudly(n, monkeypatch):
    # one byte below the width the layout chooses, every pair whose sums
    # reach the narrower slots' bound raises; at n >= 8 that is one pair,
    # whose identity sum 8L|G| overflows the top slot
    import classprod.pair_sums as pair_sums

    sound = _lifted(n)
    width = pair_sums._slot_width
    monkeypatch.setattr(pair_sums, "_slot_width", lambda weights, reach: width(weights, reach) - 8)
    narrow = _layout(integer_table(n))
    assert narrow.slots.width == sound.slots.width - 8
    monkeypatch.setattr(pair_sums, "_lifted", lambda n: narrow)
    reached = 0
    for a, b in combinations_with_replacement(range(len(sound.sizes)), 2):
        sums = unpacked_reference(sound.slots, _pair_sum(sound, a, b))
        if max(map(abs, sums)) >= 2 ** (narrow.slots.width - 1):
            reached += 1
            with pytest.raises(ConsistencyError):
                pair_sums._compute_pair_mask(n, a, b)
    assert reached


def test_pair_counts_must_conserve_mass():
    with pytest.raises(ConsistencyError, match="mass"):
        _checked(_packed(2, 2), _slots(8, 2), (1, 2), 1, 2)  # 1*1 + 2*1 != 1*1
    with pytest.raises(ConsistencyError, match="mass"):
        _checked(_packed(0, 0), _slots(8, 2), (1, 2), 1, 2)


@pytest.mark.parametrize("n", range(2, 13))
def test_bit_checks_match_the_per_slot_reference(n):
    # every pair's mask, sums and counts, against the slot-by-slot decode
    # and checks; the oracle checks the masks only up to n = 8
    lay = _lifted(n)
    m, den = len(lay.sizes), lay.scale * lay.order
    for a in range(m):
        for b in range(m):
            sums, counts, mask = pair_reference(lay, _pair_sum(lay, a, b), a, b)
            assert _compute_pair_mask(n, a, b) == mask, (n, a, b)
            _, e, quotient = _pair_quotient(n, a, b)
            slots = unpacked_reference(lay.slots, quotient)
            assert [e * q for q in slots] == sums, (n, a, b)
            assert [lay.sizes[a] * lay.sizes[b] * e * q // den for q in slots] == counts, (n, a, b)
            if n <= 8:
                classes = enumerate_alt_classes(n)
                for g, cls in enumerate(classes):
                    result = frobenius_sum(classes[a], classes[b], cls)
                    assert result.sum_value == Fraction(sums[g], lay.scale), (n, a, b, g)
                    assert result.pair_count == counts[g], (n, a, b, g)


def test_lifted_layout_rebuilds_the_table():
    # every value is (p + q*sqrt(d))/2 with integers p, q and one radicand d per row
    for n in range(2, 15):
        tbl, lay = character_table(n), _lifted(n)
        row_d = dict(zip(lay.rad_rows, lay.rad_d))
        for i, row in enumerate(tbl.values):
            assert {v.d for v in row if v.b} <= {row_d.get(i, 1)}
            for j, value in enumerate(row):
                q = lay.q[j][lay.rad_rows.index(i)] if i in row_d else 0
                rebuilt = QuadValue(Fraction(lay.p[j][i], 2), Fraction(q, 2), row_d.get(i, 1))
                assert rebuilt == value, (n, i, j)
        assert all(w * deg == lay.scale // 8 for w, deg in zip(lay.weights, tbl.degrees))


def test_lift_rejects_two_radicands_in_a_row():
    # 3 + sqrt(2) on the identity, in a row whose other radicand is 5
    tbl = integer_table(5)
    i = tbl.chars.index(parse_char("3,1,1+"))
    j = tbl.classes.index(identity_class(5))
    with pytest.raises(ConsistencyError, match="radicands"):
        _layout(_table_with(5, i, j, (6, 2, 2)))


def _frobenius_matches_reference(n, triples):
    tbl = character_table(n)
    for a, b, g in triples:
        reference = frobenius_reference(tbl, a, b, g)
        result = frobenius_sum(tbl.classes[a], tbl.classes[b], tbl.classes[g])
        assert result.sum_value == reference, (n, a, b, g)
        assert result.pair_count == reference * tbl.class_sizes[a] * tbl.class_sizes[b] / tbl.order


def test_frobenius_sum_matches_quadvalue_reference_exhaustively_up_to_8():
    from itertools import product

    for n in range(2, 9):
        _frobenius_matches_reference(n, product(range(len(enumerate_alt_classes(n))), repeat=3))


@pytest.mark.parametrize("n", range(9, 15))
def test_frobenius_sum_matches_quadvalue_reference_sampled(n):
    k = len(enumerate_alt_classes(n))
    rng = random.Random(f"frobenius-{n}")
    _frobenius_matches_reference(n, [tuple(rng.randrange(k) for _ in range(3)) for _ in range(200)])


def test_four_class_sweep_checks_the_oracle_cap_before_enumerating(monkeypatch):
    import classprod.product_engine as engine
    import classprod.sweeps as sweeps

    def enumerated(*args):
        raise AssertionError("engine or pair work before the oracle cap check")

    # the sweep asks its algebra for every pair mask before any verdict
    monkeypatch.setattr(engine.ProductAlgebra, "pair", enumerated)
    monkeypatch.setattr(engine, "_engine_algebra", enumerated)
    monkeypatch.setattr(sweeps, "combinations_with_replacement", enumerated)
    for mode in ("oracle", "both"):
        with pytest.raises(CapabilityError):
            verify_four_class_theorem(9, Fraction(1, 10), mode=mode)


@pytest.mark.parametrize("n", range(2, 13))
def test_size_order_enumeration_matches_the_direct_filter(n):
    # empty sweeps included: n = 3, and epsilon = 1 for n >= 3
    sweeps = qualifying_quadruples_reference(n, SWEEP_EPSILONS)
    alg = _engine_algebra(n)
    for epsilon, expected in zip(SWEEP_EPSILONS, sweeps):
        report = verify_four_class_theorem(n, epsilon)
        assert [(quad, least) for quad, least, _ in report.rows] == expected, (n, epsilon)
        if n <= 9:
            for quad, _, mask in report.rows:
                assert mask == alg.full & ~alg.chain(quad), (n, epsilon, quad)


@pytest.mark.parametrize("n", range(2, 13))
def test_four_class_counts_and_streams_agree(n, monkeypatch):
    # the sweep counts each pair's covering rows in the walk that decides
    # the verdicts; the totals are sums of those counts, read without a
    # further walk, and must agree with the rows the groups stream
    import classprod.product_engine as engine
    import classprod.sweeps as sweeps

    def walked(*args):
        raise AssertionError("rows built or products taken again after the sweep")

    for epsilon in SWEEP_EPSILONS:
        report = verify_four_class_theorem(n, epsilon)
        with monkeypatch.context() as patched:
            patched.setattr(sweeps.FourClassReport, "groups", walked)
            patched.setattr(engine.ProductAlgebra, "product", walked)
            totals = report.total, report.covered_count
        groups = list(report.groups())
        rows = [row for group in groups for row in group]
        assert totals == (len(rows), sum(1 for _, _, mask in rows if not mask)), (n, epsilon)
        m = len(report.order)
        for pair in report.pairs:
            q = pair[1]
            pair_rows = [row for group in report.groups([pair]) for row in group]
            assert len(pair_rows) == (m - q) * (m - q + 1) // 2, (n, epsilon, pair)
            assert sum(1 for _, _, mask in pair_rows if not mask) == pair[3], (n, epsilon, pair)
        # each group holds one least product, and the groups descend
        leasts = [group[0][1] for group in groups]
        assert all(row[1] == least for group, least in zip(groups, leasts) for row in group)
        assert leasts == sorted(set(leasts), reverse=True), (n, epsilon)


@pytest.mark.parametrize("n", range(2, 13))
def test_four_class_rows_match_the_sorted_reference(n, monkeypatch):
    # the rows merged from index-sorted pairs are the rows sorted one by
    # one, and each pair's rows come out in order before its group is sorted
    import classprod.sweeps as sweeps
    from operator import itemgetter

    built = []

    def recording(i):
        # the group sort's key reads each row once, in the order it was built
        return (lambda row: built.append(row[0]) or row[0]) if i == 0 else itemgetter(i)

    for epsilon in SWEEP_EPSILONS:
        report = verify_four_class_theorem(n, epsilon)
        assert list(report.groups()) == list(four_class_groups_reference(report)), (n, epsilon)
        for pair in report.pairs:
            built.clear()
            with monkeypatch.context() as patched:
                patched.setattr(sweeps, "itemgetter", recording)
                rows = list(report.groups([pair]))
            assert rows == list(four_class_groups_reference(report, [pair])), (n, epsilon, pair)
            assert len(built) == len(rows[0]) and built == sorted(built), (n, epsilon, pair)


def test_package_names_resolve_on_first_read():
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import classprod\n"
        "print('classprod.product_engine' in sys.modules)\n"
        "print(all(getattr(classprod, name) for name in classprod.__all__))\n"
        "print(set(classprod.__all__) <= set(dir(classprod)))\n"
        "from classprod import verify_four_class_theorem\n"
        "from classprod.sweeps import verify_four_class_theorem as sweep\n"
        "print(verify_four_class_theorem is sweep)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True"]


def test_four_class_sweep_keeps_every_exactness_check():
    # a fresh interpreter, so that the sweep fills every pair: 24 classes
    # at n = 10, so 24 * 24 * 25 / 2 sums, one check each
    import subprocess
    import sys

    code = (
        "from fractions import Fraction\n"
        "from classprod.product_engine import exactness_check_count\n"
        "from classprod.sweeps import verify_four_class_theorem\n"
        "verify_four_class_theorem(10, Fraction(1, 10))\n"
        "print(exactness_check_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["7200"]


@pytest.mark.parametrize("n", range(2, 13))
def test_mask_pair_verdicts_equal_the_chain_for_every_quadruple(n):
    # ABCD = (AB)(CD): the product of the two pair masks gives the chain's
    # verdict on every quadruple of nontrivial classes (split in size
    # order, as the sweep splits them)
    ensure_pair_masks(n)
    alg = _engine_algebra(n)
    classes = enumerate_alt_classes(n)
    nontrivial = [i for i, c in enumerate(classes) if c != identity_class(n)]
    by_size = sorted(nontrivial, key=lambda i: (class_size(classes[i]), i))
    decided = {}
    for quad in combinations_with_replacement(by_size, 4):
        w, x, y, z = quad
        key = (alg.pair(w, x), alg.pair(y, z))
        if key not in decided:
            decided[key] = alg.full & ~alg.product(*key)
        assert decided[key] == alg.full & ~alg.chain(quad), (n, quad)


def test_engine_rejects_mixed_n():
    with pytest.raises(ValueError):
        contains(identity_class(4), identity_class(5), identity_class(5))
    with pytest.raises(ValueError):
        product_set(NormalSet.of(enumerate_alt_classes(4)), NormalSet.of(enumerate_alt_classes(5)))


def test_contains_reads_the_cached_pair_mask():
    # one pair mask answers contains at every class g, and it agrees with
    # the pair counts of every triple
    classes = enumerate_alt_classes(7)
    alg = _engine_algebra(7)
    alg.pairs.pop((1, 2), None)
    before = len(alg.pairs)
    for g in classes:
        contains(classes[1], classes[2], g)
    assert len(alg.pairs) == before + 1
    for n in range(1, 8):
        classes = enumerate_alt_classes(n)
        for a in classes:
            for b in classes:
                for g in classes:
                    assert contains(a, b, g) is (frobenius_sum(a, b, g).pair_count > 0)


def test_fpf_involution_square_matches_oracle_n8():
    table = alt_conjugacy_classes(8)
    fpf = AltClass((2, 2, 2, 2))
    hit = oracle_product_set(table, NormalSet.of([fpf]), NormalSet.of([fpf]))
    for g in enumerate_alt_classes(8):
        assert contains(fpf, fpf, g) == (g in hit)


def test_product_algebra_asks_only_for_touched_pairs():
    # a lazy pair cache must fill only the pairs (i, c) with i in the mask,
    # and a memoised step must ask for none
    asked = []
    classes = enumerate_alt_classes(5)

    def pair_mask(i, j):
        asked.append((i, j))
        hit = product_set(NormalSet.of([classes[i]]), NormalSet.of([classes[j]]))
        return sum(1 << classes.index(c) for c in hit)

    alg = ProductAlgebra(5, pair_mask)
    mask = alg.times(0b101, 3)
    assert sorted(asked) == [(0, 3), (2, 3)]
    assert alg.times(0b101, 3) == mask and len(asked) == 2
    assert alg.product(0b101, 0b1001) == mask | alg.times(0b101, 0)
    assert sorted(asked[2:]) == [(0, 0), (0, 2)]  # asked with i <= j
    assert alg.chain([0, 2, 3]) == alg.times(alg.times(1, 2), 3)
    # a pair is asked for once, in order, and kept in ``pairs``
    alg = ProductAlgebra(5, pair_mask)
    asked.clear()
    assert alg.pair(3, 0) == alg.pair(0, 3) == alg.pairs[(0, 3)]
    assert asked == [(0, 3)] and list(alg.pairs) == [(0, 3)]


@pytest.mark.parametrize("n", range(3, 10))
def test_products_stopping_at_all_of_alt_n_equal_the_plain_union(n):
    # a fresh algebra over the filled pairs: stopping once a union is all of
    # Alt(n) changes no product of two pair masks, no mask times a class,
    # and G times any class is G
    ensure_pair_masks(n)
    pairs = _engine_algebra(n).pairs
    k = len(enumerate_alt_classes(n))
    alg = ProductAlgebra(n, lambda i, j: pairs[(i, j)])

    def plain(m1, m2):
        out = 0
        for i in range(k):
            for j in range(k):
                if m1 >> i & 1 and m2 >> j & 1:
                    out |= pairs[(min(i, j), max(i, j))]
        return out

    masks = sorted(set(pairs.values()))
    for m1, m2 in combinations_with_replacement(masks, 2):
        assert alg.product(m1, m2) == alg.product(m2, m1) == plain(m1, m2), (n, m1, m2)
    for m1 in masks:
        for c in range(k):
            assert alg.times(m1, c) == plain(m1, 1 << c), (n, m1, c)
    assert all(alg.times(alg.full, c) == alg.full for c in range(k))


def test_parallel_fill_counts_worker_exactness_checks():
    # a fresh interpreter, so that the fill computes every mask; ``jobs`` is
    # accepted and the fill is serial, so each check is counted where it ran
    import subprocess
    import sys

    code = (
        "from classprod.alt_group import enumerate_alt_classes\n"
        "from classprod.product_engine import _engine_algebra, ensure_pair_masks, exactness_check_count\n"
        "ensure_pair_masks(9, jobs=2)\n"
        "k = len(enumerate_alt_classes(9))\n"
        "print(exactness_check_count(), k * k * (k + 1) // 2)\n"
        "print(sorted(_engine_algebra(9).pairs.items()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    counts, masks = proc.stdout.splitlines()
    counted, expected = counts.split()
    assert counted == expected == "3078"
    # the fill's masks are the per-pair masks
    k = len(enumerate_alt_classes(9))
    serial = {(i, j): _compute_pair_mask(9, i, j) for i in range(k) for j in range(i, k)}
    assert masks == str(sorted(serial.items()))
