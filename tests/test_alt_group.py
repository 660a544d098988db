import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from classprod.alt_group import (
    EXPONENT_MAX_PART,
    AltClass,
    NormalSet,
    centralizer_order_sym,
    class_size,
    delta,
    delta_bound_report,
    enumerate_alt_classes,
    identity_class,
    inverse_class,
    is_even_type,
    is_exceptional,
    long_cycle_classes,
    long_cycle_type,
    parse_class,
    parse_class_or_union,
    read_exponent,
    size_at_least,
)
from classprod.characters import AltChar, alt_irreducibles, character_table
from classprod.errors import UsageError
from classprod.partitions import enumerate_partitions
from classprod.sweeps import verify_four_class_theorem

from helpers import power_at_least


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_is_even_type():
    assert is_even_type((3, 1, 1))
    assert not is_even_type((2, 1, 1, 1))
    assert is_even_type((1,) * 6)
    assert is_even_type((5, 3))


def test_is_exceptional():
    assert is_exceptional((7,))
    assert is_exceptional((5, 3, 1))
    assert not is_exceptional((3, 1, 1))
    assert not is_exceptional((1,))  # Alt(1) has no odd elements to split with
    assert not is_exceptional((2, 2))


def test_centralizer_order():
    assert centralizer_order_sym((1,) * 6) == 720
    assert centralizer_order_sym((6,)) == 6
    assert centralizer_order_sym((2,) * 4) == 2**4 * 24
    # centralizer orders sum-check: sizes of Sym classes total n!
    for n in range(1, 11):
        total = sum(
            math.factorial(n) // centralizer_order_sym(rho)
            for rho in enumerate_partitions(n)
        )
        assert total == math.factorial(n)


def test_class_size_examples():
    assert class_size(identity_class(6)) == 1
    for n in (8, 12):
        fpf = AltClass((2,) * (n // 2))
        assert class_size(fpf) == double_factorial(n - 1)
    # split n-cycle classes have size (n-1)!/2
    for n in (5, 7, 9):
        assert class_size(AltClass((n,), "+")) == math.factorial(n - 1) // 2


def test_delta_examples():
    assert delta(AltClass((9,), "+")) == 8
    assert delta(AltClass((2, 2, 2, 2))) == 4
    assert delta(identity_class(7)) == 0


def test_delta_always_even():
    for n in range(2, 15):
        for cls in enumerate_alt_classes(n):
            assert delta(cls) % 2 == 0


def test_enumerate_alt_classes_counts_and_sizes():
    assert len(enumerate_alt_classes(3)) == 3
    assert len(enumerate_alt_classes(4)) == 4
    assert len(enumerate_alt_classes(5)) == 5
    for n in range(2, 15):
        classes = enumerate_alt_classes(n)
        assert sum(class_size(c) for c in classes) == math.factorial(n) // 2
        assert len(classes) == len(alt_irreducibles(n))


def test_split_pairs_are_equal_halves():
    for n in range(2, 15):
        for cls in enumerate_alt_classes(n):
            if cls.split is None:
                continue
            partner = AltClass(cls.cycle_type, "-" if cls.split == "+" else "+")
            sym_size = math.factorial(n) // centralizer_order_sym(cls.cycle_type)
            assert class_size(cls) == class_size(partner)
            assert class_size(cls) + class_size(partner) == sym_size


def test_fpf_involution_size_bound():
    # (n-1)!! >= (2/3)^n (n!/2)^(1/2), exact cross-multiplied integers
    for n in (8, 12, 16):
        lhs = double_factorial(n - 1) ** 2 * 3 ** (2 * n) * 2
        rhs = 2 ** (2 * n) * math.factorial(n)
        assert lhs >= rhs


def test_altclass_validation():
    with pytest.raises(ValueError):
        AltClass((2, 1, 1))  # odd cycle type
    with pytest.raises(ValueError):
        AltClass((5, 3))  # exceptional without tag
    with pytest.raises(ValueError):
        AltClass((3, 1, 1), "+")  # non-exceptional with tag


def test_inverse_class():
    # a 3-cycle is not conjugate to its inverse within Alt(3) or Alt(4)
    assert inverse_class(AltClass((3,), "+")) == AltClass((3,), "-")
    assert inverse_class(AltClass((3, 1), "+")) == AltClass((3, 1), "-")
    # 5-cycles are: the reversal on 5 points is even
    assert inverse_class(AltClass((5,), "+")) == AltClass((5,), "+")
    assert inverse_class(AltClass((2, 2))) == AltClass((2, 2))


def test_long_cycle_helpers():
    assert long_cycle_type(10) == (9, 1)
    plus, minus = long_cycle_classes(7)
    assert plus.split == "+" and minus.split == "-"
    for n in range(3, 15):
        for cls in long_cycle_classes(n):
            assert is_exceptional(cls.cycle_type)


def test_normal_set_basics():
    classes = enumerate_alt_classes(5)
    s = NormalSet.of(classes[:2])
    assert len(s) == 2 and classes[0] in s
    assert NormalSet.of(classes).is_full()
    assert not s.is_full()
    assert s.sorted_classes() == tuple(classes[:2])
    with pytest.raises(UsageError) as empty:
        NormalSet.of([])
    assert type(empty.value) is UsageError
    assert len(NormalSet.of([], n=5)) == 0
    with pytest.raises(ValueError):
        NormalSet.of([classes[0], enumerate_alt_classes(6)[0]])


@pytest.mark.parametrize("kind", [set, list, lambda cs: [*cs, *cs]], ids=["set", "list", "duplicates"])
def test_normal_set_freezes_the_classes_it_is_given(kind):
    classes = enumerate_alt_classes(5)
    given = kind(classes[:2])
    s = NormalSet(5, given)
    assert s == NormalSet.of(classes[:2]) and len(s) == 2
    assert hash(s) == hash(NormalSet.of(classes[:2]))
    if isinstance(given, set):
        given.add(classes[2])
    else:
        given.append(classes[2])
    assert s == NormalSet.of(classes[:2]) and classes[2] not in s


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: AltClass((5,), "+"), ("cycle_type", "split", "n", "name")),
        (lambda: AltChar((2, 2), "+"), ("partition", "split", "n", "name")),
        (lambda: NormalSet.of(long_cycle_classes(5)), ("n", "classes")),
        (lambda: character_table.__wrapped__(5), ("values", "order")),
        (lambda: verify_four_class_theorem(7, Fraction(1, 10)), ("rows", "covered_count")),
    ],
    ids=["AltClass", "AltChar", "NormalSet", "CharacterTable", "FourClassReport"],
)
def test_records_are_immutable_values(make, fields):
    value, again = make(), make()
    assert value is not again
    for field in fields:
        getattr(value, field)  # readable, derived fields too
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert value == again and hash(value) == hash(again)
    assert not value != again
    assert pickle.loads(pickle.dumps(value)) == value


def test_class_and_character_records_are_distinct_types():
    identity, trivial = AltClass((1, 1, 1)), AltChar((1, 1, 1))
    assert tuple(identity) == tuple(trivial) == ((1, 1, 1), None)
    assert identity != trivial and trivial != identity
    assert identity != ((1, 1, 1), None) and ((1, 1, 1), None) != identity
    assert trivial != ((1, 1, 1), None)
    assert len({identity, trivial, ((1, 1, 1), None)}) == 3
    # a derived value goes through the same checks as a new one
    assert AltClass((5,), "+")._replace(split="-") == AltClass((5,), "-")
    with pytest.raises(ValueError):
        AltClass((3, 1, 1))._replace(split="+")
    with pytest.raises(ValueError):
        AltChar((2, 2), "+")._replace(split=None)


def test_record_reprs_are_unchanged():
    assert repr(AltClass((3, 1, 1))) == "AltClass(cycle_type=(3, 1, 1), split=None)"
    assert repr(NormalSet.of([AltClass((3, 1, 1))])) == (
        "NormalSet(n=5, classes=frozenset({AltClass(cycle_type=(3, 1, 1), split=None)}))"
    )
    assert repr(NormalSet.of([], n=5)) == "NormalSet(n=5, classes=frozenset())"


def test_power_at_least():
    # the package's size rule, size_at_least(base, exponent)(value), on the
    # cases that pinned the tests' reference power_at_least, then at the
    # least passing value and one below it
    cases = [(4, 2, Fraction(2), True), (3, 2, Fraction(2), False),
             (3, 9, Fraction(1, 2), True), (2, 9, Fraction(1, 2), False),
             (4, 8, Fraction(2, 3), True), (3, 8, Fraction(2, 3), False),  # 8**2 = 4**3
             (10**10, 10**6, Fraction(5, 3), True), (10**10 - 1, 10**6, Fraction(5, 3), False),
             (3, 3, Fraction(2, 3), True), (2, 3, Fraction(2, 3), False),  # 3**2 = 2**3 + 1
             (3, 2, Fraction(3, 2), True), (2, 2, Fraction(3, 2), False),  # 2**3 = 3**2 - 1
             (7**5, 7, Fraction(5), True), (7**5 - 1, 7, Fraction(5), False),
             (1, 1, Fraction(1, 2), True), (1, 1, Fraction(99, 100), True)]
    for value, base, exponent, expected in cases:
        assert size_at_least(base, exponent)(value) is expected
        assert power_at_least(value, base, exponent) is expected
    for base, exponent in ((2, Fraction(0)), (2, Fraction(-1, 2)), (0, Fraction(1, 2))):
        with pytest.raises(ValueError) as exc:
            size_at_least(base, exponent)
        assert type(exc.value) is UsageError


@pytest.mark.parametrize("den", [1, 2, 3, 7, 100])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_size_at_least_is_exact_at_a_perfect_power_and_one_off(den, offset):
    # base = t**den + offset, exponent 1/den: the least passing size is t
    # (t + offset when den = 1), and t + 1 when base lies above t**den,
    # where the floor of the root would still let t pass
    t = 10**30 + 7
    base = t**den + offset
    least = t + offset if den == 1 else t + (offset > 0)
    passes = size_at_least(base, Fraction(1, den))
    assert passes(least) and not passes(least - 1)
    for value in (least - 1, least, least + 1):
        assert passes(value) is power_at_least(value, base, Fraction(1, den))


def test_size_at_least_agrees_with_power_at_least_at_the_root():
    # seeded random thresholds, with exponent parts up to EXPONENT_MAX_PART:
    # the least size the reference passes, found by bisection, is the least
    # size_at_least passes
    rng = random.Random(1)
    for _ in range(300):
        base = rng.choice([rng.randint(1, 30), rng.randint(1, 10**6), rng.randint(1, 10**20)])
        exponent = Fraction(rng.randint(1, EXPONENT_MAX_PART), rng.randint(1, EXPONENT_MAX_PART))
        lo, hi = 1, base ** -(-exponent.numerator // exponent.denominator)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if power_at_least(mid, base, exponent) else (mid + 1, hi)
        passes = size_at_least(base, exponent)
        assert passes(lo) and not passes(lo - 1), (base, exponent)


def test_delta_bound_report_thresholds():
    # tiny gamma: every nonidentity class qualifies
    report = delta_bound_report(6, Fraction(1, 100))
    names = {r.cls.name for r in report.rows}
    assert names == {c.name for c in enumerate_alt_classes(6) if delta(c) > 0}
    # the minimum ratio rows are marked
    best = min(r.ratio for r in report.rows)
    assert all((r.ratio == best) == r.minimal for r in report.rows)


def test_delta_bound_report_n8_half():
    # at gamma = 1/2 the threshold is sqrt(8!/2) ~ 142.0: the fixed-point-free
    # involutions (size 105) fall BELOW it, while e.g. 5,3 (size 1344) passes
    report = delta_bound_report(8, Fraction(1, 2))
    names = {r.cls.name for r in report.rows}
    assert "2,2,2,2" not in names
    assert "3,1,1,1,1,1" not in names  # size 112 also misses the cut
    assert "5,3+" in names
    for row in report.rows:
        assert row.size * row.size >= math.factorial(8) // 2
    assert report.min_ratio == Fraction(1, 4)


# gammas whose parts reach EXPONENT_MAX_PART, and three below it
CAP_GAMMAS = [Fraction(1, 100), Fraction(1, 2), Fraction(2, 3), Fraction(37, 41), Fraction(99, 100)]


@pytest.mark.parametrize("n", range(2, 15))
def test_delta_bound_report_matches_power_at_least_at_the_exponent_cap(n):
    # the report keeps exactly the classes that the reference power_at_least
    # passes, in class order
    assert max(max(g.numerator, g.denominator) for g in CAP_GAMMAS) == EXPONENT_MAX_PART
    classes = enumerate_alt_classes(n)
    group_order = math.factorial(n) // 2
    for gamma in CAP_GAMMAS:
        expected = [c for c in classes if power_at_least(class_size(c), group_order, gamma)]
        assert [r.cls for r in delta_bound_report(n, gamma).rows] == expected, (n, gamma)


def test_delta_bound_report_rejects_bad_gamma():
    for gamma in (Fraction(0), Fraction(1), Fraction(3, 2), None, float("inf")):
        with pytest.raises(UsageError):
            delta_bound_report(8, gamma)


def test_exponent_parts_past_printing_raise_a_short_usage_error():
    # str() of a part past 4300 digits raises ValueError; the refusal must
    # not format it
    huge = Fraction(1, 10**5000)
    for call in (lambda: verify_four_class_theorem(5, huge), lambda: delta_bound_report(8, huge)):
        with pytest.raises(UsageError) as exc:
            call()
        message = str(exc.value)
        assert "\n" not in message and len(message) < 200, message


def test_exponent_parts_past_the_digit_limit_are_read_by_the_parts_rule():
    # int() refuses more than 4300 digits, leading zeros included: those are
    # read off each part, and a part still that long is over 100
    with pytest.raises(UsageError) as exc:
        read_exponent("1/" + "1" * 4400, "epsilon")
    assert str(exc.value) == "epsilon: numerator and denominator must be at most 100"
    assert read_exponent("0" * 5000 + "1/10", "epsilon") == Fraction(1, 10)
    assert read_exponent("0001/0010", "epsilon") == Fraction(1, 10)
    assert read_exponent("0.05", "epsilon") == Fraction(1, 20)


def test_exponent_notation_is_refused_at_once():
    # Fraction("1e-10000000") alone would build 10**10000000
    for report, n in ((verify_four_class_theorem, 6), (delta_bound_report, 8)):
        start = time.perf_counter()
        with pytest.raises(UsageError, match="exponent notation is not accepted"):
            report(n, "1e-10000000")
        assert time.perf_counter() - start < 1.0, report.__name__


def test_class_parsing_round_trip():
    for n in range(2, 11):
        for cls in enumerate_alt_classes(n):
            assert parse_class(cls.name) == cls
    assert parse_class("5,3,1−") == AltClass((5, 3, 1), "-")
    assert parse_class_or_union("5,3,1") == (
        AltClass((5, 3, 1), "+"),
        AltClass((5, 3, 1), "-"),
    )
    assert parse_class_or_union("3,1,1") == (AltClass((3, 1, 1)),)
    with pytest.raises(UsageError):
        parse_class("5,3,1")  # ambiguous without a tag
    with pytest.raises(UsageError):
        parse_class("2,1,1")  # odd type
    assert identity_class(3).name == "1,1,1"
