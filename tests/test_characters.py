import math
import random
from fractions import Fraction

import pytest

import classprod.characters as characters
from classprod.alt_group import AltClass, enumerate_alt_classes, identity_class
from classprod.characters import (
    AltChar,
    alt_char_for,
    alt_degree,
    alt_irreducibles,
    alt_value,
    character_table,
    degree,
    mn_value,
    parse_char,
)
from classprod.cli import main
from classprod.errors import ConsistencyError, UsageError
from classprod.partitions import (
    conjugate,
    diagonal_hook_partition,
    enumerate_partitions,
    is_self_adjoint,
    validate_partition,
)
from classprod.pair_sums import _lifted
from classprod.quadvalue import QuadValue
from helpers import (
    column_orthogonality_holds,
    exact_sign,
    hook_leg,
    mn_value_reference,
    quad_sum,
    row_orthogonality_holds,
)


# ---------------------------------------------------------------------------
# QuadValue
# ---------------------------------------------------------------------------


def test_quadvalue_normalization():
    assert QuadValue(0, 1, 12) == QuadValue(0, 2, 3)
    assert QuadValue(0, 1, -12) == QuadValue(0, 2, -3)
    assert QuadValue(0, 1, 4) == QuadValue(2)
    assert QuadValue(0, 1, 1) == QuadValue(1)
    assert QuadValue(0, 1, 0).is_zero
    assert QuadValue(Fraction(1, 2), 0, 7) == QuadValue(Fraction(1, 2))


def test_quadvalue_arithmetic():
    x = QuadValue(1, 1, 5)
    y = QuadValue(2, -1, 5)
    assert x + y == QuadValue(3, 0, 1)
    assert x * y == QuadValue(-3, 1, 5)
    assert x - x == QuadValue(0)
    assert (x * 2) / 2 == x
    assert QuadValue(1) / QuadValue(0, 1, 5) == QuadValue(0, Fraction(1, 5), 5)
    golden = QuadValue(Fraction(1, 2), Fraction(1, 2), 5)
    assert golden * golden == golden + 1  # x^2 = x + 1


def test_quadvalue_division_same_field():
    x = QuadValue(3, 2, -3)
    y = QuadValue(1, -1, -3)
    assert (x / y) * y == x


def test_quadvalue_cross_field_is_refused():
    with pytest.raises(ValueError):
        QuadValue(0, 1, 2) * QuadValue(0, 1, 3)
    with pytest.raises(ValueError):
        QuadValue(0, 1, 2) + QuadValue(0, 1, 3)
    # rational factors are always fine
    assert QuadValue(2) * QuadValue(0, 1, 3) == QuadValue(0, 2, 3)


def test_quadvalue_conjugation():
    z = QuadValue(1, 2, -3)
    assert z.conjugate() == QuadValue(1, -2, -3)
    assert z.conjugate().conjugate() == z
    r = QuadValue(1, 2, 3)
    assert r.conjugate() == r  # real values are fixed by complex conjugation


def test_quadvalue_str():
    assert str(QuadValue(Fraction(-1, 2), Fraction(1, 2), -3)) == "-1/2 + 1/2*sqrt(-3)"
    assert str(QuadValue(Fraction(3, 2))) == "3/2"
    assert str(QuadValue(0, -1, 5)) == "-sqrt(5)"


# ---------------------------------------------------------------------------
# Sym(n) values and degrees
# ---------------------------------------------------------------------------


def test_mn_trivial_and_sign_characters():
    for n in range(1, 9):
        for rho in enumerate_partitions(n):
            assert mn_value((n,), rho) == 1
            assert mn_value((1,) * n, rho) == (-1) ** (n - len(rho))


def test_mn_square_example():
    # classical Sym(4) row for the square partition: (2, 0, 2, -1, 0) on
    # the types (1^4), (2,1,1), (2,2), (3,1), (4)
    assert mn_value((2, 2), (1, 1, 1, 1)) == 2
    assert mn_value((2, 2), (2, 1, 1)) == 0
    assert mn_value((2, 2), (2, 2)) == 2
    assert mn_value((2, 2), (3, 1)) == -1
    assert mn_value((2, 2), (4,)) == 0


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_value((2, 2), (3, 2))


def test_mn_value_matches_the_reference_strip_removal():
    # the abacus recursion against border strips removed from the diagram:
    # every pair up to 12, then a seeded sample up to the CLI's cap of 40
    for n in range(13):
        for lam in enumerate_partitions(n):
            for rho in enumerate_partitions(n):
                assert mn_value(lam, rho) == mn_value_reference(lam, rho), (lam, rho)
    rng = random.Random("mn-20-40")
    for n in range(20, 41):
        parts = enumerate_partitions(n)
        for _ in range(4):
            lam, rho = rng.choice(parts), rng.choice(parts)
            assert mn_value(lam, rho) == mn_value_reference(lam, rho), (lam, rho)


def test_mn_conjugation_symmetry_up_to_10():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            mu = conjugate(lam)
            for rho in enumerate_partitions(n):
                sign = (-1) ** (n - len(rho))
                assert mn_value(lam, rho) == sign * mn_value(mu, rho)


def test_degree_examples():
    assert degree((9, 1)) == 9
    assert degree((5, 1, 1, 1, 1)) == 70  # self-adjoint hook of 9
    assert degree((8, 2)) == 35  # 10*(10-3)/2
    assert degree((1,)) == 1
    assert [degree(lam) for lam in enumerate_partitions(4)] == [1, 3, 2, 3, 1]


def test_degree_squares_sum_to_factorial():
    for n in range(1, 15):
        assert sum(degree(lam) ** 2 for lam in enumerate_partitions(n)) == math.factorial(n)


def test_degree_equals_mn_on_identity_type():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert degree(lam) == mn_value(lam, (1,) * n)


def test_l_cycle_value():
    # on a long cycle a Sym(n) character is 0 without a hook of the
    # long-cycle length, else (-1)**leg of that (unique) hook
    assert mn_value((7,), (7,)) == 1
    assert mn_value((2, 2), (3, 1)) == -1  # leg 1 of the 3-hook in the square
    assert mn_value((3, 3), (5, 1)) == 0  # no 5-hook
    for n in range(3, 13):
        l = n if n % 2 else n - 1
        lct = (n,) if n % 2 else (n - 1, 1)
        for lam in enumerate_partitions(n):
            leg = hook_leg(lam, l)
            expected = 0 if leg is None else (-1) ** leg
            assert mn_value(lam, lct) == expected


# ---------------------------------------------------------------------------
# Alt(n) characters
# ---------------------------------------------------------------------------


def test_alt_irreducibles_counts():
    assert len(alt_irreducibles(1)) == 1
    assert len(alt_irreducibles(4)) == 4
    assert len(alt_irreducibles(5)) == 5
    for n in range(1, 15):
        assert len(alt_irreducibles(n)) == len(enumerate_alt_classes(n))


def test_alt_char_labels_are_canonical():
    psi = alt_char_for((4,))
    assert psi.partition == (1, 1, 1, 1)
    assert parse_char("4").partition == (1, 1, 1, 1)
    assert parse_char("2,2+").split == "+"
    assert parse_char("2,2−").split == "-"
    with pytest.raises(ValueError):
        AltChar((4,))  # not the canonical member of its pair
    with pytest.raises(ValueError):
        AltChar((2, 2))  # missing split tag
    with pytest.raises(ValueError):
        AltChar((3, 1), "+")  # does not split


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: AltClass((3, 2)), id="odd-cycle-type"),
        pytest.param(lambda: AltClass((5,)), id="exceptional-type-untagged"),
        pytest.param(lambda: AltClass((3, 1, 1), "+"), id="type-that-does-not-split"),
        pytest.param(lambda: AltClass((1, 2)), id="class-parts-increase"),
        pytest.param(lambda: AltChar((3,)), id="label-not-canonical"),
        pytest.param(lambda: AltChar((2, 1)), id="self-adjoint-label-untagged"),
        pytest.param(lambda: AltChar((1, 1, 1), "+"), id="label-that-does-not-split"),
        pytest.param(lambda: validate_partition((2, 3)), id="partition-parts-increase"),
        pytest.param(lambda: enumerate_partitions(-1), id="partitions-of-negative-n"),
        pytest.param(lambda: enumerate_alt_classes(-1), id="classes-of-negative-n"),
        pytest.param(lambda: alt_irreducibles(-1), id="characters-of-negative-n"),
        pytest.param(lambda: mn_value((2,), (1,)), id="sym-value-sizes-differ"),
        pytest.param(
            lambda: alt_value(AltChar((2, 2), "+"), AltClass((5,), "+")),
            id="alt-value-sizes-differ",
        ),
        pytest.param(
            lambda: AltClass((3, 1, 1))._replace(split="+"), id="replace-checks-the-tag"
        ),
    ],
)
def test_a_bad_library_argument_raises_usage_error(call):
    # raised where the argument is checked, so no caller re-raises it
    with pytest.raises(UsageError):
        call()


def test_a_hook_product_that_does_not_divide_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        characters, "hook_length_product", lambda lam: math.factorial(sum(lam)) + 1
    )
    degree.cache_clear()
    try:
        code = main(["degree", "--n", "5", "--partition", "3,2"])
    finally:
        degree.cache_clear()
    out, err = capsys.readouterr()
    assert code == 2 and out == "", err
    assert err == "internal consistency failure: hook product 121 does not divide 5!\n"


def test_an_odd_split_degree_is_a_consistency_failure(monkeypatch):
    monkeypatch.setattr(characters, "degree", lambda lam: 5)
    with pytest.raises(ConsistencyError, match="split character degree 5 is odd"):
        alt_degree(AltChar((2, 1), "+"))


def test_alt_value_identity_is_degree():
    for n in range(2, 9):
        ident = identity_class(n)
        for psi in alt_irreducibles(n):
            value = alt_value(psi, ident)
            assert value == QuadValue(alt_degree(psi))
            if psi.split is None:
                assert value == QuadValue(degree(psi.partition))


def test_alt_value_split_example_a4():
    plus = AltChar((2, 2), "+")
    minus = AltChar((2, 2), "-")
    cplus = AltClass((3, 1), "+")
    cminus = AltClass((3, 1), "-")
    omega = QuadValue(Fraction(-1, 2), Fraction(1, 2), -3)
    omega_bar = omega.conjugate()
    assert alt_value(plus, cplus) == omega
    assert alt_value(plus, cminus) == omega_bar
    assert alt_value(minus, cplus) == omega_bar
    assert alt_value(minus, cminus) == omega
    # off the critical type the split pair agrees: chi/2
    square = AltClass((2, 2))
    assert alt_value(plus, square) == alt_value(minus, square) == QuadValue(1)


def test_split_sum_recovers_sym_character_up_to_12():
    for n in range(2, 13):
        classes = enumerate_alt_classes(n)
        for lam in enumerate_partitions(n):
            if not is_self_adjoint(lam):
                continue
            plus, minus = AltChar(lam, "+"), AltChar(lam, "-")
            for cls in classes:
                total = alt_value(plus, cls) + alt_value(minus, cls)
                assert total == QuadValue(mn_value(lam, cls.cycle_type))


def test_alt_value_matches_the_character_table_up_to_12():
    # alt_value takes its Sym values from mn_value, the table from one
    # abacus per partition
    for n in range(2, 13):
        tbl = character_table(n)
        for psi, row in zip(tbl.chars, tbl.values):
            for cls, value in zip(tbl.classes, row):
                assert alt_value(psi, cls) == value, (n, psi.name, cls.name)


def test_split_long_cycle_magnitude_bound():
    # |psi(x)| <= sqrt(n) on long cycles, for split characters whose label
    # carries a long-cycle hook
    for n in range(3, 14):
        l = n if n % 2 else n - 1
        lct = (n,) if n % 2 else (n - 1, 1)
        cls = AltClass(lct, "+")
        for lam in enumerate_partitions(n):
            if not is_self_adjoint(lam) or hook_leg(lam, l) is None:
                continue
            for tag in ("+", "-"):
                value = alt_value(AltChar(lam, tag), cls)
                if value.d < 0 or value.d == 1:
                    assert (value * value.conjugate()).as_fraction() <= n
                else:
                    assert exact_sign(value * value - n) <= 0


def test_split_values_differ_only_on_critical_type():
    for n in range(2, 11):
        for lam in enumerate_partitions(n):
            if not is_self_adjoint(lam):
                continue
            crit = diagonal_hook_partition(lam)
            plus, minus = AltChar(lam, "+"), AltChar(lam, "-")
            for cls in enumerate_alt_classes(n):
                same = alt_value(plus, cls) == alt_value(minus, cls)
                assert same == (cls.cycle_type != crit)


def test_orthogonality_up_to_8():
    for n in range(2, 9):
        table = character_table(n)
        assert row_orthogonality_holds(table)
        assert column_orthogonality_holds(table)


def test_split_value_with_square_radicand_part():
    # first label whose diagonal-hook product is not squarefree:
    # (5,3,3,1,1) has diagonal hooks (9,3,1), so the radical is
    # sqrt(-27) = 3*sqrt(-3)
    lam = (5, 3, 3, 1, 1)
    assert diagonal_hook_partition(lam) == (9, 3, 1)
    assert mn_value(lam, (9, 3, 1)) == -1
    value = alt_value(AltChar(lam, "+"), AltClass((9, 3, 1), "+"))
    assert value == QuadValue(Fraction(-1, 2), Fraction(3, 2), -3)
    assert value * value.conjugate() == 7  # well under the bound of 13


@pytest.mark.parametrize(
    "n, label, cycle_type", [(9, "5,1,1,1,1", (9,)), (10, "5,2,1,1,1", (9, 1))], ids=["Alt9", "Alt10"]
)
def test_square_radicand_folds_to_a_rational_value(n, label, cycle_type):
    # chi = 1 on the diagonal hooks with hook product 9: (1 +- sqrt(9))/2
    # is 2 on the class of the same tag and -1 on the other
    tbl, lay = character_table(n), _lifted(n)
    for tag in ("+", "-"):
        psi = parse_char(label + tag)
        i = tbl.chars.index(psi)
        assert i not in lay.rad_rows  # the row carries no radicand
        for cls_tag, expected in ((tag, 2), ("+" if tag == "-" else "-", -1)):
            cls = AltClass(cycle_type, cls_tag)
            j = tbl.classes.index(cls)
            assert alt_value(psi, cls) == tbl.values[i][j] == QuadValue(expected)
            assert tbl.values[i][j].d == 1
            assert lay.p[j][i] == 2 * expected


def test_degree_squares_sum_to_group_order():
    for n in range(2, 13):
        total = sum(alt_degree(psi) ** 2 for psi in alt_irreducibles(n))
        assert total == math.factorial(n) // 2


def test_quad_sum_helper_rejects_leftover_radicals():
    with pytest.raises(AssertionError):
        quad_sum([QuadValue(0, 1, 5)])
