import pytest

from classprod.errors import UsageError
from classprod.partitions import (
    conjugate,
    diagonal_hook_partition,
    enumerate_partitions,
    format_partition,
    hook_length_product,
    is_self_adjoint,
    parse_partition,
    validate_partition,
)
from helpers import hook_leg, partition_count, remove_border_strips, skew_strip_removals


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((6,)) == (1,) * 6
    assert conjugate(()) == ()


def test_conjugate_is_involution_up_to_30():
    for n in range(31):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_counts_the_parts_above_each_column_up_to_20():
    # an involution could still be a wrong transpose: column j has one cell
    # for each part longer than j
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            assert conjugate(lam) == tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def test_is_self_adjoint():
    assert is_self_adjoint((2, 2))
    assert is_self_adjoint((3, 1, 1))
    assert is_self_adjoint((1,))
    assert not is_self_adjoint((4,))
    assert not is_self_adjoint((3, 1))


def test_hooks_transpose_up_to_20():
    for n in range(1, 21):
        for lam in enumerate_partitions(n):
            assert hook_length_product(lam) == hook_length_product(conjugate(lam))


def test_diagonal_hook_partition_examples():
    assert diagonal_hook_partition((2, 2)) == (3, 1)
    assert diagonal_hook_partition((3, 2, 1)) == (5, 1)
    for k in range(7):
        hook = (k + 1,) + (1,) * k
        assert diagonal_hook_partition(hook) == (2 * k + 1,)


def test_diagonal_hook_partition_rejects_non_self_adjoint():
    with pytest.raises(ValueError) as exc:
        diagonal_hook_partition((3, 1))
    assert type(exc.value) is UsageError


def test_diagonal_hook_parts_distinct_odd_up_to_30():
    for n in range(1, 31):
        for lam in enumerate_partitions(n):
            if not is_self_adjoint(lam):
                continue
            h = diagonal_hook_partition(lam)
            assert sum(h) == n
            assert all(p % 2 == 1 for p in h)
            assert len(set(h)) == len(h)
            assert list(h) == sorted(h, reverse=True)


def test_find_l_hook():
    assert hook_leg((7,), 7) == 0
    assert hook_leg((2, 2), 4) is None
    # (n-1,1) has hooks of lengths n, n-2, ..., never n-1
    for n in range(4, 11):
        assert hook_leg((n - 1, 1), n - 1) is None
        assert hook_leg((n - 1, 1), n) == 1
    # one column more gives the leg-0 hook next to the corner
    for n in range(4, 9):
        assert hook_leg((n, 1), n - 1) == 0


def test_remove_border_strips_examples():
    removals = remove_border_strips((2, 2), 3)
    assert len(removals) == 1
    assert removals[0].remainder == (1,) and removals[0].height == 1

    removals = remove_border_strips((1,), 1)
    assert len(removals) == 1
    assert removals[0].remainder == () and removals[0].height == 0

    removals = remove_border_strips((6,), 6)
    assert len(removals) == 1
    assert removals[0].remainder == () and removals[0].height == 0


def test_remove_single_cells_are_corners():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            corners = {
                tuple(p - 1 if i == r else p for i, p in enumerate(lam) if not (i == r and p == 1))
                for r in range(len(lam))
                if lam[r] > (lam[r + 1] if r + 1 < len(lam) else 0)
            }
            got = {sr.remainder for sr in remove_border_strips(lam, 1)}
            assert got == corners
            assert all(sr.height == 0 for sr in remove_border_strips(lam, 1))


def test_remove_border_strips_against_skew_search():
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            for length in range(1, n + 1):
                got = {
                    (sr.remainder, sr.height)
                    for sr in remove_border_strips(lam, length)
                }
                assert got == skew_strip_removals(lam, length), (lam, length)


def test_enumerate_partitions_small():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(4) == (
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    )
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_partitions_counts_match_recurrence():
    for n in range(41):
        assert len(enumerate_partitions(n)) == partition_count(n, n)


def test_enumerate_partitions_order_and_uniqueness():
    for n in range(13):
        parts = enumerate_partitions(n)
        assert len(set(parts)) == len(parts)
        assert list(parts) == sorted(parts, reverse=True)
        for lam in parts:
            assert validate_partition(lam) == lam
            assert sum(lam) == n


def test_parse_and_format():
    assert parse_partition("5,3,1") == (5, 3, 1)
    assert parse_partition(" 5 , 3 , 1 ") == (5, 3, 1)
    assert format_partition((5, 3, 1)) == "5,3,1"
    for bad in ("", "3,4", "0", "a", "2,-1", "1,,2"):
        with pytest.raises(UsageError):
            parse_partition(bad)
