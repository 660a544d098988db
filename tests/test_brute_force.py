import math
import random
from fractions import Fraction

import pytest

import classprod.brute_force as brute_force
from classprod.alt_group import (
    AltClass,
    NormalSet,
    class_size,
    classes_by_type,
    enumerate_alt_classes,
    identity_class,
    inverse_class,
    long_cycle_classes,
)
from classprod.brute_force import (
    ORACLE_MAX_N,
    _even_class,
    alt_conjugacy_classes,
    canonical_representative,
    class_members,
    compose,
    cycles,
    inverse,
    oracle_class_product,
)
from classprod.characters import character_table, degree
from classprod.errors import CapabilityError, ConsistencyError, UsageError
from classprod.product_engine import covering_number, product_set
from classprod.quadvalue import QuadValue
from helpers import (
    alt_conjugacy_classes_reference,
    compose_reference,
    cycle_type,
    inverse_reference,
    oracle_character_table,
    oracle_class_product_reference,
    oracle_pair_count,
    perm_sign,
    quad_sum,
    split_tag,
)


def from_cycles(n, *cycs):
    images = list(range(n))
    for cyc in cycs:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return bytes(images)


def test_compose_convention():
    p = from_cycles(5, (0, 1, 2))
    q = from_cycles(5, (2, 3, 4))
    assert compose(p, bytes(range(5))) == p
    assert compose(p, inverse(p)) == bytes(range(5))
    # (0 1 2) o (2 3 4) moves 2 -> 3 first, then 3 -> 4 under the left factor
    assert cycle_type(compose(p, q)) == (5,)
    assert compose(p, q) == from_cycles(5, (0, 1, 2, 3, 4))


def test_compose_refuses_mismatched_lengths():
    with pytest.raises(ValueError) as exc:
        compose(bytes((0, 1, 2)), bytes((0, 1)))
    assert type(exc.value) is UsageError
    with pytest.raises(ValueError) as exc:
        compose(bytes((0, 1)), bytes((0, 1, 2)))
    assert type(exc.value) is UsageError


def test_compose_is_associative():
    rng = random.Random(7)
    perms = [bytes(rng.sample(range(6), 6)) for _ in range(30)]
    for _ in range(100):
        p, q, r = rng.choice(perms), rng.choice(perms), rng.choice(perms)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_cycles_and_sign():
    p = from_cycles(6, (0, 1, 2), (3, 4))
    assert cycle_type(p) == (3, 2, 1)
    assert perm_sign(p) == -1
    assert perm_sign(tuple(range(6))) == 1
    assert [len(c) for c in cycles(p)] == [3, 2, 1]
    by_type = classes_by_type(6)
    assert _even_class(from_cycles(6, (0, 1, 2), (3, 4, 5)), by_type) == AltClass((3, 3))
    with pytest.raises(ConsistencyError, match="odd permutation"):
        _even_class(p, by_type)


def test_canonical_representative():
    assert canonical_representative((3, 1)) == bytes((1, 2, 0, 3))
    assert canonical_representative((5,)) == bytes((1, 2, 3, 4, 0))
    assert cycle_type(canonical_representative((5, 3, 1))) == (5, 3, 1)


def test_split_tag_convention():
    w = canonical_representative((3, 1))
    assert split_tag(w) == "+"
    # conjugating by a transposition flips the class
    t = from_cycles(4, (0, 1))
    flipped = compose(compose(t, w), inverse(t))
    assert split_tag(flipped) == "-"
    with pytest.raises(ValueError):
        split_tag(from_cycles(4, (0, 1), (2, 3)))  # not exceptional
    assert _even_class(w, classes_by_type(4)) == AltClass((3, 1), "+")
    assert _even_class(flipped, classes_by_type(4)) == AltClass((3, 1), "-")


def test_orbit_sizes_small():
    assert sorted(len(m) for m in alt_conjugacy_classes(4).members.values()) == [1, 3, 4, 4]
    assert sorted(len(m) for m in alt_conjugacy_classes(5).members.values()) == [1, 12, 12, 15, 20]


def test_orbit_sizes_match_class_size_up_to_the_cap():
    for n in range(1, ORACLE_MAX_N + 1):
        table = alt_conjugacy_classes(n)
        assert table.order == max(math.factorial(n) // 2, 1)
        for cls in table.classes:
            assert table.size(cls) == class_size(cls)
        for cls in table.classes:
            if cls.split is not None:
                partner = AltClass(cls.cycle_type, "-" if cls.split == "+" else "+")
                assert table.size(cls) == table.size(partner)


def test_classification_respects_conjugacy():
    # conjugating random members by random even permutations keeps the class
    for n in (4, 5, 6):
        table = alt_conjugacy_classes(n)
        elements = list(table.class_of)
        rng = random.Random(n)
        for _ in range(300):
            x = rng.choice(elements)
            s = rng.choice(elements)
            y = compose(compose(s, x), inverse(s))
            assert table.class_of[y] == table.class_of[x]


def test_classify_matches_canonical_representative():
    for n in range(2, ORACLE_MAX_N + 1):
        for cls in enumerate_alt_classes(n):
            if cls.split == "-":
                continue
            rep = canonical_representative(cls.cycle_type)
            assert _even_class(rep, classes_by_type(n)) == AltClass(cls.cycle_type, cls.split and "+")


def count_walks(monkeypatch) -> list:
    """Record every permutation that ``_even_class`` walks from now on."""
    walks = []
    walk = brute_force._even_class

    def counted(p, by_type):
        walks.append(p)
        return walk(p, by_type)

    monkeypatch.setattr(brute_force, "_even_class", counted)
    return walks


@pytest.mark.parametrize("n", range(1, ORACLE_MAX_N + 1))
def test_one_walk_enumeration_matches_the_reference(n, fresh_oracle):
    # the element-by-element classification (sign, cycle type, split tag),
    # products through the reference composition
    ref = alt_conjugacy_classes_reference(n)

    def products_match():
        for a in ref.classes:
            for b in ref.classes:
                assert oracle_class_product(a, b) == oracle_class_product_reference(ref, a, b)

    # from empty caches most products are walked and filed, and later ones
    # read those filings; once the table has filed all of Alt(n), none walks
    products_match()
    table = alt_conjugacy_classes(n)
    assert table.classes == ref.classes
    assert {c: set(ps) for c, ps in table.members.items()} == {
        c: set(map(bytes, ps)) for c, ps in ref.members.items()
    }
    assert table.class_of == {bytes(p): c for p, c in ref.class_of.items()}
    for a in table.classes:
        rep = table.representative(a)
        assert inverse(rep) == bytes(inverse_reference(rep))
        for b in table.classes:
            other = table.representative(b)
            assert compose(rep, other) == bytes(compose_reference(rep, other))
    products_match()


@pytest.mark.parametrize("n", range(1, ORACLE_MAX_N + 1))
def test_class_members_are_the_enumerated_class(n):
    table = alt_conjugacy_classes(n)
    for cls in table.classes:
        members = class_members(cls)
        assert set(members) == set(table.members[cls])
        assert len(members) == class_size(cls)


def test_the_group_table_walks_no_permutation(monkeypatch, fresh_oracle):
    # Alt(n) is the union of the class orbits, which conjugate and never
    # classify
    walks = count_walks(monkeypatch)
    for n in range(1, ORACLE_MAX_N + 1):
        alt_conjugacy_classes(n)
    assert walks == []


def test_a_repeated_oracle_product_walks_nothing(monkeypatch, fresh_oracle):
    # the first product files every permutation it walks, so the second
    # finds each one by lookup
    a, b = AltClass((6, 2)), AltClass((5, 3), "-")
    walks = count_walks(monkeypatch)
    first = oracle_class_product(a, b)
    assert walks
    walks.clear()
    assert oracle_class_product(a, b) == first
    assert walks == []


def test_a_covering_oracle_product_stops_once_every_class_is_met(monkeypatch, fresh_oracle):
    # 4,2,1,1 squared covers Alt(8): once every class is met, the rest of
    # the orbit is not multiplied out
    a = AltClass((4, 2, 1, 1))
    walks = count_walks(monkeypatch)
    got = oracle_class_product(a, a)
    assert 0 < len(walks) < class_size(a) // 2
    assert got == frozenset(enumerate_alt_classes(8))
    assert got == oracle_class_product_reference(alt_conjugacy_classes_reference(8), a, a)


def test_orbits_under_too_few_generators_are_refused(capsys, monkeypatch, fresh_oracle):
    # (0 1 2) alone does not generate Alt(8): every orbit comes out short
    from classprod.cli import main

    three = from_cycles(8, (0, 1, 2))
    monkeypatch.setattr(brute_force, "_alt_generators", lambda n: (three,))
    with pytest.raises(ConsistencyError, match="orbit of 6,2 has"):
        class_members(AltClass((6, 2)))
    code = main(["product", "--n", "8", "--a", "6,2", "--b", "5,3-", "--mode", "oracle"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.splitlines()) == 1, err
    assert "orbit of 5,3- has" in err


def test_an_odd_oracle_product_is_a_consistency_failure(capsys, monkeypatch, fresh_oracle):
    # a product of two even permutations is even: a kernel whose table of
    # the 5,1+ representative carries the transposition (0 1) forms odd
    # products, and the oracle must say so, not file them as a class
    from classprod.cli import main

    five = bytes((1, 2, 3, 4, 0, 5))
    odd = brute_force._table(compose(from_cycles(6, (0, 1)), five))
    real = brute_force._table
    monkeypatch.setattr(brute_force, "_table", lambda p: odd if p == five else real(p))
    code = main(["product", "--n", "6", "--a", "3,1,1,1", "--b", "5,1+", "--mode", "oracle"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("internal consistency failure: ")


def test_capability_cap():
    with pytest.raises(CapabilityError):
        alt_conjugacy_classes(9)


def test_nonpositive_n_is_a_usage_error():
    for n in (0, -1):
        with pytest.raises(UsageError, match="n must be positive"):
            alt_conjugacy_classes(n)


def test_oracle_pair_count_trivial():
    table = alt_conjugacy_classes(5)
    ident = identity_class(5)
    assert oracle_pair_count(table, ident, ident, bytes(range(5))) == 1
    threes = AltClass((3, 1, 1))
    # x * x^{-1} = 1 pairs x with its inverse: |A| factorizations
    assert oracle_pair_count(table, threes, inverse_class(threes), bytes(range(5))) == 20
    # a 5-cycle never factors as identity * 3-cycle
    five = table.representative(AltClass((5,), "+"))
    assert oracle_pair_count(table, ident, threes, five) == 0


def test_oracle_product_set_long_cycles():
    ol = NormalSet.of(long_cycle_classes(5))
    assert product_set(ol, ol, mode="oracle").is_full()


def test_oracle_covering_number_fpf_n8():
    fpf = AltClass((2, 2, 2, 2))
    assert covering_number(fpf, 5, mode="oracle") == 4


def test_oracle_covering_number_stops_at_a_repeated_power(monkeypatch, fresh_oracle):
    # the powers of 2,2 in Alt(4) repeat from the square on and never cover
    # it: a thousand powers ask for no more class products than the first
    # repeat does
    asked = []
    real = brute_force.oracle_class_product

    def counted(a, b):
        asked.append((a, b))
        return real(a, b)

    monkeypatch.setattr(brute_force, "oracle_class_product", counted)
    assert covering_number(AltClass((2, 2)), 1000, mode="oracle") is None
    assert len(asked) <= 3


def test_inverse_class_matches_oracle():
    for n in range(2, ORACLE_MAX_N + 1):
        table = alt_conjugacy_classes(n)
        for cls in table.classes:
            rep = table.representative(cls)
            assert table.class_of[inverse(rep)] == inverse_class(cls)


def test_oracle_character_table_a4_values():
    rows = oracle_character_table(alt_conjugacy_classes(4))
    omega = QuadValue(Fraction(-1, 2), Fraction(1, 2), -3)
    flat = {v for row in rows for v in row}
    assert omega in flat and omega.conjugate() in flat
    # degrees 1, 1, 1, 3 in the identity column
    id_idx = list(enumerate_alt_classes(4)).index(identity_class(4))
    assert sorted(row[id_idx].as_fraction() for row in rows) == [1, 1, 1, 3]


def test_oracle_table_degrees_match_hook_formula():
    for n in (4, 5, 6):
        rows = oracle_character_table(alt_conjugacy_classes(n))
        id_idx = list(enumerate_alt_classes(n)).index(identity_class(n))
        got = sorted(row[id_idx].as_fraction() for row in rows)
        want = sorted(
            degree(psi.partition) // (1 if psi.split is None else 2)
            for psi in character_table(n).chars
        )
        assert got == want


def test_oracle_table_orthogonality():
    for n in (3, 4, 5):
        table = alt_conjugacy_classes(n)
        rows = oracle_character_table(table)
        sizes = [table.size(c) for c in table.classes]
        order = table.order
        for i, r1 in enumerate(rows):
            for j, r2 in enumerate(rows):
                total = quad_sum(
                    v1 * v2.conjugate() * s for v1, v2, s in zip(r1, r2, sizes)
                )
                assert total == (order if i == j else 0)


def test_oracle_table_equals_engine_table():
    for n in range(3, 8):
        table = alt_conjugacy_classes(n)
        oracle_rows = oracle_character_table(table)
        eng = character_table(n)
        id_idx = list(eng.classes).index(identity_class(n))
        key = lambda row: (row[id_idx].a, [(v.a, v.b, v.d) for v in row])
        assert tuple(sorted(eng.values, key=key)) == oracle_rows


def test_oracle_table_capability_cap():
    with pytest.raises(CapabilityError):
        oracle_character_table(alt_conjugacy_classes(8))
