import random
from itertools import product

import pytest

from monact import monoid
from monact.act import regular_act
from monact.congruence import kernel_congruence
from monact.endo import homomorphisms
from monact.errors import EntryOutOfRange, NoIdentity, NotAssociative, NotPrime, SizeOverflow
from monact.harness import enumerate_monoids
from monact.monoid import (
    Monoid,
    direct_product,
    element_power,
    generated_submonoid,
    monoid_generators,
    prime_power_product,
    row_partition,
    validate_monoid,
    zmod_mult_monoid,
)

from monact.relation import label_classes, least_labels
from oracles import brute_force_associative, componentwise_product_table, right_relation


def z4_raw_table():
    return [[(a * b) % 4 for b in range(4)] for a in range(4)]


def test_validate_relabels_identity_to_zero():
    raw = z4_raw_table()
    # oracle: brute-force associativity over all 64 triples of the input
    assert all(
        raw[raw[a][b]][c] == raw[a][raw[b][c]]
        for a in range(4)
        for b in range(4)
        for c in range(4)
    )
    M = validate_monoid(4, raw)
    assert M.size == 4
    assert M.relabeling == (1, 0, 2, 3)  # 1 -> index 0, rest keep order
    assert all(M.table[0][x] == x == M.table[x][0] for x in range(4))


def test_validate_trivial_monoid():
    M = validate_monoid(1, [[0]])
    assert M.size == 1 and M.table == ((0,),)


def test_validate_entry_out_of_range():
    with pytest.raises(EntryOutOfRange):
        validate_monoid(2, [[0, 1], [1, 2]])


def test_validate_no_identity():
    with pytest.raises(NoIdentity):
        validate_monoid(2, [[1, 1], [1, 1]])


def test_validate_not_associative_gives_witness():
    table = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(NotAssociative) as err:
        validate_monoid(3, table)
    s, t, u = err.value.witness
    assert table[table[s][t]][u] != table[s][table[t][u]]


def _agrees_with_oracle(table):
    """validate_monoid accepts exactly the associative tables (all given
    tables have an identity); a NotAssociative witness is a failing triple."""
    try:
        validate_monoid(len(table), table)
    except NotAssociative as err:
        s, t, u = err.witness
        assert table[table[s][t]][u] != table[s][table[t][u]]
        return not brute_force_associative(table)
    return brute_force_associative(table)


def _with_identity(n, e, free):
    """The n x n table with identity e and the other entries from `free`."""
    cells = iter(free)
    return [
        [t if s == e else s if t == e else next(cells) for t in range(n)]
        for s in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_light_test_matches_oracle_on_every_small_table(n):
    checked = associative = 0
    for e in range(n):
        for free in product(range(n), repeat=(n - 1) ** 2):
            table = _with_identity(n, e, free)
            assert _agrees_with_oracle(table), table
            checked += 1
            associative += brute_force_associative(table)
    assert checked == n * n ** ((n - 1) ** 2)
    assert associative > 0


@pytest.mark.parametrize("n", [4, 5])
def test_light_test_matches_oracle_on_random_tables(n):
    rng = random.Random(20250 + n)
    for _ in range(400):
        e = rng.randrange(n)
        table = _with_identity(n, e, [rng.randrange(n) for _ in range((n - 1) ** 2)])
        assert _agrees_with_oracle(table), table


def test_light_test_matches_oracle_on_monoids_with_one_entry_changed():
    rng = random.Random(11)
    monoids = enumerate_monoids(4) + [zmod_mult_monoid(5), zmod_mult_monoid(6)]
    for M in monoids:
        n = M.size
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for s in range(n):
            for t in range(n):
                table[perm[s]][perm[t]] = perm[M.table[s][t]]
        assert _agrees_with_oracle(table)
        for _ in range(10):
            s, t = rng.randrange(1, n), rng.randrange(1, n)
            changed = [row[:] for row in table]
            changed[perm[s]][perm[t]] = rng.randrange(n)
            assert _agrees_with_oracle(changed), changed


def test_element_power(z4):
    idx = z4.relabeling
    assert element_power(z4, idx[2], 2) == idx[0]
    assert element_power(z4, idx[3], 1) == idx[3]


def test_element_power_additivity():
    for M in enumerate_monoids(3):
        for s in range(M.size):
            for a in range(1, 4):
                for b in range(1, 4):
                    lhs = element_power(M, s, a + b)
                    rhs = M.table[element_power(M, s, a)][element_power(M, s, b)]
                    assert lhs == rhs


def test_right_relation_examples(z4):
    idx = z4.relabeling
    assert right_relation(z4, idx[1]) == row_partition(z4, idx[1]) == tuple((a,) for a in range(4))
    # s=2 splits residues by parity: {0,2} and {1,3} before relabeling
    assert right_relation(z4, idx[2]) == row_partition(z4, idx[2]) == ((0, 3), (1, 2))
    assert right_relation(z4, idx[0]) == row_partition(z4, idx[0]) == (tuple(range(4)),)


def test_right_relation_is_equivalence_and_matches_translation_kernel():
    for M in enumerate_monoids(3):
        R = regular_act(M)
        translations = set(homomorphisms(R, R))
        for s in range(M.size):
            classes = right_relation(M, s)
            # the classes read off the pairs partition the carrier
            assert sorted(a for cls in classes for a in cls) == list(range(M.size))
            assert row_partition(M, s) == classes
            lam = tuple(M.table[s])
            assert lam in translations
            assert kernel_congruence(R, lam).classes == classes


def test_row_partition_matches_least_label_classes():
    # the one-pass grouping against the quadratic least-member labelling;
    # that labelling takes ~40 s over all 2048 rows of Z/2048, so a seeded
    # sample of its rows is checked, units among them
    for M in [M for n in (1, 2, 3, 4) for M in enumerate_monoids(n)]:
        for s in range(M.size):
            assert row_partition(M, s) == label_classes(least_labels(M.table[s]))
    z = zmod_mult_monoid(2048)
    rows = random.Random(2048).sample(range(z.size), 48)
    assert any(len(set(z.table[s])) == z.size for s in rows)
    for s in rows:
        assert row_partition(z, s) == label_classes(least_labels(z.table[s])), s


def test_direct_product_unit_law(trivial, z4):
    P = direct_product([trivial, z4])
    assert P.size == 4 and P.table == z4.table


def test_direct_product_sizes_and_identity():
    P = direct_product([zmod_mult_monoid(2), zmod_mult_monoid(4)])
    assert P.size == 8
    assert all(P.table[0][x] == x == P.table[x][0] for x in range(8))


def test_direct_product_matches_componentwise_oracle():
    z2, z4 = zmod_mult_monoid(2), zmod_mult_monoid(4)
    P = direct_product([z2, z4])
    expected = componentwise_product_table([z2.table, z4.table])
    assert P.table == tuple(tuple(row) for row in expected)
    # (0,2)^2 = (0,0): residue indices via each factor's relabeling
    a = z2.relabeling[0] * 4 + z4.relabeling[2]
    zero = z2.relabeling[0] * 4 + z4.relabeling[0]
    assert P.table[a][a] == zero


def _oracle_product(factors):
    return tuple(map(tuple, componentwise_product_table([f.table for f in factors])))


def test_direct_product_of_three_factors_matches_oracle():
    factors = [zmod_mult_monoid(q) for q in (2, 4, 8)]
    assert direct_product(factors).table == _oracle_product(factors)


@pytest.mark.parametrize("p, depth", [(2, 4), (3, 3)])
def test_prime_power_product_matches_oracle(p, depth):
    P, _ = prime_power_product(p, depth)
    assert P.table == _oracle_product([zmod_mult_monoid(p**k) for k in range(1, depth + 1)])


def test_planted_least_significant_first_fold_is_caught(monkeypatch):
    # each factor folded in as the most significant digit, so the last
    # factor ends up first in the encoding
    real = monoid._product_table
    monkeypatch.setattr(monoid, "_product_table", lambda left, right: real(right, left))
    factors = [zmod_mult_monoid(q) for q in (2, 4, 8)]
    assert direct_product(factors).table != _oracle_product(factors)


def test_direct_product_projections_are_homomorphisms():
    z2, z3 = zmod_mult_monoid(2), zmod_mult_monoid(3)
    P = direct_product([z2, z3])
    for a in range(P.size):
        for b in range(P.size):
            ab = P.table[a][b]
            assert ab // 3 == z2.table[a // 3][b // 3]
            assert ab % 3 == z3.table[a % 3][b % 3]


def test_direct_product_overflow():
    z = zmod_mult_monoid(64)
    with pytest.raises(SizeOverflow):
        direct_product([z, z, z])


def test_zmod_examples():
    assert zmod_mult_monoid(1).size == 1
    z4 = zmod_mult_monoid(4)
    i = z4.relabeling
    assert z4.table[i[3]][i[3]] == i[1]  # 9 = 1 mod 4
    z8 = zmod_mult_monoid(8)
    j = z8.relabeling
    assert element_power(z8, j[2], 3) == j[0]  # 8 = 0 mod 8


def test_zmod_small_sizes_pass_full_validation():
    for m in range(1, 7):
        z = zmod_mult_monoid(m)
        revalidated = validate_monoid(z.size, z.table)
        assert revalidated.table == z.table


def test_prime_power_product_small_cases():
    S1, x1 = prime_power_product(2, 1)
    assert S1.size == 2 and x1 == zmod_mult_monoid(2).relabeling[0]
    S2, x2 = prime_power_product(2, 2)
    assert S2.size == 8
    # x = (0 mod 2, 2 mod 4): mixed-radix index from the factor relabelings
    expected = zmod_mult_monoid(2).relabeling[0] * 4 + zmod_mult_monoid(4).relabeling[2]
    assert x2 == expected
    S3, x3 = prime_power_product(3, 2)
    assert S3.size == 27
    assert x3 == zmod_mult_monoid(3).relabeling[0] * 9 + zmod_mult_monoid(9).relabeling[3]


def test_prime_power_product_rejects_composite():
    with pytest.raises(NotPrime):
        prime_power_product(4, 2)
    with pytest.raises(NotPrime):
        prime_power_product(1, 1)


def test_prime_power_product_checks_the_size_cap_first(monkeypatch):
    def refuse(p):
        raise AssertionError(f"trial division of {p}")

    monkeypatch.setattr(monoid, "is_prime", refuse)
    with pytest.raises(SizeOverflow, match="Z/4099 exceeds the monoid size cap 4096"):
        prime_power_product(4099, 1)


def test_prime_power_product_overflow():
    with pytest.raises(SizeOverflow):
        prime_power_product(2, 5)


def test_every_element_eventually_power_stabilizes():
    # s^n = s^(n+1) * t for some n <= |S| and t, exhaustively
    for n in (1, 2, 3):
        for M in enumerate_monoids(n):
            for s in range(M.size):
                assert any(
                    element_power(M, s, k) == M.table[element_power(M, s, k + 1)][t]
                    for k in range(1, M.size + 1)
                    for t in range(M.size)
                )


def test_monoid_generators_generate():
    for n in (1, 2, 3):
        for M in enumerate_monoids(n):
            gens = monoid_generators(M)
            assert generated_submonoid(M, gens) == set(range(M.size))
            # minimality: no smaller subset works
            if gens:
                smaller = len(gens) - 1
                from itertools import combinations

                assert not any(
                    len(generated_submonoid(M, g)) == M.size
                    for g in combinations(range(1, M.size), smaller)
                )


def test_monoid_equality_ignores_relabeling_provenance():
    a = Monoid(2, ((0, 1), (1, 1)), (0, 1))
    b = Monoid(2, ((0, 1), (1, 1)), (1, 0))
    assert a == b
