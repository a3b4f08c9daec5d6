import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monact import congruence as congruence_module
from monact.act import Act, ActHom, validate_act
from monact.congruence import (
    Congruence,
    congruence,
    congruence_closure,
    diagonal,
    enumerate_congruences,
    image_congruence,
    join,
    kernel_congruence,
    meet,
    rees_congruence,
    universal,
)
from monact.act import subact
from monact.endo import homomorphisms
from monact.errors import CarrierTooLarge, NotACongruence, ParentMismatch
from monact.harness import enumerate_acts, enumerate_monoids
from monact.monoid import validate_monoid

from oracles import (
    all_partitions,
    bell_number,
    brute_force_congruences,
    chain_join_oracle,
    compose,
    is_compatible_partition,
    partition_labels,
    power,
    refines_oracle,
    right_relation,
)


def small_corpus(max_monoid=2, max_act=3):
    for n in range(1, max_monoid + 1):
        for M in enumerate_monoids(n):
            for m in range(1, max_act + 1):
                yield from enumerate_acts(M, m)


def test_closure_of_empty_is_diagonal(a2):
    assert congruence_closure(a2, []) == diagonal(a2)


def test_closure_forces_translation(a2):
    assert congruence_closure(a2, [(0, 1)]) == universal(a2)


def test_closure_on_regular_z4(reg_z4, z4):
    idx = z4.relabeling
    got = congruence_closure(reg_z4, [(idx[1], idx[3])])
    # classes in original labels: {1,3}, {0}, {2}
    expected = congruence(
        reg_z4, [(idx[1], idx[3]), (idx[0],), (idx[2],)]
    )
    assert got == expected


def test_kernel_congruence_examples(a2, reg_z4, z4):
    assert kernel_congruence(ActHom(a2, a2, (0, 1))) == diagonal(a2)
    assert kernel_congruence(ActHom(a2, a2, (1, 1))) == universal(a2)
    idx = z4.relabeling
    lam2 = ActHom(reg_z4, reg_z4, tuple(z4.table[idx[2]]))
    ker = kernel_congruence(lam2)
    assert ker.classes == right_relation(z4, idx[2])


def test_image_congruence_examples(a2, reg_z4, z4):
    assert image_congruence(ActHom(a2, a2, (0, 1))) == universal(a2)
    assert image_congruence(ActHom(a2, a2, (1, 1))) == diagonal(a2)
    idx = z4.relabeling
    lam2 = ActHom(reg_z4, reg_z4, tuple(z4.table[idx[2]]))
    img = image_congruence(lam2)
    assert sorted(map(len, img.classes)) == [1, 1, 2]
    big = max(img.classes, key=len)
    assert set(big) == {idx[0], idx[2]}


def test_kernel_and_image_congruences_of_every_endo_power_are_compatible():
    # the two constructors trust their input; the oracle checks what they build
    for A in small_corpus():
        for f in homomorphisms(A, A):
            seen = set()
            fn = f
            while fn.mapping not in seen:
                seen.add(fn.mapping)
                assert is_compatible_partition(A, kernel_congruence(fn).classes)
                assert is_compatible_partition(A, image_congruence(fn).classes)
                fn = compose(f, fn)


def test_rees_congruence_examples(a2, reg_z4, z4):
    assert rees_congruence(a2, subact(a2, [0, 1])) == universal(a2)
    assert rees_congruence(a2, subact(a2, [1])) == diagonal(a2)
    idx = z4.relabeling
    rho = rees_congruence(reg_z4, subact(reg_z4, [idx[0], idx[2]]))
    assert len(rho.classes) == 3


def test_join_meet_unit_laws(a2, reg_z4):
    for A in (a2, reg_z4):
        for rho in enumerate_congruences(A):
            assert join(diagonal(A), rho) == rho
            assert meet(universal(A), rho) == rho


def test_join_example_on_regular_z4(reg_z4, z4):
    idx = z4.relabeling
    lam2 = ActHom(reg_z4, reg_z4, tuple(z4.table[idx[2]]))
    k = kernel_congruence(lam2)
    i = image_congruence(lam2)
    assert join(k, i) == k  # image classes sit inside the kernel classes


def test_join_on_a2(a2):
    c_y = ActHom(a2, a2, (1, 1))
    assert join(kernel_congruence(c_y), image_congruence(c_y)) == universal(a2)


def test_parent_mismatch(a2, singleton):
    with pytest.raises(ParentMismatch):
        join(diagonal(a2), diagonal(singleton))


def test_congruence_constructor_rejects_incompatible(reg_z4, z4):
    idx = z4.relabeling
    with pytest.raises(NotACongruence):
        congruence(reg_z4, [(idx[0], idx[1]), (idx[2], idx[3])])
    with pytest.raises(NotACongruence):
        congruence(reg_z4, [(0, 1)])  # misses elements


def test_enumerate_singleton(singleton):
    assert enumerate_congruences(singleton) == [diagonal(singleton)]


def test_enumerate_three_point_trivial_action(trivial):
    A = validate_act(trivial, 3, [[0], [1], [2]])
    congs = enumerate_congruences(A)
    # every partition is compatible when only the identity acts
    assert len(congs) == bell_number(3) == 5
    assert congs[0] == diagonal(A)
    assert congs[-1] == universal(A)


def test_enumerate_a2(a2):
    assert enumerate_congruences(a2) == [diagonal(a2), universal(a2)]


def test_enumerate_matches_brute_force_small():
    for A in small_corpus(2, 4):
        got = [c.classes for c in enumerate_congruences(A)]
        assert sorted(got) == brute_force_congruences(A)


def test_dropped_translation_in_closure_is_caught(monkeypatch):
    """Planted bug: the closure kernel skips the translation by the
    non-identity element 1.  Comparing the enumeration with the partition
    filter, as test_enumerate_matches_brute_force_small does, must notice."""
    close = congruence_module._close

    def dropped(A, labels, pairs):
        # a*1 read as a*identity, so the pushed pair is the merged pair itself
        rows = tuple(row[:1] + row[:1] + row[2:] for row in A.action)
        return close(Act(A.monoid, A.size, rows), labels, pairs)

    acts = [A for A in small_corpus(2, 4) if A.monoid.size > 1]
    monkeypatch.setattr(congruence_module, "_close", dropped)
    caught = [
        A for A in acts
        if sorted(c.classes for c in enumerate_congruences(A)) != brute_force_congruences(A)
    ]
    assert caught


def test_enumerate_cap(monkeypatch):
    t = validate_monoid(1, [[0]])
    A = validate_act(t, 3, [[0], [1], [2]])
    monkeypatch.setattr(congruence_module, "CONGRUENCE_ENUM_CAP", 2)
    with pytest.raises(CarrierTooLarge):
        enumerate_congruences(A)


def test_join_is_least_upper_bound():
    for A in small_corpus(2, 3):
        congs = enumerate_congruences(A)
        for rho in congs:
            for sigma in congs:
                j = join(rho, sigma).classes
                assert refines_oracle(rho.classes, j) and refines_oracle(sigma.classes, j)
                for tau in (c.classes for c in congs):
                    if refines_oracle(rho.classes, tau) and refines_oracle(sigma.classes, tau):
                        assert refines_oracle(j, tau)


def test_kernel_image_chains_are_monotone():
    for A in small_corpus(2, 3):
        for f in homomorphisms(A, A):
            for n in range(1, A.size + 2):
                k_n = kernel_congruence(power(f, n))
                k_n1 = kernel_congruence(power(f, n + 1))
                assert refines_oracle(k_n.classes, k_n1.classes)
                im_n = set(power(f, n).mapping)
                im_n1 = set(power(f, n + 1).mapping)
                assert im_n1 <= im_n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_join_matches_chain_characterization(seed):
    rng = random.Random(seed)
    acts = list(small_corpus(2, 4))
    A = acts[rng.randrange(len(acts))]

    def random_congruence():
        n_pairs = rng.randrange(0, A.size)
        pairs = [
            (rng.randrange(A.size), rng.randrange(A.size)) for _ in range(n_pairs)
        ]
        return congruence_closure(A, pairs)

    rho, sigma = random_congruence(), random_congruence()
    got = join(rho, sigma)
    assert got.classes == chain_join_oracle(A.size, rho.classes, sigma.classes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_closure_is_least_congruence_containing_seed(seed):
    rng = random.Random(seed)
    acts = list(small_corpus(2, 4))
    A = acts[rng.randrange(len(acts))]
    pairs = [
        (rng.randrange(A.size), rng.randrange(A.size))
        for _ in range(rng.randrange(0, A.size))
    ]
    closed = congruence_closure(A, pairs)
    assert is_compatible_partition(A, closed.classes)
    assert all(closed.related(a, b) for a, b in pairs)
    # least: any compatible partition relating all seed pairs is coarser
    for classes in all_partitions(A.size):
        if not is_compatible_partition(A, classes):
            continue
        cand = Congruence(A, partition_labels(classes))
        if all(cand.related(a, b) for a, b in pairs):
            assert refines_oracle(closed.classes, classes)


def test_package_attribute_congruence_is_the_module():
    import types

    import monact

    assert isinstance(monact.congruence, types.ModuleType)
    assert monact.congruence.congruence is congruence
