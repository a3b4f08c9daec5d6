from itertools import product

import pytest

from monact import endo
from monact.act import ActHom, quotient_by_congruence, subact, validate_act
from monact.congruence import rees_congruence
from monact.endo import (
    end_monoid,
    has_section,
    homomorphisms,
    induces_all_endomorphisms,
    is_commutative,
    is_fully_invariant,
    is_retract_of,
    is_strongly_pi_regular,
)
from monact.errors import SearchBudgetExceeded, SizeOverflow
from monact.harness import CorpusSpec, build_corpus, enumerate_acts, enumerate_monoids
from monact.monoid import validate_monoid

from oracles import act_hom, brute_force_homs


def test_homs_a2(a2):
    assert [f.mapping for f in homomorphisms(a2, a2)] == [(0, 1), (1, 1)]


def test_homs_regular_act_are_left_translations(z4, reg_z4):
    homs = homomorphisms(reg_z4, reg_z4)
    assert len(homs) == 4
    assert {f.mapping for f in homs} == {tuple(z4.table[a]) for a in range(4)}


def test_homs_from_singleton_hit_fixed_points(singleton, trivial, m2, a2):
    one = validate_act(m2, 1, [[0, 0]])
    maps = [f.mapping for f in homomorphisms(one, a2)]
    # only y is fixed by e
    assert maps == [(1,)]


def same_monoid_pairs(max_monoid, max_act):
    corpus = build_corpus(CorpusSpec(max_monoid, max_act))
    return [(A, B) for per in corpus.acts for A in per for B in per]


def hom_mismatches(pairs):
    """The pairs whose hom search differs from the brute-force filter."""
    return [
        (A, B) for A, B in pairs
        if [f.mapping for f in endo.homomorphisms(A, B)] != brute_force_homs(A, B)
    ]


def test_homs_match_brute_force():
    # every same-monoid pair of the default corpus: monoids <= 3, acts <= 4
    pairs = same_monoid_pairs(3, 4)
    assert len(pairs) == 2492
    assert hom_mismatches(pairs) == []


def _plant_in_homs(monkeypatch, change):
    real = endo.homomorphisms
    monkeypatch.setattr(
        endo, "homomorphisms", lambda A, B, *rest: change(A, B, real(A, B, *rest))
    )


def test_planted_extra_hom_is_caught(monkeypatch):
    # the first map in product order that the search did not return,
    # which is not equivariant since the search returns all that are
    def extra(A, B, homs):
        found = {f.mapping for f in homs}
        for mapping in product(range(B.size), repeat=A.size):
            if mapping not in found:
                return sorted(homs + [ActHom(A, B, mapping)], key=lambda f: f.mapping)
        return homs

    pairs = same_monoid_pairs(2, 3)
    _plant_in_homs(monkeypatch, extra)
    assert len(hom_mismatches(pairs)) > 0


def test_planted_missing_hom_is_caught(monkeypatch):
    pairs = same_monoid_pairs(2, 3)
    _plant_in_homs(monkeypatch, lambda A, B, homs: homs[:-1])
    assert len(hom_mismatches(pairs)) > 0


def test_homs_pass_equivariance(a2, reg_z4):
    for f in homomorphisms(reg_z4, reg_z4):
        act_hom(f.source, f.target, f.mapping)


def test_budget_exceeded(trivial, monkeypatch):
    A = validate_act(trivial, 4, [[0], [1], [2], [3]])
    monkeypatch.setattr(endo, "DEFAULT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded):
        homomorphisms(A, A)


def test_hom_list_stops_at_size_cap(trivial, monkeypatch):
    # 5^5 = 3125 endomorphisms: a cap of 3125 holds them all, and one
    # less stops the search at map 3125
    A = validate_act(trivial, 5, [[a] for a in range(5)])
    monkeypatch.setattr(endo, "SIZE_CAP", 3124)
    with pytest.raises(SizeOverflow, match="more than 3124 homomorphisms: search stopped at map 3125"):
        homomorphisms(A, A)
    monkeypatch.setattr(endo, "SIZE_CAP", 3125)
    assert len(homomorphisms(A, A)) == 3125


def test_end_monoid_a2(a2, m2):
    E = end_monoid(a2)
    assert E.monoid.table == m2.table
    assert E.elements[0].mapping == (0, 1)  # identity endomorphism first
    assert is_commutative(E)


def test_end_monoid_regular_z4(reg_z4, z4):
    E = end_monoid(reg_z4)
    assert E.monoid.table == z4.table
    assert is_commutative(E)


def test_end_monoid_singleton(singleton):
    E = end_monoid(singleton)
    assert E.monoid.size == 1


def test_end_monoid_composition_is_associative():
    for M in enumerate_monoids(2):
        for A in enumerate_acts(M, 3):
            E = end_monoid(A)
            revalidated = validate_monoid(E.monoid.size, E.monoid.table)
            assert revalidated.table == E.monoid.table
            # table consistent with pointwise composition
            for i, f in enumerate(E.elements):
                for j, g in enumerate(E.elements):
                    comp = tuple(f.mapping[g.mapping[a]] for a in range(A.size))
                    assert E.elements[E.monoid.table[i][j]].mapping == comp


def _retract(A, B):
    return is_retract_of(homomorphisms(A, B), homomorphisms(B, A))


def test_retract_of_itself(a2):
    r = _retract(a2, a2)
    assert r is not None
    assert r.gamma.mapping == (0, 1) and r.pi.mapping == (0, 1)
    assert not r.proper


def test_singleton_is_proper_retract_of_a2(m2, a2):
    one = validate_act(m2, 1, [[0, 0]])
    r = _retract(one, a2)
    assert r is not None and r.proper
    assert r.gamma.mapping == (1,)  # embeds onto the fixed point y
    assert tuple(r.pi.mapping[b] for b in r.gamma.mapping) == (0,)


def test_no_retract_into_smaller(m2, a2):
    one = validate_act(m2, 1, [[0, 0]])
    assert _retract(a2, one) is None


def test_pi_regular_trivial(singleton):
    ok, witnesses = is_strongly_pi_regular(end_monoid(singleton))
    assert ok and witnesses == ((1, 0),)


def test_pi_regular_a2(a2):
    E = end_monoid(a2)
    ok, witnesses = is_strongly_pi_regular(E)
    assert ok
    # the idempotent constant map has witness n=1, g=identity
    c_y_index = [i for i, f in enumerate(E.elements) if f.mapping == (1, 1)][0]
    assert witnesses[c_y_index] == (1, 0)


def test_pi_regular_regular_z4(reg_z4, z4):
    E = end_monoid(reg_z4)
    ok, witnesses = is_strongly_pi_regular(E)
    assert ok
    idx = z4.relabeling
    lam2_index = [
        i for i, f in enumerate(E.elements) if f.mapping == tuple(z4.table[idx[2]])
    ][0]
    n, _ = witnesses[lam2_index]
    assert n == 2  # 2^2 = 2^3 = 0 mod 4, nothing works at n=1


def test_fully_invariant(a2, reg_z4, z4):
    assert is_fully_invariant(subact(a2, [1]), homomorphisms(a2, a2))
    assert is_fully_invariant(subact(a2, [0, 1]), homomorphisms(a2, a2))
    idx = z4.relabeling
    endos = homomorphisms(reg_z4, reg_z4)
    assert is_fully_invariant(subact(reg_z4, [idx[0], idx[2]]), endos)


def test_induced_endomorphisms_via_identity(a2):
    ident = ActHom(a2, a2, (0, 1))
    endos = homomorphisms(a2, a2)
    ok, _ = induces_all_endomorphisms(ident, endos, endos)
    assert ok
    assert has_section(ident, endos)


def test_induced_endomorphisms_on_quotient(a2):
    Q, pi = quotient_by_congruence(a2, rees_congruence(a2, subact(a2, [1])))
    ok, _ = induces_all_endomorphisms(pi, homomorphisms(a2, a2), homomorphisms(Q, Q))
    assert ok
