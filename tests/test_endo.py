from itertools import product

import pytest

from monact import endo
from monact.act import quotient_by_congruence, subact, validate_act
from monact.congruence import rees_congruence
from monact.deciders import ActAnalysis
from monact.endo import end_monoid, homomorphisms, induces_all_endomorphisms, is_commutative
from monact.errors import SearchBudgetExceeded, SizeOverflow, SizeTooLarge
from monact.harness import CorpusSpec, _retraction, build_corpus, enumerate_acts, enumerate_monoids
from monact.monoid import validate_monoid
from monact.relation import least_labels

from oracles import act_hom, brute_force_homs, is_fully_invariant, is_strongly_pi_regular


def test_homs_a2(a2):
    assert homomorphisms(a2, a2) == [(0, 1), (1, 1)]


def test_homs_regular_act_are_left_translations(z4, reg_z4):
    homs = homomorphisms(reg_z4, reg_z4)
    assert len(homs) == 4
    assert set(homs) == {tuple(z4.table[a]) for a in range(4)}


def test_homs_from_singleton_hit_fixed_points(singleton, trivial, m2, a2):
    one = validate_act(m2, 1, [[0, 0]])
    # only y is fixed by e
    assert homomorphisms(one, a2) == [(1,)]


def same_monoid_pairs(max_monoid, max_act):
    corpus = build_corpus(CorpusSpec(max_monoid, max_act))
    return [(A, B) for per in corpus.acts for A in per for B in per]


def hom_mismatches(pairs):
    """The pairs whose hom search differs from the brute-force filter."""
    return [
        (A, B) for A, B in pairs
        if endo.homomorphisms(A, B) != brute_force_homs(A, B)
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
        found = set(homs)
        for mapping in product(range(B.size), repeat=A.size):
            if mapping not in found:
                return sorted(homs + [mapping])
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
        act_hom(reg_z4, reg_z4, f)


def test_budget_exceeded(trivial, monkeypatch):
    A = validate_act(trivial, 4, [[0], [1], [2], [3]])
    monkeypatch.setattr(endo, "DEFAULT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded):
        homomorphisms(A, A)


def test_search_budget_boundary(trivial, monkeypatch):
    # the 27 endomorphisms of the 3-point act over the trivial monoid
    # take 3 + 9 + 27 = 39 nodes: a budget of 39 holds them, 38 does not
    A = validate_act(trivial, 3, [[a] for a in range(3)])
    monkeypatch.setattr(endo, "DEFAULT_SEARCH_BUDGET", 39)
    assert len(homomorphisms(A, A)) == 27
    monkeypatch.setattr(endo, "DEFAULT_SEARCH_BUDGET", 38)
    with pytest.raises(SearchBudgetExceeded, match="over 38 backtrack nodes"):
        homomorphisms(A, A)


def test_end_monoid_byte_map_cap_boundary(trivial):
    # the identity alone spans End(A); 255 points fit a byte map, 256 do not
    for n in (255, 256):
        A = validate_act(trivial, n, [[a] for a in range(n)])
        ident = tuple(range(n))
        if n == 255:
            assert end_monoid(A, [ident]).monoid.size == 1
        else:
            with pytest.raises(SizeTooLarge, match="carrier size 256 exceeds the byte-map cap of 255"):
                end_monoid(A, [ident])


def test_hom_list_stops_at_size_cap(trivial, monkeypatch):
    # 5^5 = 3125 endomorphisms: a cap of 3125 holds them all, and one
    # less stops the search at map 3125
    A = validate_act(trivial, 5, [[a] for a in range(5)])
    monkeypatch.setattr(endo, "SIZE_CAP", 3124)
    with pytest.raises(SizeOverflow, match="more than 3124 homomorphisms: search stopped at map 3125"):
        homomorphisms(A, A)
    monkeypatch.setattr(endo, "SIZE_CAP", 3125)
    assert len(homomorphisms(A, A)) == 3125


def test_search_errors_name_the_search(trivial, monkeypatch):
    # 3^4 = 81 homs from a 4-point act to a 3-point one; the old message
    # text stays as the suffix
    A = validate_act(trivial, 4, [[a] for a in range(4)])
    B = validate_act(trivial, 3, [[a] for a in range(3)])
    search = "hom search from a 4-point act to a 3-point act over a 1-element monoid: "
    monkeypatch.setattr(endo, "DEFAULT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded) as exc:
        homomorphisms(A, B)
    assert str(exc.value) == search + "over 10 backtrack nodes"
    monkeypatch.undo()
    monkeypatch.setattr(endo, "SIZE_CAP", 10)
    with pytest.raises(SizeOverflow) as exc:
        homomorphisms(A, B)
    assert str(exc.value) == search + "more than 10 homomorphisms: search stopped at map 11"


def test_end_monoid_a2(a2, m2):
    E = end_monoid(a2)
    assert E.monoid.table == m2.table
    assert E.elements[0] == bytes((0, 1))  # identity endomorphism first
    assert is_commutative(E)


def test_end_monoid_regular_z4(reg_z4, z4):
    E = end_monoid(reg_z4)
    assert E.monoid.table == z4.table
    assert is_commutative(E)


def test_end_monoid_singleton(singleton):
    E = end_monoid(singleton)
    assert E.monoid.size == 1


def test_end_monoid_takes_the_search_tuples_or_byte_maps():
    """`end_monoid` builds the same End(A) from `endomorphisms(A)` (map
    tuples), from the analysis's byte maps and from the search it runs
    itself."""
    for M in enumerate_monoids(2):
        for A in enumerate_acts(M, 3):
            E = end_monoid(A)
            for endos in (endo.endomorphisms(A), ActAnalysis(A).endos):
                given = end_monoid(A, endos)
                assert given.monoid.table == E.monoid.table
                assert given.elements == E.elements


def test_end_monoid_composition_is_associative():
    for M in enumerate_monoids(2):
        for A in enumerate_acts(M, 3):
            E = end_monoid(A)
            revalidated = validate_monoid(E.monoid.size, E.monoid.table)
            assert revalidated.table == E.monoid.table
            # table consistent with pointwise composition
            for i, f in enumerate(E.elements):
                for j, g in enumerate(E.elements):
                    comp = bytes(f[g[a]] for a in range(A.size))
                    assert E.elements[E.monoid.table[i][j]] == comp


def _retract(A, B):
    return _retraction(ActAnalysis(B), A)


def test_retract_of_itself(a2):
    r = _retract(a2, a2)
    assert r is not None
    gamma, pi = r
    assert gamma == pi == bytes((0, 1))
    assert set(gamma) == {0, 1}  # onto a2: not a proper retract


def test_singleton_is_proper_retract_of_a2(m2, a2):
    one = validate_act(m2, 1, [[0, 0]])
    r = _retract(one, a2)
    assert r is not None
    gamma, pi = r
    assert gamma == bytes((1,))  # embeds onto the fixed point y, not onto a2
    assert bytes(pi[b] for b in gamma) == bytes((0,))


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
    c_y_index = E.elements.index(bytes((1, 1)))
    assert witnesses[c_y_index] == (1, 0)


def test_pi_regular_regular_z4(reg_z4, z4):
    E = end_monoid(reg_z4)
    ok, witnesses = is_strongly_pi_regular(E)
    assert ok
    idx = z4.relabeling
    lam2_index = E.elements.index(bytes(z4.table[idx[2]]))
    n, _ = witnesses[lam2_index]
    assert n == 2  # 2^2 = 2^3 = 0 mod 4, nothing works at n=1


def test_fully_invariant(a2, reg_z4, z4):
    assert is_fully_invariant(subact(a2, [1]), homomorphisms(a2, a2))
    assert is_fully_invariant(subact(a2, [0, 1]), homomorphisms(a2, a2))
    idx = z4.relabeling
    endos = homomorphisms(reg_z4, reg_z4)
    assert is_fully_invariant(subact(reg_z4, [idx[0], idx[2]]), endos)


def test_induced_endomorphisms_via_identity(a2):
    ident = bytes((0, 1))
    endos = ActAnalysis(a2).endos
    ok, _ = induces_all_endomorphisms(ident, endos, endos)
    assert ok
    # the identity's kernel, the diagonal, is split by the identity
    assert ActAnalysis(a2).split_kernels[least_labels(ident)] == ident


def test_induced_endomorphisms_on_quotient(a2):
    Q, pi = quotient_by_congruence(a2, rees_congruence(a2, subact(a2, [1])))
    ok, _ = induces_all_endomorphisms(bytes(pi), ActAnalysis(a2).endos, ActAnalysis(Q).endos)
    assert ok
