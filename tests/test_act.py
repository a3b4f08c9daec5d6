import random

import pytest

from monact import monoid
from monact.act import (
    enumerate_subacts,
    minimal_generating_set,
    quotient_by_congruence,
    regular_act,
    subact,
    subact_as_act,
    subact_generated,
    validate_act,
)
from monact.congruence import Congruence, enumerate_congruences, kernel_congruence, rees_congruence
from monact.endo import homomorphisms
from monact.errors import (
    AssociativityAxiomFails,
    CarrierTooLarge,
    EntryOutOfRange,
    IdentityAxiomFails,
    NotACongruence,
)
from monact.harness import CorpusSpec, build_corpus, enumerate_acts, enumerate_monoids, random_acts
from monact.monoid import zmod_mult_monoid
from monact.relation import least_labels
from oracles import (
    act_hom,
    acts_isomorphic,
    brute_force_subacts,
    compose_maps,
    first_act_axiom_failure,
    map_powers,
    minimal_generating_set_oracle,
)


def test_validate_act_accepts_a2(m2, a2):
    # oracle: exhaustive axiom check over all (a, s, t) triples
    act = a2.action
    assert all(act[a][0] == a for a in range(2))
    assert all(
        act[a][m2.table[s][t]] == act[act[a][s]][t]
        for a in range(2)
        for s in range(2)
        for t in range(2)
    )


def test_validate_act_rejects_swap(m2):
    # x*e = y, y*e = x breaks a*(ee) = (a*e)*e
    with pytest.raises(AssociativityAxiomFails):
        validate_act(m2, 2, [[0, 1], [1, 0]])


def test_validate_act_identity_axiom(m2):
    with pytest.raises(IdentityAxiomFails):
        validate_act(m2, 2, [[1, 1], [1, 1]])


def test_validate_act_entry_range(m2):
    with pytest.raises(EntryOutOfRange, match=r"entry \(0,1\) = 2 "):
        validate_act(m2, 2, [[0, 2], [1, 1]])
    # bool is an int subclass, but True is not the point 1
    with pytest.raises(EntryOutOfRange, match=r"entry \(1,1\) = True "):
        validate_act(m2, 2, [[0, 1], [1, True]])


def _perturbed(action, rng, count):
    """count copies of an action table, each with one seeded entry off the
    identity column changed to another value."""
    m, n = len(action), len(action[0])
    out = []
    for _ in range(count):
        a, s = rng.randrange(m), rng.randrange(1, n)
        table = [list(row) for row in action]
        table[a][s] = rng.choice([v for v in range(m) if v != action[a][s]])
        out.append(table)
    return out


@pytest.fixture(scope="module")
def act_axiom_cases():
    """(monoid, action table) pairs: every act of the default corpus and
    seeded one-entry perturbations of it, the regular acts of Z/6, Z/8
    and Z/12 with one entry changed, and acts over the trivial monoid."""
    rng = random.Random(17)
    cases = []
    for acts in build_corpus(CorpusSpec()).acts:
        for A in acts:
            cases.append((A.monoid, A.action))
            if A.monoid.size > 1 and A.size > 1:
                cases.extend((A.monoid, t) for t in _perturbed(A.action, rng, 4))
    for q in (6, 8, 12):
        Z = zmod_mult_monoid(q)
        cases.extend((Z, t) for t in _perturbed(Z.table, rng, 40))
    trivial = enumerate_monoids(1)[0]
    cases.extend((trivial, [[a] for a in range(m)]) for m in range(1, 6))
    return cases


def _act_axiom_mismatches(cases):
    """Cases where validate_act and the all-triples oracle disagree, on
    acceptance or on the witness triple."""
    bad = []
    for M, action in cases:
        expected = first_act_axiom_failure(M.table, action)
        try:
            validate_act(M, len(action), action)
            got = None
        except AssociativityAxiomFails as err:
            got = err.witness
        if got != expected:
            bad.append((M.table, action, expected, got))
    return bad


def test_validate_act_matches_axiom_oracle(act_axiom_cases):
    rejected = sum(first_act_axiom_failure(M.table, t) is not None for M, t in act_axiom_cases)
    assert 0 < rejected < len(act_axiom_cases)
    assert _act_axiom_mismatches(act_axiom_cases) == []


def test_planted_skipped_generator_is_caught(monkeypatch, act_axiom_cases):
    # the fast axiom test forgets the last greedy generator of the monoid
    real = monoid._greedy_generators
    monkeypatch.setattr(monoid, "_greedy_generators", lambda table, e: real(table, e)[:-1])
    assert len(_act_axiom_mismatches(act_axiom_cases)) > 0


def test_trivial_monoid_allows_any_carrier(trivial):
    A = validate_act(trivial, 3, [[0], [1], [2]])
    assert A.size == 3


def test_subact_enumeration_cap_boundary(trivial):
    # every non-empty subset of the 8-point trivial act is a subact;
    # 9 points pass the cap of 8
    A = validate_act(trivial, 8, [[a] for a in range(8)])
    assert len(enumerate_subacts(A)) == 2**8 - 1
    B = validate_act(trivial, 9, [[a] for a in range(9)])
    with pytest.raises(CarrierTooLarge, match="subact enumeration: carrier size 9 exceeds cap 8"):
        enumerate_subacts(B)


def _corpus_acts(max_monoid, max_act):
    return [A for per in build_corpus(CorpusSpec(max_monoid, max_act)).acts for A in per]


def _seeded_acts():
    rng = random.Random(45)
    return [A for n in (1, 2, 3) for M in enumerate_monoids(n)
            for m in (6, 7, 8) for A in random_acts(M, m, 3, rng)]


SUBACT_CASES = {
    "4/4": lambda: _corpus_acts(4, 4),
    "3/5": lambda: _corpus_acts(3, 5),
    "seeded 6-8 points": _seeded_acts,
    "trivial 8 points": lambda: [validate_act(enumerate_monoids(1)[0], 8, [[a] for a in range(8)])],
}


@pytest.mark.parametrize("case", SUBACT_CASES)
def test_subacts_match_the_subset_scan(case):
    # the union closure of the principal subacts aS lists what the scan
    # of every subset finds, in the same (size, members) order
    acts = SUBACT_CASES[case]()
    assert acts
    for A in acts:
        assert enumerate_subacts(A) == brute_force_subacts(A)


def test_regular_act_is_table_copy(z4, trivial):
    assert regular_act(trivial).size == 1
    R = regular_act(z4)
    assert R.action == z4.table
    idx = z4.relabeling
    assert R.action[idx[2]][idx[2]] == idx[0]


def test_compose_and_power(a2, reg_z4, z4):
    ident = (0, 1)
    assert map_powers(ident, 7)[-1] == ident
    c_y = (1, 1)
    assert map_powers(c_y, 2)[-1] == (1, 1)
    idx = z4.relabeling
    lam2 = tuple(z4.table[idx[2]])
    lam0 = tuple(z4.table[idx[0]])
    # oracle: pointwise composition table for lam2 o lam2
    expected = tuple(lam2[v] for v in lam2)
    assert map_powers(lam2, 2)[-1] == compose_maps(lam2, lam2) == expected == lam0


def test_act_hom_validates_equivariance(a2):
    with pytest.raises(AssertionError, match="not equivariant"):
        act_hom(a2, a2, (0, 0))  # would need x*e = x
    assert act_hom(a2, a2, [1, 1]) == (1, 1)


def test_image_subact(a2, reg_z4, z4):
    # the set image of a hom is action-closed, so `subact` accepts it
    assert subact(a2, (0, 1)).members == (0, 1)
    assert subact(a2, (1, 1)).members == (1,)
    idx = z4.relabeling
    lam2 = z4.table[idx[2]]
    assert subact(reg_z4, lam2).members == tuple(sorted({idx[0], idx[2]}))


def test_image_subact_closure_invariant():
    for M in enumerate_monoids(2):
        for A in enumerate_acts(M, 3):
            for f in homomorphisms(A, A):
                B = subact(A, f)  # constructor raises if not closed
                assert set(B.members) == set(f)


def test_subact_generated(a2, reg_z4, z4):
    assert subact_generated(a2, {0}).members == (0, 1)
    idx = z4.relabeling
    got = subact_generated(reg_z4, {idx[2]}).members
    assert got == tuple(sorted({idx[0], idx[2]}))


def test_minimal_generating_set(a2):
    assert minimal_generating_set(a2) == (0,)
    # oracle: exhaustive over subsets by ascending size
    covered = set(a2.action[0])
    assert covered == {0, 1}


def test_minimal_generating_set_lexicographic(trivial):
    A = validate_act(trivial, 3, [[0], [1], [2]])
    assert minimal_generating_set(A) == (0, 1, 2)


def test_minimal_generating_set_matches_subset_search():
    # every act of the default corpus, its subacts and its factor acts,
    # then seeded samples of 5 to 8 points over every monoid up to size 3
    acts = []
    for per in build_corpus(CorpusSpec()).acts:
        for A in per:
            acts.append(A)
            acts.extend(subact_as_act(B)[0] for B in enumerate_subacts(A))
            acts.extend(quotient_by_congruence(A, rho)[0] for rho in enumerate_congruences(A))
    rng = random.Random(5)
    sampled = [A for n in (1, 2, 3) for M in enumerate_monoids(n)
               for m in range(5, 9) for A in random_acts(M, m, 5, rng)]
    assert len(sampled) > 100
    for A in acts + sampled:
        assert minimal_generating_set(A) == minimal_generating_set_oracle(A)


def rees_factor(A, members):
    return quotient_by_congruence(A, rees_congruence(A, subact(A, members)))


def test_rees_quotient_a2(a2):
    # {y} is one class already: the factor is a2 itself
    Q, pi = rees_factor(a2, [1])
    assert Q == a2 and pi == (0, 1)


def test_rees_quotient_whole_act(a2):
    Q, pi = rees_factor(a2, [0, 1])
    assert Q.size == 1 and set(pi) == {0}


def test_rees_quotient_regular_z4(reg_z4, z4):
    idx = z4.relabeling
    Q, pi = rees_factor(reg_z4, [idx[0], idx[2]])
    assert Q.size == 3
    assert len(set(pi)) == 3
    assert pi[idx[0]] == pi[idx[2]]


def test_rees_factors_of_every_subact():
    # A/B by the Rees congruence: |A| - |B| + 1 points, B's members
    # and only those in one class, and an equivariant projection
    checked = 0
    for per in build_corpus(CorpusSpec()).acts:
        for A in per:
            for B in enumerate_subacts(A):
                Q, pi = quotient_by_congruence(A, rees_congruence(A, B))
                assert Q.size == A.size - len(B.members) + 1
                collapsed = pi[B.members[0]]
                assert [a for a in range(A.size) if pi[a] == collapsed] == list(B.members)
                act_hom(A, Q, pi)
                checked += 1
    assert checked == 853


def test_quotient_by_diagonal_is_identity(a2):
    delta = Congruence(a2, (0, 1))
    Q, pi = quotient_by_congruence(a2, delta)
    assert Q.action == a2.action and pi == (0, 1)


def test_quotient_by_universal_is_singleton(a2):
    Q, pi = quotient_by_congruence(a2, Congruence(a2, (0, 0)))
    assert Q.size == 1


def test_quotient_by_kernel_of_translation(reg_z4, z4):
    idx = z4.relabeling
    ker = kernel_congruence(reg_z4, z4.table[idx[2]])
    Q, pi = quotient_by_congruence(reg_z4, ker)
    assert Q.size == 2
    assert kernel_congruence(reg_z4, pi) == ker


def test_quotient_rejects_incompatible_partition(reg_z4, z4):
    idx = z4.relabeling
    # classes {0, 1} and {2, 3} in original labels, built unchecked
    bad = Congruence(reg_z4, least_labels(a in (idx[0], idx[1]) for a in range(4)))
    with pytest.raises(NotACongruence):
        quotient_by_congruence(reg_z4, bad)


def test_canonical_epi_round_trip():
    from monact.congruence import enumerate_congruences

    for M in enumerate_monoids(2):
        for A in enumerate_acts(M, 3):
            for rho in enumerate_congruences(A):
                Q, pi = quotient_by_congruence(A, rho)
                assert set(pi) == set(range(Q.size))
                act_hom(A, Q, pi)  # equivariance holds
                assert kernel_congruence(A, pi) == rho


def test_homomorphism_theorem_small_instances():
    # A/ker(f) is isomorphic to the act induced on im(f)
    for M in enumerate_monoids(2):
        for A in enumerate_acts(M, 4):
            for f in homomorphisms(A, A):
                Q, _ = quotient_by_congruence(A, kernel_congruence(A, f))
                image_act, _ = subact_as_act(subact(A, f))
                assert acts_isomorphic(Q, image_act)


def test_power_additivity(a2):
    for f in homomorphisms(a2, a2):
        powers = map_powers(f, 6)
        for a in range(1, 4):
            for b in range(1, 4):
                assert powers[a + b - 1] == compose_maps(powers[a - 1], powers[b - 1])


def test_subact_as_act_relabels(reg_z4, z4):
    idx = z4.relabeling
    B = subact(reg_z4, [idx[0], idx[2]])
    sub, embedding = subact_as_act(B)
    assert sub.size == 2
    assert embedding == B.members
    for i, b in enumerate(embedding):
        for s in range(z4.size):
            assert embedding[sub.action[i][s]] == reg_z4.action[b][s]
