import time
from dataclasses import asdict

import pytest

from monact.act import validate_act
from monact.deciders import (
    ActAnalysis,
    chain_conditions,
    chain_reports,
    classify_act,
    is_quasi_injective,
    is_quasi_projective,
    is_strongly_co_hopfian,
    is_strongly_hopfian,
    join_index,
    meet_index,
    monoid_hopf_properties,
    power_stabilizer,
    r_chain_index,
    settle_index,
)
from monact.endo import homomorphisms
from monact.errors import CarrierTooLarge
from monact.harness import CorpusSpec, build_corpus, enumerate_acts, enumerate_monoids
from monact.monoid import element_power, prime_power_product

from oracles import (
    bell_number, brute_force_congruences, fibers, is_co_hopfian, is_hopfian,
    longest_chain_oracle, map_powers, quasi_injective_oracle,
)


def small_corpus(max_monoid=2, max_act=3):
    for n in range(1, max_monoid + 1):
        for M in enumerate_monoids(n):
            for m in range(1, max_act + 1):
                yield from enumerate_acts(M, m)


def lam(z4, residue):
    """The byte map of x -> residue * x on the regular act of Z/4."""
    return bytes(z4.table[z4.relabeling[residue]])


def injective(m):
    return len(set(m)) == len(m)


def surjective(m):
    return set(m) == set(range(len(m)))


def test_chain_indices_identity(a2):
    assert settle_index(bytes((0, 1))) == 1


def test_chain_indices_lambda2(z4):
    lam2 = lam(z4, 2)
    assert settle_index(lam2) == 2
    # oracle: image sizes along the powers are 2, 1, 1
    sizes = [len(set(m)) for m in map_powers(lam2, 3)]
    assert sizes == [2, 1, 1]


def test_chain_indices_constant(a2):
    assert settle_index(bytes((1, 1))) == 1


def test_hopfian_co_hopfian_literal(a2, reg_z4, singleton):
    for A in (a2, reg_z4, singleton):
        assert is_hopfian(A)
        assert is_co_hopfian(A)


def test_strongly_hopfian_criteria(a2, reg_z4, singleton):
    for A, n in ((a2, 1), (reg_z4, 2), (singleton, 1)):
        assert is_strongly_hopfian(A) == meet_index(A) == (True, n)


def test_strongly_co_hopfian_criteria(a2, reg_z4, singleton):
    for A, n in ((a2, 1), (reg_z4, 2), (singleton, 1)):
        assert is_strongly_co_hopfian(A) == join_index(A) == (True, n)


def test_fitting(a2, reg_z4, singleton):
    for A in (a2, reg_z4, singleton):
        assert classify_act(A).fitting


def test_chain_conditions(a2, singleton, trivial):
    assert chain_conditions(singleton) == (True, True, 1, 1)
    three = validate_act(trivial, 3, [[0], [1], [2]])
    noe, art, size, chain = chain_conditions(three)
    assert (noe, art) == (True, True)
    assert size == bell_number(3) == 5
    assert chain == 3  # diagonal < one merged pair < universal
    assert chain_conditions(a2) == (True, True, 2, 2)


def test_subacts_refuse_a_large_carrier(trivial):
    # 2^20 subsets: refused before any is tried
    A = validate_act(trivial, 20, [[a] for a in range(20)])
    start = time.perf_counter()
    with pytest.raises(CarrierTooLarge, match="subact enumeration"):
        ActAnalysis(A).subact_members
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("m", range(1, 9))
def test_chain_conditions_trivial_monoid_closed_form(trivial, m):
    # only the identity acts: every partition is a congruence, and a
    # longest chain merges two classes at a time
    A = validate_act(trivial, m, [[a] for a in range(m)])
    assert chain_conditions(A) == (True, True, bell_number(m), m)


def test_longest_chain_matches_oracle():
    # the default corpus (monoids <= 3, acts <= 4), then the 5-point acts
    # over the monoids of size <= 2
    for spec in (CorpusSpec(), CorpusSpec(max_monoid_size=2, max_act_size=5)):
        for per in build_corpus(spec).acts:
            for A in per:
                expected = longest_chain_oracle(brute_force_congruences(A))
                assert chain_conditions(A)[3] == expected


def test_quasi_injective(a2, reg_z4, singleton):
    for A in (singleton, a2, reg_z4):
        ok, counterexample = is_quasi_injective(A)
        assert ok and counterexample is None


def test_quasi_injective_matches_oracle():
    acts = [A for per in build_corpus(CorpusSpec()).acts for A in per]
    verdicts = [is_quasi_injective(A) for A in acts]
    assert verdicts == [quasi_injective_oracle(A) for A in acts]
    assert sum(not flag for flag, _ in verdicts) == 6


def test_quasi_injective_matches_oracle_on_3_5():
    # counterexamples included: the first failing subact and the first
    # hom in map order that does not extend, never out of a retract image
    acts = [A for per in build_corpus(CorpusSpec(max_monoid_size=3, max_act_size=5)).acts
            for A in per]
    verdicts = [is_quasi_injective(A) for A in acts]
    assert verdicts == [quasi_injective_oracle(A) for A in acts]
    assert (len(acts), sum(not flag for flag, _ in verdicts)) == (277, 25)


def test_quasi_projective(a2, reg_z4, singleton):
    for A in (singleton, a2, reg_z4):
        ok, counterexample = is_quasi_projective(A)
        assert ok and counterexample is None


def test_monoid_hopf_trivial(trivial):
    rep = monoid_hopf_properties(trivial)
    assert rep.r_indices == (1,)
    assert rep.power_witnesses == ((1, 0),)


def test_monoid_hopf_z4(z4):
    rep = monoid_hopf_properties(z4)
    idx = z4.relabeling
    assert rep.r_indices[idx[2]] == 2
    n, t = rep.power_witnesses[idx[2]]
    assert n == 2
    assert element_power(z4, idx[2], 2) == z4.table[element_power(z4, idx[2], 3)][t]


def test_monoid_level_matches_act_level():
    elements = 0
    for n in (1, 2, 3, 4):
        for M in enumerate_monoids(n):
            rep = monoid_hopf_properties(M)
            # per-element indices agree with the settle index of the
            # corresponding left translation, where both its kernel
            # chain (the r-index) and its image chain (the power
            # stabilizer's n) settle
            for s in range(M.size):
                n = settle_index(bytes(M.table[s]))
                assert rep.r_indices[s] == n
                assert rep.power_witnesses[s][0] == n
                elements += 1
    assert elements == 1 + 2 * 2 + 7 * 3 + 35 * 4


def test_chain_family_scaling():
    for N in (1, 2, 3):
        S, x = prime_power_product(2, N)
        assert r_chain_index(S, x) == N


def test_surjective_endo_with_stable_kernel_is_injective():
    for A in small_corpus(2, 4):
        for f in homomorphisms(A, A):
            if surjective(f):
                n = settle_index(bytes(f))
                assert injective(map_powers(f, n)[-1]) or injective(f)
                assert injective(f)  # the finite-carrier conclusion


def test_injective_endo_with_stable_image_is_surjective():
    for A in small_corpus(2, 4):
        for f in homomorphisms(A, A):
            if injective(f):
                assert surjective(f)


def test_indices_bounded_by_carrier():
    for A in small_corpus(2, 4):
        for f in homomorphisms(A, A):
            assert 1 <= settle_index(bytes(f)) <= A.size


def test_chain_reports_structure(reg_z4, z4):
    reports = chain_reports(reg_z4)
    assert len(reports) == 4
    assert reports[0].mapping == tuple(range(4))  # identity first
    for rep in reports:
        assert rep.kernel.act == reg_z4
        assert rep.kernel.classes == fibers(map_powers(rep.mapping, rep.k_index)[-1])


def test_report_dicts_equal_asdict_on_default_corpus():
    # to_dict is a shallow copy, right only while every field is a
    # scalar; repr tells True from 1 and sees the key order
    acts = [A for per in build_corpus(CorpusSpec()).acts for A in per]
    assert len(acts) == 142
    for A in acts:
        rep = classify_act(A)
        assert repr(rep.to_dict()) == repr(asdict(rep)), A


def test_classify_invariants(a2, reg_z4):
    for A in (a2, reg_z4):
        rep = classify_act(A)
        assert rep.fitting == (rep.strongly_hopfian and rep.strongly_co_hopfian)
        assert rep.strongly_hopfian <= rep.hopfian
        assert rep.strongly_co_hopfian <= rep.co_hopfian


def test_classify_a2_values(a2):
    rep = classify_act(a2)
    assert rep.strongly_hopfian_index == 1
    assert rep.fitting
    assert rep.end_size == 2


def test_classify_regular_z4_values(reg_z4):
    rep = classify_act(reg_z4)
    assert rep.strongly_hopfian_index == 2
    assert rep.strongly_co_hopfian_index == 2
    assert rep.quasi_injective
    assert rep.end_commutative


def test_power_stabilizer_searches_ascending(z4):
    idx = z4.relabeling
    n, t = power_stabilizer(z4, idx[3])  # 3 is invertible: n = 1, t = 3^{-1}*3...
    assert n == 1
    assert z4.table[element_power(z4, idx[3], 2)][t] == idx[3]
