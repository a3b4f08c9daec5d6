"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  The corpus is the exhaustive one (monoids of size <= 3 up to
isomorphism, acts of size <= 4 over each); tolerances are exact since
every computation here is discrete.
"""

import hashlib
import json
import random
import time

import pytest

from monact.act import regular_act, validate_act
from monact.cli import main, suite_json
from monact.congruence import congruence_closure, enumerate_congruences, join, kernel_congruence
from monact.deciders import (
    is_strongly_co_hopfian,
    is_strongly_hopfian,
    monoid_hopf_properties,
    power_profile,
    r_chain_index,
)
from monact.endo import homomorphisms
from monact.harness import CorpusSpec, recheck_verdict, run_suite
from monact.monoid import prime_power_product, zmod_mult_monoid

from oracles import (
    brute_force_congruences, brute_force_homs, chain_join_oracle, power, refines_oracle,
)

# sha256 of `monact suite --json` on the default corpus; a change to it is
# a change to a verdict, a report or the document format
DEFAULT_SUITE_JSON_SHA256 = "e5704bc8b212503f66d97aa7849bdd5be1630c1c59e38fd30e15da5b6e52b532"
SUITE_TIME_LIMIT = 300.0  # seconds, the stated laptop budget
FAMILY_SMALL_LIMIT = 60.0
FAMILY_DEEP_LIMIT = 600.0


@pytest.fixture(scope="module")
def full_suite():
    spec = CorpusSpec()  # monoids <= 3 up to iso, acts <= 4, all theorems
    start = time.monotonic()
    result = run_suite(spec)
    elapsed = time.monotonic() - start
    return result, elapsed


def _report(num, label, ok):
    print(f"\nACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    return ok


def test_acceptance_1_criteria_equivalence(full_suite):
    result, elapsed = full_suite
    total_acts = sum(len(per) for per in result.corpus.acts)
    by_id = {v.theorem: v for v in result.verdicts}
    ok = (
        by_id["T4"].passed
        and by_id["T5"].passed
        and by_id["T4"].instances == total_acts
        and by_id["T5"].instances == total_acts
        and elapsed < SUITE_TIME_LIMIT
    )
    assert _report(1, "three criteria agree on every corpus instance", ok), (
        by_id["T4"],
        by_id["T5"],
        elapsed,
    )


def test_acceptance_2_theorem_suite(full_suite):
    result, _ = full_suite
    by_id = {v.theorem: v for v in result.verdicts}
    failures = [v.theorem for v in result.verdicts if not v.passed]
    thin = [t for t in ("T7", "T8", "T9", "T11", "T12") if by_id[t].nonvacuous < 1]
    ok = not failures and not thin
    assert _report(2, "T1..T14 zero counterexamples, required non-vacuity", ok), (
        failures,
        thin,
    )


def test_default_suite_json_digest(full_suite):
    result, _ = full_suite
    digest = hashlib.sha256(suite_json(result).encode("utf-8")).hexdigest()
    assert digest == DEFAULT_SUITE_JSON_SHA256


def test_acceptance_3_chain_family_scaling():
    start = time.monotonic()
    small = [r_chain_index(*prime_power_product(2, n)) for n in (1, 2, 3)]
    small_elapsed = time.monotonic() - start
    deep_start = time.monotonic()
    deep = r_chain_index(*prime_power_product(2, 4))
    deep_elapsed = time.monotonic() - deep_start
    indices = small + [deep]
    ok = (
        indices == [1, 2, 3, 4]
        and all(a < b for a, b in zip(indices, indices[1:]))
        and small_elapsed < FAMILY_SMALL_LIMIT
        and deep_elapsed < FAMILY_DEEP_LIMIT
    )
    assert _report(3, "truncated-family chain index equals depth", ok), (
        indices,
        small_elapsed,
        deep_elapsed,
    )


def test_acceptance_4_monoid_vs_act_level(full_suite):
    result, _ = full_suite
    by_id = {v.theorem: v for v in result.verdicts}
    verdict_ok = by_id["T6"].passed and by_id["T6"].instances == len(
        result.corpus.monoids
    )
    direct_ok = True
    for M in result.corpus.monoids:
        rep = monoid_hopf_properties(M)
        R = regular_act(M)
        if rep.strongly_hopfian != is_strongly_hopfian(R, 2)[0]:
            direct_ok = False
        if rep.strongly_co_hopfian != is_strongly_co_hopfian(R, 2)[0]:
            direct_ok = False
    ok = verdict_ok and direct_ok
    assert _report(4, "monoid-level tests equal act-level deciders", ok)


def test_acceptance_5_oracle_equivalence(full_suite):
    result, _ = full_suite
    corpus = result.corpus

    hom_ok = True
    small_acts = [
        A
        for M, per in zip(corpus.monoids, corpus.acts)
        if M.size <= 2
        for A in per
        if A.size <= 4
    ]
    for A in small_acts:
        for B in small_acts:
            if A.monoid != B.monoid:
                continue
            got = [f.mapping for f in homomorphisms(A, B)]
            if got != brute_force_homs(A, B):
                hom_ok = False
    # two five-element instances to cover the stated bound
    five_point = validate_act(corpus.monoids[0], 5, [[0], [1], [2], [3], [4]])
    reg_z5 = regular_act(zmod_mult_monoid(5))
    for A in (five_point, reg_z5):
        got = [f.mapping for f in homomorphisms(A, A)]
        if got != brute_force_homs(A, A):
            hom_ok = False

    cong_ok = True
    for per in corpus.acts:
        for A in per:
            if A.size > 4:
                continue
            got = sorted(c.classes for c in enumerate_congruences(A))
            if got != brute_force_congruences(A):
                cong_ok = False
    for A in (five_point, reg_z5):
        got = sorted(c.classes for c in enumerate_congruences(A))
        if got != brute_force_congruences(A):
            cong_ok = False

    join_ok = True
    rng = random.Random(20260810)
    all_acts = [A for per in corpus.acts for A in per]
    for k in range(200):
        A = all_acts[k % len(all_acts)]

        def random_congruence():
            pairs = [
                (rng.randrange(A.size), rng.randrange(A.size))
                for _ in range(rng.randrange(0, A.size))
            ]
            return congruence_closure(A, pairs)

        rho, sigma = random_congruence(), random_congruence()
        expected = chain_join_oracle(A.size, rho.classes, sigma.classes)
        if join(rho, sigma).classes != expected:
            join_ok = False

    ok = hom_ok and cong_ok and join_ok
    assert _report(5, "search/closure paths match brute-force oracles", ok), (
        hom_ok,
        cong_ok,
        join_ok,
    )


def test_acceptance_6_stabilization_bounds(full_suite):
    result, _ = full_suite
    ok = True
    for per in result.corpus.acts:
        for A in per:
            for f in homomorphisms(A, A):
                p = power_profile(f)
                if not (1 <= p.k_index <= A.size and 1 <= p.i_index <= A.size):
                    ok = False
                for n in range(1, 2 * A.size + 1):
                    ker_n = kernel_congruence(power(f, n))
                    ker_n1 = kernel_congruence(power(f, n + 1))
                    if not refines_oracle(ker_n.classes, ker_n1.classes):
                        ok = False
                    if not set(power(f, n + 1).mapping) <= set(power(f, n).mapping):
                        ok = False
    assert _report(6, "chain indices bounded by |A|, chains monotone", ok)


def test_acceptance_7_determinism_and_mutation(capsys):
    flags = ["suite", "--max-monoid", "2", "--max-act", "3",
             "--seed", "7", "--samples", "3", "--json"]
    assert main(flags) == 0
    first = capsys.readouterr().out
    assert main(flags) == 0
    second = capsys.readouterr().out
    deterministic = first == second and json.loads(first)["schema_version"] == "1"

    overrides = {"is_hopfian": lambda A: False}
    spec = CorpusSpec(max_monoid_size=2, max_act_size=2, theorems=("T1",))
    mutated = run_suite(spec, overrides)
    verdict = mutated.verdicts[0]
    mutation_ok = (
        not verdict.passed
        and verdict.witness is not None
        and recheck_verdict(verdict, overrides)
        and not recheck_verdict(verdict)
    )
    ok = deterministic and mutation_ok
    assert _report(7, "byte-identical reruns; corrupted decider surfaces", ok), (
        deterministic,
        mutation_ok,
    )
