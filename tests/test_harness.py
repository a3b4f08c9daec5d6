import hashlib
import json
import random
import time

import pytest

from monact import harness
from monact.act import Act, subact, validate_act
from monact.cli import suite_json
from monact.errors import InputError, SizeTooLarge, UnknownTheorem
from monact.harness import (
    ALL_THEOREMS,
    CorpusSpec,
    build_corpus,
    check_theorem,
    enumerate_acts,
    enumerate_monoids,
    monoid_canonical_form,
    random_acts,
    rebuild_instance,
    recheck_verdict,
    run_suite,
)
from monact.monoid import validate_monoid
from oracles import (
    act_canonical_form, acts_isomorphic, brute_force_acts, brute_force_monoids, partition_number,
)


def test_monoid_counts_golden():
    # classical counts of monoids up to isomorphism, frozen from the
    # brute-force enumeration at its first run
    assert len(enumerate_monoids(1)) == 1
    assert len(enumerate_monoids(2)) == 2
    assert len(enumerate_monoids(3)) == 7
    assert len(enumerate_monoids(4)) == 35


def test_two_element_monoids_are_the_expected_pair():
    tables = {M.table for M in enumerate_monoids(2)}
    group = ((0, 1), (1, 0))
    idempotent = ((0, 1), (1, 1))
    assert tables == {group, idempotent}


def test_enumerate_monoids_matches_brute_force():
    for n in range(1, 5):
        assert [M.table for M in enumerate_monoids(n)] == brute_force_monoids(n)


def test_enumerate_monoids_cap():
    with pytest.raises(SizeTooLarge):
        enumerate_monoids(5)


def test_enumerated_monoids_are_canonical_and_distinct():
    for n in (2, 3):
        monoids = enumerate_monoids(n)
        forms = [monoid_canonical_form(M) for M in monoids]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        for M, form in zip(monoids, forms):
            assert M.table == form
            validate_monoid(M.size, M.table)


def test_acts_over_trivial_monoid(trivial):
    for m in (1, 2, 3):
        acts = enumerate_acts(trivial, m)
        assert len(acts) == 1  # only the identity action exists


def test_acts_over_m2_size2_golden(m2, a2):
    acts = enumerate_acts(m2, 2)
    assert len(acts) == 2  # identity action + the A2 class
    forms = {A.action for A in acts}
    assert act_canonical_form(a2.action) in forms


def test_enumerated_acts_are_valid_and_pairwise_nonisomorphic(m2):
    acts = enumerate_acts(m2, 3)
    for A in acts:
        validate_act(m2, A.size, A.action)
        assert A.action == act_canonical_form(A.action)
    for i, A in enumerate(acts):
        for B in acts[i + 1 :]:
            assert not acts_isomorphic(A, B)


def test_enumerated_acts_cover_all_tables(m2):
    # oracle: every valid 2-element action table is isomorphic to some
    # canonical representative
    from itertools import product

    reps = {A.action for A in enumerate_acts(m2, 2)}
    for col in product(range(2), repeat=2):
        action = tuple((a, col[a]) for a in range(2))
        try:
            A = validate_act(m2, 2, action)
        except Exception:
            continue
        assert act_canonical_form(A.action) in reps


def test_act_enumeration_work_cap():
    big = enumerate_monoids(3)[0]
    with pytest.raises(SizeTooLarge):
        enumerate_acts(big, 9)


def test_trivial_monoid_enumeration_is_budgeted(trivial):
    # one labelled table, but its class is charged 10! relabelings, more
    # than the budget, before any relabeling is built
    start = time.perf_counter()
    with pytest.raises(SizeTooLarge) as err:
        enumerate_acts(trivial, 10)
    assert time.perf_counter() - start < 1.0
    message = str(err.value)
    assert "act enumeration" in message
    assert "0 search nodes" in message and "3628800 relabelings" in message


# every pair the brute force covers in a few seconds: 3/4 and 2/5
ORACLE_PAIRS = [(n, m) for n in (1, 2, 3) for m in range(1, 5)] + [(1, 5), (2, 5)]


@pytest.fixture(scope="module")
def oracle_acts():
    return [(M, m, brute_force_acts(M, m)) for n, m in ORACLE_PAIRS for M in enumerate_monoids(n)]


def _oracle_mismatches(oracle_acts):
    return [
        (M.table, m)
        for M, m, forms in oracle_acts
        if [A.action for A in enumerate_acts(M, m)] != forms
    ]


def test_enumerate_acts_matches_brute_force_oracle(oracle_acts):
    assert len(oracle_acts) == 43
    assert _oracle_mismatches(oracle_acts) == []


def _closed_form_mismatches(trivial, m2):
    z2 = validate_monoid(2, [[0, 1], [1, 0]])
    expected = [(trivial, m, 1) for m in range(1, 8)]
    expected += [(z2, m, m // 2 + 1) for m in range(1, 8)]
    expected += [(m2, m, partition_number(m)) for m in range(1, 8)]
    counts = [(M.table, m, want, len(enumerate_acts(M, m))) for M, m, want in expected]
    return [c for c in counts if c[2] != c[3]]


def test_act_counts_closed_forms(trivial, m2):
    # trivial monoid: one act; Z/2: an involution up to conjugacy, so
    # floor(m/2) + 1 acts; {1, e}: an idempotent map up to conjugacy, one
    # per partition of m
    assert _closed_form_mismatches(trivial, m2) == []


def test_act_totals_up_to_4_4_and_3_5():
    monoids = {n: enumerate_monoids(n) for n in range(1, 5)}
    total = lambda max_n, max_m: sum(
        len(enumerate_acts(M, m))
        for n in range(1, max_n + 1)
        for M in monoids[n]
        for m in range(1, max_m + 1)
    )
    assert total(4, 4) == 1205
    assert total(3, 5) == 277


def test_planted_dropped_act_candidate_is_caught(monkeypatch, oracle_acts, trivial, m2):
    # the search skips the last value at the root branch of every search
    # over two or more points, dropping one subtree of candidates
    real = harness._ActSearch.assign

    def planted(self, cell, value):
        if self.m > 1 and not self.trail and cell == self.branch[0] and value == self.m - 1:
            return False
        return real(self, cell, value)

    monkeypatch.setattr(harness._ActSearch, "assign", planted)
    assert len(_oracle_mismatches(oracle_acts)) > 0
    assert len(_closed_form_mismatches(trivial, m2)) > 0


def test_planted_changed_table_cell_is_caught(monkeypatch, oracle_acts, trivial, m2):
    # the first labelled table of every search over two or more points
    # comes out with its last cell moved to the next point; nothing
    # re-checks the act axioms on it
    real = harness._ActSearch.tables

    def planted(self, k=0):
        tables = real(self, k)
        if k == 0 and self.m > 1:
            rows = [list(row) for row in next(tables)]
            rows[-1][-1] = (rows[-1][-1] + 1) % self.m
            yield tuple(map(tuple, rows))
        yield from tables

    monkeypatch.setattr(harness._ActSearch, "tables", planted)
    assert len(_oracle_mismatches(oracle_acts)) > 0
    assert len(_closed_form_mismatches(trivial, m2)) > 0


def test_random_acts_are_lawful():
    rng = random.Random(5)
    checked = 0
    for n in (1, 2, 3):
        for M in enumerate_monoids(n):
            for A in random_acts(M, 5, 3, rng):
                assert validate_act(M, 5, A.action) == A
                checked += 1
    assert checked == 18  # most draws over the groups Z/2 and Z/3 are rejected


# sha256 of `monact suite --max-monoid 2 --max-act 3 --seed 7 --samples 3
# --json`: pins which random draws sampling keeps and the acts they give
SAMPLED_SUITE_JSON_SHA256 = "9313b0d8fae53822273903e5080dd921889d4991ef76281a3726922e07896cd0"


def test_sampled_suite_json_digest():
    spec = CorpusSpec(max_monoid_size=2, max_act_size=3, seed=7, samples=3)
    digest = hashlib.sha256(suite_json(run_suite(spec)).encode("utf-8")).hexdigest()
    assert digest == SAMPLED_SUITE_JSON_SHA256


def test_check_theorem_single_instances(a2, reg_z4):
    v = check_theorem("T9", (a2, subact(a2, [1])))
    assert v.passed and v.nonvacuous == 1
    v = check_theorem("T4", reg_z4)
    assert v.passed
    v = check_theorem("T6", reg_z4.monoid)
    assert v.passed


def test_check_theorem_unknown():
    with pytest.raises(UnknownTheorem):
        check_theorem("T99", None)


@pytest.mark.parametrize("fields", [
    {"max_monoid_size": 0, "samples": 1},
    {"max_act_size": 0},
    {"samples": -1},
])
def test_out_of_range_spec_is_an_input_error(fields):
    with pytest.raises(InputError, match="at least"):
        run_suite(CorpusSpec(**fields))


def test_small_suite_all_pass():
    result = run_suite(CorpusSpec(max_monoid_size=2, max_act_size=3))
    assert [v.theorem for v in result.verdicts] == list(ALL_THEOREMS)
    for v in result.verdicts:
        assert v.passed, v.theorem
        assert v.instances > 0
    by_id = {v.theorem: v for v in result.verdicts}
    for tid in ("T7", "T8", "T9"):
        assert by_id[tid].nonvacuous >= 1
    assert len(result.reports) == sum(len(per) for per in result.corpus.acts)


def test_suite_determinism_with_sampling():
    spec = CorpusSpec(max_monoid_size=2, max_act_size=2, seed=11, samples=4)
    a = run_suite(spec)
    b = run_suite(spec)
    dump = lambda r: json.dumps(
        {"reports": r.reports, "verdicts": [v.to_dict() for v in r.verdicts]},
        sort_keys=True,
    )
    assert dump(a) == dump(b)


def test_sampling_extends_act_sizes():
    spec = CorpusSpec(max_monoid_size=1, max_act_size=2, seed=3, samples=2)
    corpus = build_corpus(spec)
    sizes = [A.size for A in corpus.acts[0]]
    assert max(sizes) == 3  # sampled acts go one past the exhaustive range


def test_mutation_hook_fails_t1_with_reverifiable_witness(a2):
    overrides = {"is_hopfian": lambda A: False}
    spec = CorpusSpec(max_monoid_size=2, max_act_size=2, theorems=("T1",))
    result = run_suite(spec, overrides)
    verdict = result.verdicts[0]
    assert not verdict.passed
    assert verdict.witness is not None
    # the witness re-checks as a violation under the same corruption...
    assert recheck_verdict(verdict, overrides)
    # ...and is vindicated once the corruption is removed
    assert not recheck_verdict(verdict)


@pytest.mark.parametrize("decider, failing, digest", [
    ("is_hopfian", ["T1", "T3", "T14"], "7964f7d6a50a"),
    ("is_co_hopfian", ["T2", "T3", "T13", "T14"], "5b920cff0343"),
    ("is_strongly_hopfian", ["T6", "T10", "T12", "T14"], "cb03842a75e5"),
    ("is_strongly_co_hopfian", ["T6", "T10", "T11", "T13", "T14"], "269d47073bbf"),
])
def test_forced_false_decider_fails_its_theorems(decider, failing, digest):
    overrides = {decider: lambda A: False}
    result = run_suite(CorpusSpec(max_monoid_size=2, max_act_size=3), overrides)
    failed = [v for v in result.verdicts if not v.passed]
    assert [v.theorem for v in failed] == failing
    assert hashlib.sha256(suite_json(result).encode()).hexdigest()[:12] == digest
    assert all(recheck_verdict(v, overrides) for v in failed)


def test_rebuild_instance_round_trip(a2):
    overrides = {"is_strongly_hopfian": lambda A: False}
    v = check_theorem("T3", a2, overrides)
    # strongly-hopfian override makes T3's hypothesis false, so it passes
    assert v.passed
    v = check_theorem("T1", a2, {"is_hopfian": lambda A: False})
    assert not v.passed
    rebuilt = rebuild_instance("T1", v.witness)
    assert isinstance(rebuilt, Act)
    assert rebuilt.action == a2.action
    assert rebuilt.monoid.table == a2.monoid.table


def test_verdict_to_dict_is_json_ready():
    result = run_suite(CorpusSpec(max_monoid_size=1, max_act_size=2))
    for v in result.verdicts:
        json.dumps(v.to_dict())


def test_every_monoid_has_one_singleton_act():
    for n in (1, 2, 3):
        for M in enumerate_monoids(n):
            assert len(enumerate_acts(M, 1)) == 1


def test_t4_single_instance_logs_index(reg_z4):
    v = check_theorem("T4", reg_z4)
    assert v.passed
    assert v.details["max_stabilization_index"] == 2
