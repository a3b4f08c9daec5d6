import hashlib
import json
import random
import time
from operator import itemgetter

import pytest

import monact.act
from monact import deciders, harness
from monact.act import Act, relabellings, subact, validate_act
from monact.cli import suite_json
from monact.errors import InputError, SizeTooLarge, UnknownTheorem
from monact.harness import (
    ALL_THEOREMS,
    FLAGS,
    CorpusSpec,
    build_corpus,
    check_theorem,
    enumerate_acts,
    enumerate_monoids,
    random_acts,
    rebuild_instance,
    recheck_verdict,
    run_suite,
)
from monact.monoid import validate_monoid
from oracles import (
    act_canonical_form, act_hom, act_relabelings, acts_isomorphic, brute_force_acts,
    brute_force_monoids, compose_maps, is_fully_invariant, monoid_canonical_form,
    monoid_relabelings, partition_number,
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


# sha256 of repr([M.table for M in enumerate_monoids(5)]) with the cap
# raised to 5, recorded from the implementation that minimised each
# labelled table over its 24 identity-fixing relabelings as tuples
MONOIDS_5 = (228, "169946ad1fed80c10dcadb3460f44d319b6d857be819038fda58cdc3268f7c25")


def test_order_5_monoids_are_pinned(monkeypatch):
    # 228 monoids of order 5 up to isomorphism (OEIS A058129)
    monkeypatch.setattr(harness, "MONOID_ENUM_MAX", 5)
    tables = [M.table for M in enumerate_monoids(5)]
    assert (len(tables), hashlib.sha256(repr(tables).encode()).hexdigest()) == MONOIDS_5


def test_enumerated_monoids_are_canonical_and_distinct():
    for n in (2, 3):
        monoids = enumerate_monoids(n)
        forms = [monoid_canonical_form(M.table) for M in monoids]
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


def test_z2_search_yields_fibonacci_many_labelled_tables():
    # over Z/2 each row a is fixed or swapped with a later point; once
    # rows 0..a-1 are set, the untouched points are those after a not
    # yet swapped, so a row not yet set is fixed or swapped with the
    # least of them: F(m+1) tables, where trying every point gives the
    # involution numbers 1, 2, 4, 10, 26, 76, 232
    z2 = validate_monoid(2, [[0, 1], [1, 0]])
    counts = [sum(1 for _ in harness._ActSearch(z2, m).tables()) for m in range(1, 8)]
    assert counts == [1, 2, 3, 5, 8, 13, 21]


# sha256 over repr(A.action) of every act up to 4/4, 3/5 and 4/5, monoids by
# size, then acts by size, in enumeration order
ACT_TABLES = {
    (4, 4): (1205, "b79745c6bcbf1007d6b150fb83901d2618a8b1c35ab5362b96ebcd6c7b85a3db"),
    (3, 5): (277, "3415c490228003a16d2a5aecf5c7afa65d95e36ab01c2c75562914672f9e4928"),
    (4, 5): (3126, "1c44e728d65f23bd5b0c86cce124a885e1e2118362d05560d9d4949d5cb98d36"),
}


def test_act_totals_up_to_4_4_and_3_5():
    # the 4/5 pin was taken from a search that tried every point at each
    # branch cell, so it checks that skipping untouched points loses no
    # class
    monoids = {n: enumerate_monoids(n) for n in range(1, 5)}
    for (max_n, max_m), (count, sha256) in ACT_TABLES.items():
        acts = [
            A
            for n in range(1, max_n + 1)
            for M in monoids[n]
            for m in range(1, max_m + 1)
            for A in enumerate_acts(M, m)
        ]
        assert len(acts) == count
        tables = b"".join(repr(A.action).encode() for A in acts)
        assert hashlib.sha256(tables).hexdigest() == sha256, (max_n, max_m)


def _flat(action):
    return bytes(v for row in action for v in row)


def _renamed(table, names, monoid=False):
    """The flat table relabelled by a -> names[a], its columns too for a
    monoid."""
    cells = {(names[a], names[s] if monoid else s): names[v]
             for a, row in enumerate(table) for s, v in enumerate(row)}
    return bytes(cells[a, s] for a in range(len(table)) for s in range(len(table[0])))


def test_orbit_is_every_relabeling():
    # every act of the 3/4 corpus and of the 2/5 pairs: the two moves
    # reach all m! relabelings and nothing else, each with a rename that
    # gives it
    checked = 0
    for n, m in ORACLE_PAIRS:
        for M in enumerate_monoids(n):
            for A in enumerate_acts(M, m):
                orbit = relabellings(_flat(A.action), m, n)
                assert set(orbit) == {_flat(t) for t in act_relabelings(A.action)}
                assert min(orbit) == _flat(act_canonical_form(A.action))
                assert all(image == _renamed(A.action, names) for image, names in orbit.items())
                checked += 1
    assert checked == 142 + 1 + 3 + 7  # 3/4, then 1/5 and 2/5 by the closed forms


def test_monoid_orbit_is_every_identity_fixing_relabeling():
    # every monoid up to order 4: the moves fix the identity 0, carry the
    # columns with the rows and reach all (n-1)! such relabelings
    checked = 0
    for n in range(1, 5):
        for M in enumerate_monoids(n):
            orbit = relabellings(_flat(M.table), n, n, monoid=True)
            assert set(orbit) == {_flat(t) for t in monoid_relabelings(M.table)}
            assert min(orbit) == _flat(monoid_canonical_form(M.table))
            assert all(image == _renamed(M.table, names, monoid=True)
                       for image, names in orbit.items())
            checked += 1
    assert checked == 1 + 2 + 7 + 35


def test_planted_walk_without_the_cycle_is_caught(monkeypatch, oracle_acts):
    # the walk keeps only its transposition, so an orbit holds at most
    # two tables: classes of acts over three points and of monoids of
    # order 4 (three moved points) split
    real = monact.act._moves
    monkeypatch.setattr(monact.act, "_moves", lambda *args: real(*args)[:1])
    assert len(_oracle_mismatches(oracle_acts)) > 0
    assert [len(enumerate_monoids(n)) for n in range(1, 5)] == [1, 2, 7, 86]


def test_planted_monoid_walk_moving_the_identity_is_caught(monkeypatch):
    # a monoid walk also swaps 0 and 1, rows and columns, so a monoid
    # with a zero element takes a least table with the zero at 0
    real = monact.act._moves

    def planted(m, n, monoid):
        if not monoid or m < 2:
            return real(m, n, monoid)
        p = [1, 0, *range(2, m)]  # an involution, its own inverse
        swap = itemgetter(*[p[a] * n + p[s] for a in range(m) for s in range(m)])
        return [*real(m, n, monoid), (swap, bytes(p).ljust(256, b"\0"))]

    monkeypatch.setattr(monact.act, "_moves", planted)
    assert [len(enumerate_monoids(n)) for n in range(1, 5)] == [1, 2, 7, 35]
    assert [[M.table for M in enumerate_monoids(n)] == brute_force_monoids(n)
            for n in (1, 2, 3)] == [True, False, False]


def test_planted_dropped_act_candidate_is_caught(monkeypatch, oracle_acts, trivial, m2):
    # the search skips value 1 at the root branch of every search over
    # two or more points, dropping one subtree of candidates; the root
    # tries 0 and 1 only, 1 standing for every untouched point
    real = harness._ActSearch.assign

    def planted(self, cell, value):
        if self.m > 1 and not self.trail and cell == self.branch[0] and value == 1:
            return False
        return real(self, cell, value)

    monkeypatch.setattr(harness._ActSearch, "assign", planted)
    assert len(_oracle_mismatches(oracle_acts)) > 0
    assert len(_closed_form_mismatches(trivial, m2)) > 0


def test_planted_own_point_counted_untouched_is_caught(monkeypatch, oracle_acts, trivial, m2):
    # the branching row's own point counts among the untouched points,
    # so a cell tries the least of them and the root tries only 0: the
    # transposition of a with another point moves the cell itself
    def planted(self, a):
        n, table, holders = self.n, self.table, self.holders
        skip = [b for b in range(a, self.m)
                if not holders[b] and max(table[b * n + 1 : b * n + n]) < 0][1:]
        return [b for b in range(self.m) if b not in skip]

    monkeypatch.setattr(harness._ActSearch, "tried", planted)
    assert len(_oracle_mismatches(oracle_acts)) > 0
    z2 = validate_monoid(2, [[0, 1], [1, 0]])
    assert (z2.table, 2, 2, 1) in _closed_form_mismatches(trivial, m2)  # the 2-cycle is lost


def test_planted_changed_table_cell_is_caught(monkeypatch, oracle_acts, trivial, m2):
    # the first labelled table of every search over two or more points
    # comes out with its last byte moved to the next point; nothing
    # re-checks the act axioms on it
    real = harness._ActSearch.tables

    def planted(self, k=0):
        tables = real(self, k)
        if k == 0 and self.m > 1:
            table = bytearray(next(tables))
            table[-1] = (table[-1] + 1) % self.m
            yield bytes(table)
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
    assert checked == 30  # every draw returns an act


def test_every_draw_returns_an_act():
    # the descent backtracks on a conflict, so each seeded draw over each
    # default monoid is a lawful act, at sizes past exhaustive enumeration
    monoids = [M for n in (1, 2, 3) for M in enumerate_monoids(n)]
    start = time.perf_counter()
    drawn = 0
    for seed in range(10):
        rng = random.Random(seed)
        for M in monoids:
            for m in (5, 6, 7):
                (A,) = random_acts(M, m, 1, rng)
                assert validate_act(M, m, A.action) == A
                drawn += 1
    assert drawn == 300
    assert time.perf_counter() - start <= 2.0


# sha256 of `monact suite --max-monoid 2 --max-act 3 --seed 7 --samples 3
# --json`: pins the acts the seeded draws give
SAMPLED_SUITE_JSON_SHA256 = "2fef79536d92e9b4d6c9a729f8542cc6c97675e02ff57c27dc997ed3e1e9c2e2"
# 12 samples at the default sizes find 12 acts, two of them 5-point acts
# over the trivial monoid with one table: two analyses of one table
TWELVE_SAMPLE_SUITE_JSON_SHA256 = (
    "a2c2a0c9d27901bcf53fbe7a3b083c7ccdcd69a3ec8b8ba1cfae5cb0731ae1ec")


def test_sampled_suite_json_digest():
    spec = CorpusSpec(max_monoid_size=2, max_act_size=3, seed=7, samples=3)
    digest = hashlib.sha256(suite_json(run_suite(spec)).encode("utf-8")).hexdigest()
    assert digest == SAMPLED_SUITE_JSON_SHA256


def test_twelve_sample_suite_json_digest():
    result = run_suite(CorpusSpec(seed=7, samples=12))
    trivial = [A.action for A in result.corpus.acts[0] if A.size == 5]
    assert len(trivial) == 2 and trivial[0] == trivial[1]
    digest = hashlib.sha256(suite_json(result).encode("utf-8")).hexdigest()
    assert digest == TWELVE_SAMPLE_SUITE_JSON_SHA256


def test_check_theorem_single_instances(a2, reg_z4):
    v = check_theorem("T9", (a2, subact(a2, [1])))
    assert v.passed and v.nonvacuous == 1
    v = check_theorem("T4", reg_z4)
    assert v.passed
    v = check_theorem("T6", reg_z4.monoid)
    assert v.passed


def _t9_against_oracle(spec):
    """(mismatches, non-vacuous count): T9 is non-vacuous on (A, B)
    exactly when B is fully invariant, since its flags are True, and
    `oracles.is_fully_invariant` tests that one endomorphism at a time."""
    corpus, mismatches, nonvacuous, memo = build_corpus(spec), [], 0, {}
    for M, per in zip(corpus.monoids, corpus.acts):
        analyses = [harness._analysed(A, memo) for A in per]
        for an, B in harness._instances_for("act_subact", M, analyses):
            got = harness._check_t9("T9", (an, B))[0]
            if got != is_fully_invariant(B, an.endos):
                mismatches.append((an.act, B))
            nonvacuous += got
    return mismatches, nonvacuous


def test_t9_full_invariance_matches_oracle():
    assert _t9_against_oracle(CorpusSpec()) == ([], 268)


def test_planted_orbit_without_the_last_map_is_caught(monkeypatch):
    # every orbit misses the image of the last endomorphism in map order
    monkeypatch.setattr(deciders.ActAnalysis, "orbits", property(
        lambda an: [frozenset(m[a] for m in an.endos[:-1]) for a in range(an.act.size)]))
    mismatches, nonvacuous = _t9_against_oracle(CorpusSpec())
    assert len(mismatches) == nonvacuous - 268 == 8
    digest = hashlib.sha256(suite_json(run_suite(CorpusSpec())).encode()).hexdigest()
    assert digest[:12] == "67883dc5ffb2"


def test_check_theorem_unknown():
    with pytest.raises(UnknownTheorem):
        check_theorem("T99", None)
    with pytest.raises(UnknownTheorem, match="T99"):
        CorpusSpec(theorems=("T1", "T99"))
    with pytest.raises(UnknownTheorem, match=f"'t2': the ids are {', '.join(ALL_THEOREMS)}$"):
        CorpusSpec(theorems=("t2",))


def test_sampling_without_a_seed_is_refused():
    # an unseeded sample differs from run to run, and so would the report
    with pytest.raises(InputError, match="--samples needs --seed"):
        CorpusSpec(max_monoid_size=2, max_act_size=2, samples=3)


def test_duplicate_theorem_ids_are_refused():
    with pytest.raises(InputError, match="T1 more than once"):
        CorpusSpec(theorems=("T1", "T4", "T1"))


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


def test_mutation_hook_fails_t1_with_reverifiable_witness(forced_flags, monkeypatch):
    forced_flags({"is_hopfian": lambda A: False})
    spec = CorpusSpec(max_monoid_size=2, max_act_size=2, theorems=("T1",))
    result = run_suite(spec)
    verdict = result.verdicts[0]
    assert not verdict.passed
    assert verdict.witness is not None
    # the witness re-checks as a violation under the same corruption...
    assert recheck_verdict(verdict)
    # ...and is vindicated once the corruption is removed
    monkeypatch.undo()
    assert not recheck_verdict(verdict)


@pytest.mark.parametrize("decider, failing, digest", [
    ("is_hopfian", ["T1", "T3", "T14"], "7964f7d6a50a"),
    ("is_co_hopfian", ["T2", "T3", "T13", "T14"], "5b920cff0343"),
    ("is_strongly_hopfian", ["T6", "T10", "T12", "T14"], "cb03842a75e5"),
    ("is_strongly_co_hopfian", ["T6", "T10", "T11", "T13", "T14"], "269d47073bbf"),
])
def test_forced_false_decider_fails_its_theorems(forced_flags, decider, failing, digest):
    forced_flags({decider: lambda A: False})
    result = run_suite(CorpusSpec(max_monoid_size=2, max_act_size=3))
    failed = [v for v in result.verdicts if not v.passed]
    assert [v.theorem for v in failed] == failing
    assert hashlib.sha256(suite_json(result).encode()).hexdigest()[:12] == digest
    assert all(recheck_verdict(v) for v in failed)


@pytest.mark.parametrize("key", ["is_hopfain", "hopfian", "is_noetherian"])
def test_override_naming_no_flag_is_refused(forced_flags, a2, key):
    # a misspelt flag would otherwise leave every flag True and the
    # mutation it stands for untested
    with pytest.raises(ValueError, match=key):
        forced_flags({key: lambda A: False})
    assert check_theorem("T1", a2).passed
    forced_flags({name: lambda A: False for name in FLAGS})
    assert harness.flag(FLAGS[0], [a2]) is False
    assert not check_theorem("T1", a2).passed


def _r_index_plus_one(real):
    return lambda M, s: real(M, s) + 1


def _stabilizer_n_plus_one(real):
    def planted(M, s):
        n, t = real(M, s)
        return n + 1, t
    return planted


@pytest.mark.parametrize("name, plant", [
    ("r_chain_index", _r_index_plus_one),
    ("power_stabilizer", _stabilizer_n_plus_one),
])
def test_t6_catches_a_planted_monoid_level_index(monkeypatch, name, plant):
    # both flags stay True, so only T6's per-element index comparison
    # sees the planted bug
    monkeypatch.setattr(deciders, name, plant(getattr(deciders, name)))
    result = run_suite(CorpusSpec())
    failed = [v for v in result.verdicts if not v.passed]
    assert [v.theorem for v in failed] == ["T6"]
    (v,) = failed
    assert v.witness["flags"] == {"monoid_level": [True, True], "act_level": [True, True]}
    assert recheck_verdict(v)


def test_rebuild_instance_round_trip(forced_flags, a2):
    forced_flags({"is_strongly_hopfian": lambda A: False})
    v = check_theorem("T3", a2)
    # a false strongly-hopfian flag makes T3's hypothesis false, so it passes
    assert v.passed
    forced_flags({"is_hopfian": lambda A: False})
    v = check_theorem("T1", a2)
    assert not v.passed
    rebuilt = rebuild_instance(v.witness)
    assert isinstance(rebuilt, Act)
    assert rebuilt.action == a2.action
    assert rebuilt.monoid.table == a2.monoid.table


# T6: the regular act of the 2-element monoids; T7: a 1-point proper
# retract; T8: a 2-point image of a 3-point act; T9: a 3-point act with a
# fully invariant 2-point subact, whose Rees quotient has 2 points
SMALL_SH = {"is_strongly_hopfian": lambda X: X.size < 3}
POINT_SH = {"is_strongly_hopfian": lambda X: X.size != 1}
PAIR_SCH = {"is_strongly_co_hopfian": lambda X: X.size != 2}


@pytest.mark.parametrize("tid, overrides, fields", [
    ("T6", PAIR_SCH, {"monoid"}),
    ("T7", POINT_SH, {"monoid", "act", "act_b"}),
    ("T8", PAIR_SCH, {"monoid", "act", "act_b"}),
    ("T9", SMALL_SH, {"monoid", "act", "subact"}),
])
def test_rebuild_instance_round_trip_every_shape(forced_flags, tid, overrides, fields):
    forced_flags(overrides)
    spec = CorpusSpec(max_monoid_size=2, max_act_size=3, theorems=(tid,))
    (v,) = run_suite(spec).verdicts
    assert not v.passed
    rebuilt = rebuild_instance(v.witness)
    written = harness._instance_fields(harness._analysed(rebuilt, {}))
    assert set(written) == fields
    assert {k: v.witness[k] for k in fields} == written
    assert recheck_verdict(v)


@pytest.mark.parametrize("overrides, failures", [
    (POINT_SH, 120),
    ({"is_strongly_hopfian": lambda X: X.size == 4}, 261),
], ids=["one-point-A", "four-point-B"])
def test_t7_witnesses_are_retractions(forced_flags, overrides, failures):
    # every proper retract that reads as not strongly Hopfian fails T7;
    # its witness pi is the first retraction B -> A in map order and
    # gamma is read off the idempotent that splits pi's kernel
    forced_flags(overrides)
    corpus, failed, memo = build_corpus(CorpusSpec()), [], {}
    for M, per in zip(corpus.monoids, corpus.acts):
        analyses = [harness._analysed(A, memo) for A in per]
        for pair in harness._instances_for("act_pair_up", M, analyses):
            v = harness.Verdict("T7", harness.REGISTRY["T7"][0])
            v.add(*harness._check_t7("T7", pair))
            failed += [v] if not v.passed else []
    for v in failed:
        A, B = rebuild_instance(v.witness)
        gamma, pi = act_hom(A, B, v.witness["gamma"]), act_hom(B, A, v.witness["pi"])
        assert len(set(gamma)) == A.size < B.size
        assert compose_maps(pi, gamma) == tuple(range(A.size))
        assert recheck_verdict(v)
    assert len(failed) == failures


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
