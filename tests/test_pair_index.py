"""T7 and T8 read canonical forms, not the homs between two acts.  Each
analysis files its factor acts A/rho under their canonical forms
(`ActAnalysis.quotients`) and keeps the forms of its proper retracts
(`retract_forms`).  The checks are compared here with the pair bodies
kept in `oracles`, which read the hom list between the two acts: on
every pair of 3/4 and 2/5 (whose trivial-monoid acts are 1/5), under
forced flags that make either theorem fail, and on sampled and
relabelled acts, which are not canonical forms.  The suite hands T7
and T8 only the candidate pairs of a join on those forms
(`harness._instances_for`), so the tests enumerate the pairs
themselves and check that no pair left out is non-vacuous."""

import hashlib
import random

import pytest

from monact import harness
from monact.act import Act, least_relabelling
from monact.cli import suite_json
from monact.deciders import ActAnalysis
from monact.harness import (
    SCH, SH, CorpusSpec, build_corpus, check_theorem, random_acts, run_suite,
)
from oracles import act_canonical_form, t7_pair_oracle, t8_pair_oracle

SPECS = [CorpusSpec(), CorpusSpec(max_monoid_size=2, max_act_size=5)]
ORACLES = {"T7": t7_pair_oracle, "T8": t8_pair_oracle}
FLAG_READ = {"T7": SH, "T8": SCH}


def _all_pairs(tid, groups):
    """[(pair, candidate)] over every pair (A, B) of one monoid's acts
    with |A| <= |B| for T7 and |A| >= |B| for T8, in order, for each
    (M, acts) in `groups`, analysed as the suite analyses them;
    `candidate` says whether `_instances_for` hands the pair over."""
    kind, memo, pairs = harness.REGISTRY[tid][1], {}, []
    for M, acts in groups:
        analyses = [harness._analysed(A, memo) for A in acts]
        handed = {(id(a), id(b)) for a, b in harness._instances_for(kind, M, analyses)}
        pairs += [((a, b), (id(a), id(b)) in handed) for a in analyses for b in analyses
                  if harness.PAIR_KEEP[kind](a.act.size, b.act.size)]
    return pairs


def _corpus(spec):
    corpus = build_corpus(spec)
    return zip(corpus.monoids, corpus.acts)


def _results(tid, spec):
    """(check, oracle) results on every pair `tid` reads in the corpus,
    candidate or not."""
    check = harness.REGISTRY[tid][2]
    return [(check(tid, p), ORACLES[tid](p)) for p, _ in _all_pairs(tid, _corpus(spec))]


def _mismatches(tid, spec):
    return [(got, want) for got, want in _results(tid, spec) if got != want]


def _digest(spec):
    return hashlib.sha256(suite_json(run_suite(spec)).encode()).hexdigest()[:12]


@pytest.mark.parametrize("spec, nonvacuous", [
    (SPECS[0], {"T7": 352, "T8": 549}),
    (SPECS[1], {"T7": 105, "T8": 146}),
], ids=["3-4", "2-5"])
@pytest.mark.parametrize("tid", ["T7", "T8"])
def test_index_matches_pair_oracle(tid, spec, nonvacuous):
    results = _results(tid, spec)
    assert [(got, want) for got, want in results if got != want] == []
    assert sum(got[0] for got, _ in results) == nonvacuous[tid]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("tid", ["T7", "T8"])
def test_index_witnesses_match_pair_oracle(forced_flags, tid, size):
    # the flag the theorem reads is false on the acts of one size: T7
    # fails where that size is a proper retract's, T8 where it is the
    # image's; the first retraction or induced surjection names it
    forced_flags({FLAG_READ[tid]: lambda X: X.size != size})
    results = _results(tid, SPECS[0]) + _results(tid, SPECS[1])
    assert [(got, want) for got, want in results if got != want] == []
    assert any(got[2] is not None for got, _ in results)


def _candidate_counts(groups):
    """(T7 candidates, T8 candidates, pairs of each kind) over `groups`,
    a list of (M, acts), once T7's candidates are found to be exactly
    the pairs its oracle finds non-vacuous, and every T8 pair that is no
    candidate vacuous by its oracle."""
    t7, t8 = _all_pairs("T7", groups), _all_pairs("T8", groups)
    assert [c for _, c in t7] == [bool(t7_pair_oracle(p)[0]) for p, _ in t7]
    assert not any(t8_pair_oracle(p)[0] for p, c in t8 if not c)
    return sum(c for _, c in t7), sum(c for _, c in t8), len(t7)


@pytest.mark.parametrize("spec, counts", [(SPECS[0], (352, 573, 1739)),
                                          (SPECS[1], (105, 153, 295))], ids=["3-4", "2-5"])
def test_candidates_are_the_nonvacuous_pairs(spec, counts):
    assert _candidate_counts(list(_corpus(spec))) == counts


def _key(pair):
    return tuple(an.act for an in pair)


def test_suite_checks_candidate_pairs_only(monkeypatch):
    # a T7 + T8 run calls each pair check on its candidates alone, in
    # corpus order, and counts every other pair as a vacuous instance
    calls = {"T7": [], "T8": []}
    for tid in calls:
        title, kind, check = harness.REGISTRY[tid]

        def counting(t, pair, check=check):
            calls[t].append(_key(pair))
            return check(t, pair)

        monkeypatch.setitem(harness.REGISTRY, tid, (title, kind, counting))
    result = run_suite(CorpusSpec(theorems=("T7", "T8")))
    for tid in calls:
        assert calls[tid] == [_key(p) for p, c in _all_pairs(tid, _corpus(CorpusSpec())) if c]
    assert (len(calls["T7"]), len(calls["T8"])) == (352, 573)
    assert [(v.instances, v.nonvacuous) for v in result.verdicts] == [(1739, 352), (1739, 549)]


def _relabelled(A, rng):
    """A copy of A under a random relabelling of its carrier."""
    p = rng.sample(range(A.size), A.size)
    rows = {p[a]: tuple(p[b] for b in row) for a, row in enumerate(A.action)}
    return Act(A.monoid, A.size, tuple(rows[a] for a in range(A.size)))


@pytest.mark.parametrize("forced, nonvacuous", [
    ({}, 1449),
    ({SH: lambda X: X.size != 1, SCH: lambda X: X.size != 2}, 1289),
], ids=["true-flags", "forced-flags"])
def test_check_theorem_matches_pair_oracle_on_acts_that_are_not_canonical(
        forced_flags, forced, nonvacuous):
    # corpus acts of up to 3 points, a relabelled copy of each and
    # sampled 4-point tables over each monoid of size 2 and 3, each pair
    # checked on fresh analyses; a copy and its corpus act are an
    # isomorphic pair of distinct tables
    forced_flags(forced)
    corpus, rng = build_corpus(CorpusSpec(max_act_size=3)), random.Random(5)
    counts = {"checked": 0, "nonvacuous": 0, "failed": 0, "moved": 0}
    for M, per in list(zip(corpus.monoids, corpus.acts))[1:]:
        acts = per + [_relabelled(A, rng) for A in per] + random_acts(M, 4, 3, rng)
        counts["moved"] += sum(A.action != act_canonical_form(A.action) for A in acts)
        for tid, keep in (("T7", int.__le__), ("T8", int.__ge__)):
            for pair in ((A, B) for A in acts for B in acts if keep(A.size, B.size)):
                v = check_theorem(tid, pair)
                got = (v.nonvacuous == 1, v.passed, v.witness, v.details)
                want = ORACLES[tid](harness._analysed(pair, {}))
                assert got == (bool(want[0]), *want[1:]), (tid, pair)
                counts["checked"] += 1
                counts["nonvacuous"] += v.nonvacuous
                counts["failed"] += not v.passed
    assert counts["checked"] == 3854 and counts["moved"] == 40
    assert counts["nonvacuous"] == nonvacuous
    assert bool(counts["failed"]) == bool(forced)


def test_candidates_on_acts_that_are_not_canonical():
    # the acts above, analysed through one memo as the suite analyses a
    # monoid's acts: a relabelled copy has its corpus act's form, so the
    # form index keeps two positions under that form
    corpus, rng = build_corpus(CorpusSpec(max_act_size=3)), random.Random(5)
    groups = [(M, per + [_relabelled(A, rng) for A in per] + random_acts(M, 4, 3, rng))
              for M, per in list(zip(corpus.monoids, corpus.acts))[1:]]
    assert _candidate_counts(groups) == (528, 953, 1927)


def test_least_relabelling_is_the_canonical_form():
    # the least table over every relabelling, and a relabelling onto it
    corpus = build_corpus(CorpusSpec())
    acts = [A for per in corpus.acts for A in per]
    rng = random.Random(3)
    acts += [A for M in corpus.monoids[1:4] for A in random_acts(M, 5, 2, rng)]
    for A in acts:
        m, n = A.size, A.monoid.size
        form, names = least_relabelling(b"".join(map(bytes, A.action)), m, n)
        rows = tuple(zip(*[iter(form)] * n))
        assert rows == act_canonical_form(A.action), A
        relabelled = {names[a]: tuple(names[b] for b in row) for a, row in enumerate(A.action)}
        assert rows == tuple(relabelled[a] for a in range(m)), A
    assert len(acts) == 142 + 6


def test_planted_dropped_retract_form_is_caught(monkeypatch):
    # each act's retract forms miss the factor form of its last proper
    # split kernel, the image of one idempotent: the pair oracle and the
    # default digest see it
    def dropped(an):
        proper = [k for k in an.split_kernels if len(set(k)) < len(k)][:-1]
        return {form for form, entries in an.quotients.items()
                if any(k in proper for k, _ in entries)}

    monkeypatch.setattr(ActAnalysis, "retract_forms", property(dropped))
    assert len(_mismatches("T7", SPECS[0])) == 352 - 294 == 58
    assert _digest(CorpusSpec()) == "b004e622a04c"


def test_planted_swapped_pair_down_is_caught(monkeypatch):
    # act_pair_down hands each candidate over as (B, A), |A| >= |B|: T8
    # then looks for surjections onto the larger act, found only between
    # isomorphic acts of one size; the T8 candidate pins, the run's
    # non-vacuous count and the default digest see it
    real = harness._instances_for

    def swapped(kind, M, analyses):
        instances = real(kind, M, analyses)
        return ((b, a) for a, b in instances) if kind == "act_pair_down" else instances

    monkeypatch.setattr(harness, "_instances_for", swapped)
    with pytest.raises(AssertionError):
        _candidate_counts(list(_corpus(SPECS[0])))
    result = run_suite(CorpusSpec())
    assert result.verdicts[7].nonvacuous == 142 != 549
    digest = hashlib.sha256(suite_json(result).encode()).hexdigest()[:12]
    assert digest == "b65662a7a529" != "e5704bc8b212"


def test_planted_end_count_for_aut_count_is_caught(monkeypatch):
    # each induced kernel adds |End(B)| surjections instead of |Aut(B)|:
    # the T8 details and the default digest see it
    monkeypatch.setattr(ActAnalysis, "automorphisms", property(lambda an: an.endos))
    mismatches = _mismatches("T8", SPECS[0])
    assert len(mismatches) == 395
    assert all(got[:3] == want[:3] for got, want in mismatches)
    assert _digest(CorpusSpec()) == "ab9600898296"
