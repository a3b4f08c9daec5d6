"""T7 and T8 read canonical forms, not the homs between two acts.  Each
analysis files its factor acts A/rho under their canonical forms
(`ActAnalysis.quotients`) and keeps the forms of its proper retracts
(`retract_forms`).  The checks are compared here with the pair bodies
kept in `oracles`, which read the hom list between the two acts: on
every pair of 3/4 and 2/5 (whose trivial-monoid acts are 1/5), under
forced flags that make either theorem fail, and on sampled and
relabelled acts, which are not canonical forms."""

import hashlib
import random

import pytest

from monact import harness
from monact.act import Act, least_relabelling
from monact.cli import suite_json
from monact.deciders import ActAnalysis
from monact.harness import (
    SCH, SH, CorpusSpec, SuiteContext, build_corpus, check_theorem, random_acts, run_suite,
)
from oracles import act_canonical_form, t7_pair_oracle, t8_pair_oracle

SPECS = [CorpusSpec(), CorpusSpec(max_monoid_size=2, max_act_size=5)]
ORACLES = {"T7": t7_pair_oracle, "T8": t8_pair_oracle}
FLAG_READ = {"T7": SH, "T8": SCH}


def _results(tid, spec):
    """(check, oracle) results on every pair `tid` reads in the corpus."""
    _, kind, check = harness.REGISTRY[tid]
    corpus, results = build_corpus(spec), []
    for M, per in zip(corpus.monoids, corpus.acts):
        ctx = SuiteContext()
        pairs = harness._instances_for(kind, M, per, ctx)
        results += [(check(ctx, p), ORACLES[tid](ctx, p)) for p in pairs]
    return results


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


def _relabelled(A, rng):
    """A copy of A under a random relabelling of its carrier."""
    p = rng.sample(range(A.size), A.size)
    rows = {p[a]: tuple(p[b] for b in row) for a, row in enumerate(A.action)}
    return Act(A.monoid, A.size, tuple(rows[a] for a in range(A.size)))


@pytest.mark.parametrize("forced, nonvacuous", [
    ({}, 1415),
    ({SH: lambda X: X.size != 1, SCH: lambda X: X.size != 2}, 1255),
], ids=["true-flags", "forced-flags"])
def test_check_theorem_matches_pair_oracle_on_acts_that_are_not_canonical(
        forced_flags, forced, nonvacuous):
    # corpus acts of up to 3 points, a relabelled copy of each and
    # sampled 4-point tables over each monoid of size 2 and 3, each pair
    # checked on a fresh context; a copy and its corpus act are an
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
                want = ORACLES[tid](SuiteContext(), pair)
                assert got == (bool(want[0]), *want[1:]), (tid, pair)
                counts["checked"] += 1
                counts["nonvacuous"] += v.nonvacuous
                counts["failed"] += not v.passed
    assert counts["checked"] == 3770 and counts["moved"] == 48
    assert counts["nonvacuous"] == nonvacuous
    assert bool(counts["failed"]) == bool(forced)


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
    assert len(acts) == 142 + 4


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


def test_planted_end_count_for_aut_count_is_caught(monkeypatch):
    # each induced kernel adds |End(B)| surjections instead of |Aut(B)|:
    # the T8 details and the default digest see it
    monkeypatch.setattr(ActAnalysis, "automorphisms", property(lambda an: an.endos))
    mismatches = _mismatches("T8", SPECS[0])
    assert len(mismatches) == 395
    assert all(got[:3] == want[:3] for got, want in mismatches)
    assert _digest(CorpusSpec()) == "ab9600898296"
