"""`run_suite` reads End(A)'s size and commutativity off the endomorphism
maps, with no table: the size is the number of maps, and commutativity
(`ActAnalysis.end_commutative`) is decided once per transformation set,
the key of the run's memo, which dies with the run.  Every report's
End(A) fields are checked against the table oracle `oracles.end_monoid`,
built afresh for its act."""

import hashlib

import pytest

from monact import harness
from monact.cli import suite_json
from monact.deciders import ActAnalysis, _per_transformation_set
from monact.endo import endomorphisms
from monact.harness import CorpusSpec, run_suite

from oracles import end_monoid, is_commutative

END_COMMUTATIVE = ActAnalysis.end_commutative.func.__wrapped__


def _end_mismatches(result):
    """The (act, report properties) pairs whose `end_size` or
    `end_commutative` differs from End(A) built afresh for that act."""
    acts = [A for per in result.corpus.acts for A in per]
    assert len(acts) == len(result.reports)
    mismatches = []
    for A, report in zip(acts, result.reports):
        assert report["action"] == [list(row) for row in A.action]
        props = report["properties"]
        fresh = (len(endomorphisms(A)), is_commutative(end_monoid(A)))
        if (props["end_size"], props["end_commutative"]) != fresh:
            mismatches.append((A, props))
    return mismatches


def _plant_end_commutative(monkeypatch, compute):
    prop = _per_transformation_set(compute)
    prop.__set_name__(ActAnalysis, "end_commutative")
    monkeypatch.setattr(ActAnalysis, "end_commutative", prop)


@pytest.mark.parametrize("sizes, acts", [((3, 4), 142), ((2, 5), 34)])
def test_report_end_fields_match_a_fresh_end_monoid(sizes, acts):
    result = run_suite(CorpusSpec(max_monoid_size=sizes[0], max_act_size=sizes[1]))
    assert sum(map(len, result.corpus.acts)) == acts
    assert _end_mismatches(result) == []


def test_suite_builds_end_once_per_distinct_endomorphism_list(monkeypatch):
    """Commutativity is decided once per transformation set, 53 times
    among the 142 default acts, and 53 times again in a second run of
    the same process: no memo outlives its run."""
    builds = []

    def counting(an):
        builds.append((an.act.size, an.transformations))
        return END_COMMUTATIVE(an)

    _plant_end_commutative(monkeypatch, counting)
    for _ in range(2):
        builds.clear()
        result = run_suite(CorpusSpec())
        assert all(v.passed for v in result.verdicts)
        assert sum(map(len, result.corpus.acts)) == 142
        assert len(builds) == len(set(builds)) == 53


def test_planted_memo_keyed_by_list_length_is_caught(monkeypatch):
    # the run's memo keys commutativity by how many maps the
    # transformation set holds, not by the maps, so acts with equally
    # many different maps share one entry; every theorem still passes,
    # and only the fresh End(A) oracle and the document digest see it
    def by_length(key):
        return (key[0], key[1], len(key[2])) if key[0] is END_COMMUTATIVE else key

    class ByLength(dict):
        def __contains__(self, key):
            return super().__contains__(by_length(key))

        def __getitem__(self, key):
            return super().__getitem__(by_length(key))

        def __setitem__(self, key, value):
            super().__setitem__(by_length(key), value)

    memo = ByLength()
    real = harness.SuiteContext.analysis

    def planted(ctx, A):
        an = real(ctx, A)
        an.memo = memo
        return an

    monkeypatch.setattr(harness.SuiteContext, "analysis", planted)
    result = run_suite(CorpusSpec())
    assert all(v.passed for v in result.verdicts)
    assert len(_end_mismatches(result)) == 22
    digest = hashlib.sha256(suite_json(result).encode()).hexdigest()
    assert digest[:12] == "7c6fe4b62d9d"


def test_planted_commutativity_without_the_last_endomorphism_is_caught(monkeypatch):
    # the check leaves out the last endomorphism in map order, so a
    # non-commuting pair that involves it goes unseen; every theorem
    # still passes, and the fresh End(A) oracle catches it on one
    # default act (and on 22 of the 1205 acts of 4/4)
    def without_last(an):
        endos = an.endos[:-1]
        return all(compose(f, g) == compose(g, f) for f in endos for g in endos)

    def compose(f, g):
        return g.translate(f.ljust(256, b"\0"))

    _plant_end_commutative(monkeypatch, without_last)
    result = run_suite(CorpusSpec())
    assert all(v.passed for v in result.verdicts)
    assert len(_end_mismatches(result)) == 1
