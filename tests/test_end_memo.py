"""`run_suite` builds End(A) once per distinct endomorphism list: acts
with the same maps share one table's size and commutativity through the
run's memo, where End(A) entries are keyed by the exact maps, and the
memo dies with the run.  Every report's End(A) fields are checked
against a table built afresh for its act."""

import hashlib

import pytest

from monact import deciders, harness
from monact.cli import suite_json
from monact.endo import end_monoid, endomorphisms, is_commutative
from monact.harness import CorpusSpec, run_suite


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


@pytest.mark.parametrize("sizes, acts", [((3, 4), 142), ((2, 5), 34)])
def test_report_end_fields_match_a_fresh_end_monoid(sizes, acts):
    result = run_suite(CorpusSpec(max_monoid_size=sizes[0], max_act_size=sizes[1]))
    assert sum(map(len, result.corpus.acts)) == acts
    assert _end_mismatches(result) == []


def test_suite_builds_end_once_per_distinct_endomorphism_list(monkeypatch):
    """52 distinct lists among the 142 default acts, and 52 builds again
    in a second run of the same process: no memo outlives its run."""
    builds = []
    real = deciders.end_monoid

    def counting(A, endos=None):
        builds.append(tuple(endos))
        return real(A, endos)

    monkeypatch.setattr(deciders, "end_monoid", counting)
    for _ in range(2):
        builds.clear()
        result = run_suite(CorpusSpec())
        assert all(v.passed for v in result.verdicts)
        assert sum(map(len, result.corpus.acts)) == 142
        assert len(builds) == len(set(builds)) == 52


def test_planted_memo_keyed_by_list_length_is_caught(monkeypatch):
    # the run's memo keys End(A) by how many endomorphisms there are,
    # not by the maps, so acts with equally many different maps share one
    # entry; every theorem still passes, and only the fresh End(A) oracle
    # and the document digest see it
    def by_length(key):
        return ("End(A)", len(key[1])) if key[0] == "End(A)" else key

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
    assert len(_end_mismatches(result)) == 7
    digest = hashlib.sha256(suite_json(result).encode()).hexdigest()
    assert digest[:12] == "e49247d1b6d8"
