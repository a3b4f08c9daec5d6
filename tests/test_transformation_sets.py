"""The suite's run memo shares what an act's transformation set fixes.
Acts A and A' whose maps rho_s: a -> a*s form one set, over any
monoids, have the same endomorphisms, property report, criterion-3
indices, congruence labels and subact members; pairs (A, B) with one
set of column pairs (rho_s^A, rho_s^B) have the same homs.  Every act
here gets a fresh ActAnalysis with its own memo, so nothing is shared
while the fact is checked, and acts are grouped by the memo's own key
(`ActAnalysis.transformations`), so a key that merges too much shows
as a mismatch.  The shared congruences and subacts are also read
through one run memo, and compared with fresh enumerations."""

import hashlib

import pytest

from monact import deciders
from monact.act import enumerate_subacts
from monact.cli import suite_json
from monact.congruence import enumerate_congruences
from monact.deciders import ActAnalysis, classify_act, join_index, meet_index
from monact.endo import homomorphisms
from monact.harness import CorpusSpec, build_corpus, run_suite
from oracles import brute_force_homs


def _acts(max_monoid, max_act):
    corpus = build_corpus(CorpusSpec(max_monoid_size=max_monoid, max_act_size=max_act))
    return [A for per in corpus.acts for A in per]


def _groups(acts):
    """The acts grouped by the run memo's key, in corpus order."""
    groups = {}
    for A in acts:
        groups.setdefault((A.size, ActAnalysis(A).transformations), []).append(A)
    return list(groups.values())


def _fresh(A):
    """What the memo shares for A, read off an analysis with its own memo."""
    an = ActAnalysis(A)
    return classify_act(an), an.endos, meet_index(an), join_index(an)


def _memo_mismatches(acts):
    """(A, A') for each act A' whose fresh quantities differ from those
    of A, the first act of its group."""
    bad = []
    for first, *rest in _groups(acts):
        if rest:
            want = _fresh(first)
            bad += [(first, A) for A in rest if _fresh(A) != want]
    return bad


@pytest.mark.parametrize("sizes, acts, sets", [((3, 4), 142, 53), ((2, 5), 34, 24)])
def test_acts_with_one_transformation_set_analyse_alike(sizes, acts, sets):
    corpus_acts = _acts(*sizes)
    assert (len(corpus_acts), len(_groups(corpus_acts))) == (acts, sets)
    assert _memo_mismatches(corpus_acts) == []


def _shared_mismatches(acts):
    """The acts, analysed through one run memo, whose congruences or
    subacts differ from a fresh enumeration's in labels, heights,
    members or order, or are bound to another act."""
    memo, bad = {}, []
    for A in acts:
        an = ActAnalysis(A)
        an.memo = memo
        lattice = [(rho.act, rho.labels, rho.height) for rho in an.congruences]
        subacts = [(B.parent, B.members) for B in an.subacts]
        if (lattice != [(A, rho.labels, rho.height) for rho in enumerate_congruences(A)]
                or subacts != [(A, B.members) for B in enumerate_subacts(A)]
                or any(rho.act is not A for rho in an.congruences)
                or any(B.parent is not A for B in an.subacts)):
            bad.append(A)
    return bad


@pytest.mark.parametrize("sizes", [(3, 4), (2, 5)])
def test_shared_congruences_and_subacts_are_each_acts_own(sizes):
    # acts with one transformation set share one enumeration of each,
    # and each act still reads its own lattice and subacts
    assert _shared_mismatches(_acts(*sizes)) == []


def test_lone_analysis_keeps_the_enumerated_lists(monkeypatch):
    # an analysis with a memo of its own returns the very lists the
    # enumerations built, with no copy
    built = []

    def keep(build):
        def wrapper(A):
            built.append(build(A))
            return built[-1]
        return wrapper

    monkeypatch.setattr(deciders, "enumerate_congruences", keep(enumerate_congruences))
    monkeypatch.setattr(deciders, "enumerate_subacts", keep(enumerate_subacts))
    for A in _acts(2, 3):
        an, built[:] = ActAnalysis(A), []
        assert an.congruences is an.congruences
        assert an.subacts is an.subacts
        assert built[0] is an.congruences and built[1] is an.subacts and len(built) == 2


def test_pairs_with_one_set_of_column_pairs_have_the_same_homs():
    """A hom A -> B is a map f with f o rho_s^A = rho_s^B o f for each s,
    so the pairs of 3/4 with one set of column pairs, across monoids,
    share one list: the brute-force oracle's for the first such pair."""
    groups = {}
    for per in build_corpus(CorpusSpec()).acts:
        for A in per:
            for B in per:
                columns = frozenset(zip(zip(*A.action), zip(*B.action)))
                groups.setdefault((A.size, B.size, columns), []).append((A, B))
    shared = [pairs for pairs in groups.values() if len(pairs) > 1]
    assert sum(map(len, groups.values())) == 2492
    assert (len(shared), sum(map(len, shared))) == (169, 1096)
    for pairs in shared:
        want = brute_force_homs(*pairs[0])
        assert [homomorphisms(A, B) for A, B in pairs] == [want] * len(pairs), pairs[0]


def test_planted_image_set_key_is_caught(monkeypatch):
    # the memo keys each act by the image set of each map rho_s instead
    # of the map, so acts with different maps onto the same images share
    # one analysis, split kernels and retract images included, so the
    # lift and extension checks skip by another act's idempotents, and
    # one congruence lattice and one subact list; every theorem still
    # passes, and only the digest, the fresh analyses and the fresh
    # enumerations see it
    init = ActAnalysis.__init__

    def planted(self, act):
        init(self, act)
        self.transformations = frozenset(map(frozenset, zip(*act.action)))

    monkeypatch.setattr(ActAnalysis, "__init__", planted)
    result = run_suite(CorpusSpec())
    assert all(v.passed for v in result.verdicts)
    digest = hashlib.sha256(suite_json(result).encode()).hexdigest()
    assert digest[:12] == "216729181a7d"
    assert len(_memo_mismatches(_acts(3, 4))) == 25
    assert len(_shared_mismatches(_acts(3, 4))) == 25
