"""The suite's run memo shares what an act's transformation set fixes.
Acts A and A' whose maps rho_s: a -> a*s form one set, over any
monoids, have the same endomorphisms, property report, criterion-3
indices, congruence labels and subact members; pairs (A, B) with one
set of column pairs (rho_s^A, rho_s^B) have the same homs.  Every act
here gets a fresh ActAnalysis with its own memo, so nothing is shared
while the fact is checked, and acts are grouped by the memo's own key
(`ActAnalysis.transformations`), so a key that merges too much shows
as a mismatch.  The shared congruence labels and subact members are
also read through a suite run's memo, compared with fresh
enumerations, and checked to be plain tuples, with no act-bound
object left in the memo."""

import hashlib
from dataclasses import is_dataclass

import pytest

from monact import harness
from monact.act import Subact, enumerate_subacts
from monact.cli import suite_json
from monact.congruence import Congruence, enumerate_congruences
from monact.deciders import (
    ActAnalysis, classify_act, is_quasi_injective, is_quasi_projective, join_index, meet_index,
)
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


def _shared_mismatches(acts, memo):
    """The acts, analysed through `memo`, whose lattice or subact tuples
    differ from a fresh enumeration's labels, heights, members or order."""
    bad = []
    for A in acts:
        an = ActAnalysis(A)
        an.memo = memo
        if (an.lattice != [(rho.labels, rho.height) for rho in enumerate_congruences(A)]
                or an.subact_members != [B.members for B in enumerate_subacts(A)]):
            bad.append(A)
    return bad


def _held(value):
    """value and everything it holds, through containers and dataclass fields."""
    yield value
    if isinstance(value, dict):
        items = [*value, *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    elif is_dataclass(value):
        items = vars(value).values()
    else:
        return
    for item in items:
        yield from _held(item)


@pytest.mark.parametrize("sizes", [(3, 4), (2, 5)])
def test_run_memo_shares_plain_lattice_and_subact_tuples(monkeypatch, sizes):
    # acts with one transformation set share one enumeration of each,
    # kept as tuples that name no act: every act reads a fresh
    # enumeration's through the run memo, and the memo holds no
    # Congruence or Subact
    made = []

    class Recording(ActAnalysis):
        def __init__(self, act):
            super().__init__(act)
            made.append(self)

    monkeypatch.setattr(harness, "ActAnalysis", Recording)
    result = run_suite(CorpusSpec(max_monoid_size=sizes[0], max_act_size=sizes[1]))
    assert all(v.passed for v in result.verdicts)
    memo = made[0].memo
    assert all(an.memo is memo for an in made)
    assert _shared_mismatches(_acts(*sizes), memo) == []
    assert not any(isinstance(x, (Congruence, Subact)) for x in _held(list(memo.values())))


def test_counterexamples_are_built_on_their_act_from_the_shared_tuples():
    # read through one memo, the quasi-injectivity and quasi-projectivity
    # counterexamples of 3/5 each name the act they are about, and a
    # congruence carries the height a fresh enumeration gives it
    memo, failures = {}, [0, 0]
    for A in _acts(3, 5):
        an = ActAnalysis(A)
        an.memo = memo
        flag, found = is_quasi_injective(an)
        if not flag:
            B = found[0]
            assert B.parent is A and B.members in [C.members for C in enumerate_subacts(A)]
            failures[0] += 1
        flag, found = is_quasi_projective(an)
        if not flag:
            rho = found[0]
            fresh = [(c.labels, c.height) for c in enumerate_congruences(A)]
            assert rho.act is A and (rho.labels, rho.height) in fresh
            failures[1] += 1
    assert failures == [25, 77]


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
    assert len(_shared_mismatches(_acts(3, 4), {})) == 25
