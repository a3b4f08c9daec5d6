"""Power profiles against the literal chain computations.

Criteria 1 and 2 and the chain reports read one PowerProfile per
endomorphism; `oracles` holds the partition-by-partition loops they
replaced, and the chain reports built from whole homomorphism powers.
The planted bugs show which check catches which fault.
"""

import itertools
import random

import pytest

from monact import deciders
from monact.deciders import (
    CRITERIA,
    ActAnalysis,
    chain_reports,
    is_strongly_co_hopfian,
    is_strongly_hopfian,
)
from monact.harness import CorpusSpec, build_corpus, enumerate_monoids, random_acts, run_suite

from oracles import (
    chain_index_oracle,
    chain_report_oracle,
    chain_reports_oracle,
    criterion_index_oracle,
    map_powers,
)


def corpus_acts(max_monoid, max_act):
    return [A for per in build_corpus(CorpusSpec(max_monoid, max_act)).acts for A in per]


def five_point_acts():
    """Seeded 5-point acts over the trivial monoid and both 2-element
    monoids; the trivial monoid has only one act of each size."""
    rng = random.Random(5)
    (trivial,) = enumerate_monoids(1)
    acts = random_acts(trivial, 5, 1, rng)
    for M in enumerate_monoids(2):
        acts.extend(random_acts(M, 5, 3, rng))
    return acts


def six_point_acts():
    """Seeded 6-point acts over both 2-element monoids."""
    rng = random.Random(6)
    return [A for M in enumerate_monoids(2) for A in random_acts(M, 6, 3, rng)]


def oracle_mismatches(acts):
    """Every place where a profile, a criterion index or a chain report
    differs from its oracle, as (act, what, got, expected)."""
    bad = []
    for A in acts:
        an = ActAnalysis(A)
        for f, p in zip(map(tuple, an.endos), an.profiles):
            got = (p.k_index, p.i_index)
            want = (chain_index_oracle(f, "kernel"), chain_index_oracle(f, "image"))
            if got != want:
                bad.append((A, f"profile of {f}", got, want))
        for family, decide in (("kernel", is_strongly_hopfian), ("image", is_strongly_co_hopfian)):
            for c in CRITERIA:
                per = [criterion_index_oracle(f, family, c) for f in an.endos]
                want = (False, None) if None in per else (True, max(per))
                got = decide(an, c)
                if got != want:
                    bad.append((A, f"{family} criterion {c}", got, want))
        ident = tuple(range(A.size))
        order = [ident] + [f for f in map(tuple, an.endos) if f != ident]
        for n, rep in enumerate(chain_reports(an)):
            got = (rep.endo, rep.mapping, rep.k_index, rep.i_index,
                   rep.kernel.classes, rep.image.classes)
            want = (n, order[n]) + chain_report_oracle(order[n])
            if got != want:
                bad.append((A, f"chain report {n}", got, want))
    return bad


def rank_identity_failures(acts):
    """Endomorphisms whose profile indices are not both the least n
    with |im f^n| = |im f^(n+1)|, and the number checked."""
    bad, checked = [], 0
    for A in acts:
        an = ActAnalysis(A)
        for f, p in zip(an.endos, an.profiles):
            ranks = [len(set(q)) for q in map_powers(f, A.size + 1)]
            n = next(n for n in range(1, A.size + 1) if ranks[n - 1] == ranks[n])
            checked += 1
            if not p.k_index == p.i_index == n:
                bad.append((A, tuple(f), p, n))
    return bad, checked


def test_profiles_match_oracles_on_default_corpus():
    assert oracle_mismatches(corpus_acts(3, 4)) == []


def test_profiles_match_oracles_on_five_point_acts():
    acts = five_point_acts()
    assert len(acts) == 7
    assert oracle_mismatches(acts) == []


def test_chain_reports_match_the_powered_oracle():
    acts = corpus_acts(3, 4) + five_point_acts() + six_point_acts()
    assert len(acts) == 142 + 7 + 6
    for A in acts:
        an = ActAnalysis(A)
        assert chain_reports(an) == chain_reports_oracle(an), A


def test_kernel_and_image_indices_are_the_rank_index():
    bad, checked = rank_identity_failures(corpus_acts(3, 4))
    assert checked == 4451
    assert bad == []


def test_profile_keeps_no_powers():
    an = ActAnalysis(corpus_acts(2, 3)[-1])
    for p in an.profiles:
        assert all(isinstance(v, (int, bool)) for v in p)


# -- planted bugs ------------------------------------------------------------

def _plant_off_by_one(monkeypatch, field):
    build = deciders.power_profile
    monkeypatch.setattr(
        deciders, "power_profile",
        lambda f: build(f)._replace(**{field: getattr(build(f), field) + 1}),
    )


def _suite_verdict(tid):
    (verdict,) = run_suite(CorpusSpec(2, 3, theorems=(tid,))).verdicts
    return verdict


def test_planted_k_index_off_by_one_is_caught(monkeypatch):
    _plant_off_by_one(monkeypatch, "k_index")
    acts = corpus_acts(2, 3)
    assert oracle_mismatches(acts)
    bad, checked = rank_identity_failures(acts)
    assert len(bad) == checked  # the kernel index now disagrees with the image index
    # criteria 1 and 2 read the planted index, criterion 3 does not
    verdict = _suite_verdict("T4")
    assert not verdict.passed
    flags = verdict.witness["flags"]
    assert flags["criterion_indices"][0] == flags["criterion_indices"][2] + 1


def test_planted_i_index_off_by_one_is_caught(monkeypatch):
    _plant_off_by_one(monkeypatch, "i_index")
    acts = corpus_acts(2, 3)
    assert oracle_mismatches(acts)
    verdict = _suite_verdict("T5")
    assert not verdict.passed
    flags = verdict.witness["flags"]
    assert flags["criterion_indices"][0] == flags["criterion_indices"][2] + 1


def test_planted_unpowered_chain_report_is_caught(monkeypatch):
    # f's own map where the report needs the maps of f^k and f^i
    monkeypatch.setattr(deciders, "_map_power", lambda m, n: m)
    acts = corpus_acts(2, 3)
    bad = oracle_mismatches(acts)
    assert bad and all(what.startswith("chain report") for _, what, _, _ in bad)
    assert any(chain_reports(A) != chain_reports_oracle(A) for A in acts)


def _early_settle(force_tail):
    """A settle step that stops one power early where it can; the tail
    from there is not constant.  `force_tail` reports it constant
    anyway."""
    settle = deciders._settle

    def planted(chain):
        n, tail = settle(chain)
        if n == 1:
            return n, tail
        early = n - 1
        return early, force_tail or all(x == chain[early - 1] for x in chain[early:])

    return planted


def test_planted_early_settle_trips_the_tail_check(monkeypatch):
    monkeypatch.setattr(deciders, "_settle", _early_settle(force_tail=False))
    caught = 0
    for A in corpus_acts(2, 3):
        try:
            is_strongly_hopfian(A, 1)
        except AssertionError:
            caught += 1
    assert caught


def test_planted_tail_flag_forced_true_is_caught_by_the_oracles(monkeypatch):
    monkeypatch.setattr(deciders, "_settle", _early_settle(force_tail=True))
    acts = corpus_acts(2, 3)
    for A in acts:  # the tail check is silenced
        is_strongly_hopfian(A, 1)
        is_strongly_co_hopfian(A, 1)
    bad = oracle_mismatches(acts)
    assert any(what == "kernel criterion 1" for _, what, _, _ in bad)
    assert any(what == "image criterion 1" for _, what, _, _ in bad)


def test_planted_meet_join_swap_in_criterion_3_is_caught(monkeypatch):
    # criterion 3's label kernels swapped: the kernel family joins the
    # image and kernel labels, the image family meets them.  Each fake
    # returns the label type of the kernel it replaces (a tuple for the
    # meet, bytes for the join), so criterion 3 fails by the swap and not
    # by comparing a tuple with bytes.
    meet, merge = deciders._meet_labels, deciders._merge
    monkeypatch.setattr(deciders, "_meet_labels",
                        lambda rho, sigma: tuple(merge(bytes(rho), enumerate(sigma))[0]))
    monkeypatch.setattr(deciders, "_merge",
                        lambda labels, pairs: (bytes(meet(labels, [lab for _, lab in pairs])), None))
    bad = oracle_mismatches(corpus_acts(2, 3))
    assert {what for _, what, _, _ in bad} == {"kernel criterion 3", "image criterion 3"}


def test_planted_unpowered_criterion_3_is_caught(monkeypatch):
    # the power step hands criterion 3 f's own map at every n
    endo_index = deciders._endo_index
    monkeypatch.setattr(
        deciders, "_endo_index",
        lambda m, criterion, index, tail, settled: endo_index(
            m, criterion, index, tail, lambda f_n: settled(m)),
    )
    bad = oracle_mismatches(corpus_acts(2, 3))
    assert {what for _, what, _, _ in bad} == {"kernel criterion 3", "image criterion 3"}
    assert not _suite_verdict("T4").passed
    assert not _suite_verdict("T5").passed


def test_planted_memo_shared_by_both_families_is_an_equivalent_mutant(monkeypatch):
    # One dict behind both families' criterion-3 memos: the co-Hopfian
    # decider reads the Hopfian decider's meet answers.  No oracle can
    # catch it, because the two answers agree on every map g: im g and
    # ker g meet in the diagonal iff g is injective on im g, iff
    # im g^2 = im g, iff every kernel class meets im g, iff they join to
    # the universal congruence.
    shared = {}

    def shared_cache(settled):
        def lookup(f_n):
            if f_n not in shared:
                shared[f_n] = settled(f_n)
            return shared[f_n]
        return lookup

    monkeypatch.setattr(deciders, "cache", shared_cache)
    assert oracle_mismatches(corpus_acts(2, 3)) == []
    assert shared
    maps = [g for n in range(1, 5) for g in itertools.product(range(n), repeat=n)]
    assert len(maps) == 288
    for g in maps:
        assert criterion_index_oracle(g, "kernel", 3) == criterion_index_oracle(g, "image", 3)


@pytest.mark.parametrize("criterion", [0, 4])
def test_unknown_criterion_is_refused(a2, criterion):
    with pytest.raises(ValueError):
        is_strongly_hopfian(a2, criterion)
    with pytest.raises(ValueError):
        is_strongly_co_hopfian(a2, criterion)
