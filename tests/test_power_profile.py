"""Settle indices against the literal chain computations.

The strong Hopfian pair (`is_strongly_hopfian`, `is_strongly_co_hopfian`,
both criteria 1 and 2) and the chain reports read one settle index per
endomorphism, the least n with |im f^n| = |im f^(n+1)|; `meet_index` and
`join_index` decide criterion 3 literally.  `oracles` holds the
partition-by-partition loops for all three criteria, the walk to the first
repeated power that settles the kernel and image chains apart
(`power_walk_oracle`), and the chain reports built from whole
homomorphism powers.  The planted bugs show which check catches which
fault.
"""

import itertools
import random

from monact import deciders
from monact.act import validate_act
from monact.congruence import image_congruence, kernel_congruence
from monact.deciders import ActAnalysis, chain_reports
from monact.harness import CorpusSpec, build_corpus, enumerate_monoids, random_acts, run_suite

from oracles import (
    bell_number,
    chain_index_oracle,
    chain_report_oracle,
    chain_reports_oracle,
    criterion_index_oracle,
    map_powers,
    power_walk_oracle,
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
    """Every place where a settle index, a criterion index or a chain
    report differs from its oracle, as (act, what, got, expected)."""
    bad = []
    for A in acts:
        an = ActAnalysis(A)
        for f, n in zip(map(tuple, an.endos), an.profiles):
            want = (chain_index_oracle(f, "kernel"), chain_index_oracle(f, "image"))
            if (n, n) != want:
                bad.append((A, f"settle index of {f}", (n, n), want))
        families = (("kernel", deciders.is_strongly_hopfian, deciders.meet_index),
                    ("image", deciders.is_strongly_co_hopfian, deciders.join_index))
        for family, decide, literal in families:
            for c, got in ((1, decide(an)), (2, decide(an)), (3, literal(an))):
                per = [criterion_index_oracle(f, family, c) for f in an.endos]
                want = (False, None) if None in per else (True, max(per))
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


def walk_mismatches(acts):
    """Endomorphisms whose walk to the first repeated power does not
    settle both chains at the settle index n with constant tails, that
    is, does not give (n, n, True, True); and the number checked."""
    bad, checked = [], 0
    for A in acts:
        an = ActAnalysis(A)
        for f, n in zip(an.endos, an.profiles):
            walk = power_walk_oracle(f)
            checked += 1
            if walk != (n, n, True, True):
                bad.append((A, tuple(f), n, walk))
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


def test_chain_reports_share_one_congruence_per_distinct_partition():
    """Over the trivial monoid every self-map of 5 points is an
    endomorphism: 3125 reports, whose powers f^n reach every partition
    (Bell(5) = 52 kernels) and every non-empty image (2^5 - 1 = 31)."""
    (trivial,) = enumerate_monoids(1)
    A = validate_act(trivial, 5, [[a] for a in range(5)])
    an = ActAnalysis(A)
    reports = chain_reports(an)
    assert len(reports) == 5**5
    kernels = {id(rep.kernel) for rep in reports}
    images = {id(rep.image) for rep in reports}
    assert (len(kernels), len(images)) == (bell_number(5), 2**5 - 1)
    for rep in reports:
        f_n = map_powers(rep.mapping, rep.k_index)[-1]
        assert rep.kernel == kernel_congruence(A, f_n)
        assert rep.image == image_congruence(A, f_n)
    assert reports == chain_reports_oracle(an)


def test_kernel_and_image_indices_are_the_rank_index():
    """The walk to the first repeated power settles the kernel and the
    image chain at the settle index, with constant tails, on every
    endomorphism of 3/4, of the 34 acts of 2/5 and of the seeded 5-point
    acts."""
    two_five = corpus_acts(2, 5)
    assert len(two_five) == 34
    for acts, checked in ((corpus_acts(3, 4), 4451), (two_five, 11903), (five_point_acts(), 6904)):
        assert walk_mismatches(acts) == ([], checked)


def test_profile_keeps_no_powers():
    an = ActAnalysis(corpus_acts(2, 3)[-1])
    assert len(an.profiles) == len(an.endos)
    assert all(type(n) is int for n in an.profiles)


# -- planted bugs ------------------------------------------------------------

def _suite_verdicts(spec, tids):
    return {v.theorem: v for v in run_suite(CorpusSpec(*spec, theorems=tids)).verdicts}


def _plant_settle_off_by_one(monkeypatch):
    settle = deciders.settle_index
    monkeypatch.setattr(deciders, "settle_index", lambda m: settle(m) + 1)


def test_planted_k_index_off_by_one_is_caught(monkeypatch):
    """The kernel index is the settle index: one power too late there
    shows in the kernel criteria, the walk oracle and T4."""
    _plant_settle_off_by_one(monkeypatch)
    acts = corpus_acts(2, 3)
    assert any(what.startswith("kernel criterion") for _, what, _, _ in oracle_mismatches(acts))
    bad, checked = walk_mismatches(acts)
    assert len(bad) == checked  # the walk settles every map one power earlier
    # criteria 1 and 2 read the planted index, criterion 3 does not
    verdicts = _suite_verdicts((3, 4), ("T4",))
    assert not verdicts["T4"].passed
    flags = verdicts["T4"].witness["flags"]
    assert flags["criterion_indices"][0] == flags["criterion_indices"][2] + 1


def test_planted_i_index_off_by_one_is_caught(monkeypatch):
    """The image index is the same settle index: the plant shows in the
    image criteria, in T5 and in the regular acts' indices of T6."""
    _plant_settle_off_by_one(monkeypatch)
    acts = corpus_acts(2, 3)
    assert any(what.startswith("image criterion") for _, what, _, _ in oracle_mismatches(acts))
    verdicts = _suite_verdicts((3, 4), ("T5", "T6"))
    assert not verdicts["T5"].passed
    flags = verdicts["T5"].witness["flags"]
    assert flags["criterion_indices"][0] == flags["criterion_indices"][2] + 1
    # the regular acts' indices leave the monoid-level ones
    assert not verdicts["T6"].passed


def _plant_least_settle_index(monkeypatch, name):
    """The decider `name` reports the least settle index, not the largest."""
    monkeypatch.setattr(deciders, name, lambda A: (True, min(deciders.analyse(A).profiles)))


def test_planted_least_co_hopfian_index_is_caught(monkeypatch):
    """Criterion 3, computed literally, still finds the worst
    endomorphism, so T5 fails on every act whose endomorphisms settle
    at more than one index."""
    _plant_least_settle_index(monkeypatch, "is_strongly_co_hopfian")
    bad = oracle_mismatches(corpus_acts(2, 3))
    assert {what for _, what, _, _ in bad} == {"image criterion 1", "image criterion 2"}
    verdicts = _suite_verdicts((3, 4), ("T4", "T5"))
    assert verdicts["T4"].passed
    assert not verdicts["T5"].passed
    assert verdicts["T5"].details["criterion3_index_mismatches"] == 79
    assert verdicts["T5"].witness["flags"]["criterion_indices"] == [1, 1, 2]


def test_planted_least_hopfian_index_is_caught(monkeypatch):
    _plant_least_settle_index(monkeypatch, "is_strongly_hopfian")
    bad = oracle_mismatches(corpus_acts(2, 3))
    assert {what for _, what, _, _ in bad} == {"kernel criterion 1", "kernel criterion 2"}
    verdicts = _suite_verdicts((3, 4), ("T4", "T5"))
    assert not verdicts["T4"].passed
    assert verdicts["T5"].passed
    assert verdicts["T4"].details["criterion3_index_mismatches"] == 79
    assert verdicts["T4"].witness["flags"]["criterion_indices"] == [1, 1, 2]


def test_planted_unpowered_chain_report_is_caught(monkeypatch):
    # f's own map where the report needs the map of f^n
    monkeypatch.setattr(deciders, "_map_power", lambda m, n: m)
    acts = corpus_acts(2, 3)
    bad = oracle_mismatches(acts)
    assert bad and all(what.startswith("chain report") for _, what, _, _ in bad)
    assert any(chain_reports(A) != chain_reports_oracle(A) for A in acts)


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
    # the power step hands the criterion-3 walk f's own map at every n;
    # the chain reports read the same step, and show it at f^n
    monkeypatch.setattr(deciders, "_powers", itertools.repeat)
    bad = {what for _, what, _, _ in oracle_mismatches(corpus_acts(2, 3))}
    assert {what for what in bad if "criterion" in what} == {"kernel criterion 3",
                                                             "image criterion 3"}
    verdicts = _suite_verdicts((2, 3), ("T4", "T5"))
    assert not verdicts["T4"].passed
    assert not verdicts["T5"].passed


def _plant_walk_cache(monkeypatch, key, answer):
    """The criterion-3 walk's cache keeps answer(test(f_n)) under
    key(f_n); returns the list of the caches made."""
    caches = []

    def planted(test):
        answers = {}
        caches.append(answers)

        def lookup(f_n):
            if key(f_n) not in answers:
                answers[key(f_n)] = answer(test(f_n))
            return answers[key(f_n)]
        return lookup

    monkeypatch.setattr(deciders, "cache", planted)
    return caches


def test_planted_walk_cache_keyed_by_image_set_is_caught(monkeypatch):
    # f^n's answers filed under im f^n: a later power with the same image
    # and another kernel reads them
    _plant_walk_cache(monkeypatch, frozenset, lambda answers: answers)
    bad = oracle_mismatches(corpus_acts(2, 3))
    assert {what for _, what, _, _ in bad} == {"kernel criterion 3", "image criterion 3"}
    verdicts = _suite_verdicts((3, 4), ("T4", "T5"))
    assert not verdicts["T4"].passed
    assert not verdicts["T5"].passed


def test_planted_memo_shared_by_both_families_is_an_equivalent_mutant(monkeypatch):
    # The walk's cache, which both families share, keeps only the meet's
    # answer, and the join reads it.  No oracle can catch it, because the
    # two answers agree on every map g: im g and ker g meet in the
    # diagonal iff g is injective on im g, iff im g^2 = im g, iff every
    # kernel class meets im g, iff they join to the universal congruence.
    caches = _plant_walk_cache(monkeypatch, bytes, lambda answers: (answers[0], answers[0]))
    assert oracle_mismatches(corpus_acts(2, 3)) == []
    assert any(caches)
    maps = [g for n in range(1, 5) for g in itertools.product(range(n), repeat=n)]
    assert len(maps) == 288
    for g in maps:
        assert criterion_index_oracle(g, "kernel", 3) == criterion_index_oracle(g, "image", 3)
