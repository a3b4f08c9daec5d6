"""Compositions on byte maps.  An analysis keeps each endomorphism's map
as `bytes` and composes by `bytes.translate` (a fixed left factor) or an
`itemgetter` gather (a fixed right factor).  End(A)'s commutativity is
compared with the table oracle `oracles.end_monoid`, and the lift sets
and the T8 liftable sets with a tuple-composition oracle built on
`oracles.compose_maps`, and so are the retractions and sections read
off the kernels that idempotents split.  The
End(A) table scan `oracles.is_strongly_pi_regular` backs the report's
constant strong pi-regularity flag, and the literal loops
`oracles.is_hopfian` and `oracles.is_co_hopfian` back the constant
Hopfian and co-Hopfian flags, and a recording `harness.flag` checks that
the suite still names every act those flags are read on."""

import hashlib
import random
from collections import Counter

import pytest

from monact import deciders, harness
from monact.act import quotient_by_congruence, regular_act, subact_as_act
from monact.congruence import rees_congruence
from monact.deciders import ActAnalysis, _unlifted_hom, classify_act, is_quasi_projective
from monact.cli import suite_json
from monact.endo import homomorphisms, induces_all_endomorphisms
from monact.errors import SizeTooLarge
from monact.harness import (
    CO, H, SCH, SH, CorpusSpec, SuiteContext, build_corpus, enumerate_monoids, random_acts,
)
from monact.monoid import zmod_mult_monoid
from monact.relation import least_labels
from oracles import (
    act_hom,
    compose_maps,
    end_monoid,
    hom_maps,
    induces_oracle,
    is_co_hopfian,
    is_commutative,
    is_fully_invariant,
    is_hopfian,
    is_strongly_pi_regular,
    quasi_projective_oracle,
    retract_oracle,
    retraction_oracle,
    section_oracle,
    t8_oracle,
    unlifted_hom_oracle,
)

SMALL = CorpusSpec(max_monoid_size=2, max_act_size=3)


def _acts(spec):
    return [A for per in build_corpus(spec).acts for A in per]


def _key(A):
    return (A.monoid.table, A.action)


def _five_point_acts():
    """Seeded 5-point acts over the monoids of size 2 and 3."""
    rng = random.Random(55)
    return [A for n in (2, 3) for M in enumerate_monoids(n) for A in random_acts(M, 5, 1, rng)]


def _pairs(kind, spec):
    ctx, corpus = SuiteContext(), build_corpus(spec)
    return ctx, [p for M, per in zip(corpus.monoids, corpus.acts)
                 for p in harness._instances_for(kind, M, per, ctx)]


def test_maps_are_the_endomorphisms_as_bytes():
    # every hom list of an analysis, the endomorphisms among them, is the
    # search's list of map tuples as bytes, in the same order
    corpus, pairs = build_corpus(SMALL), 0
    for per in corpus.acts:
        for A in per:
            an = ActAnalysis(A)
            for B in per:
                assert hom_maps(an, B) == [bytes(m) for m in homomorphisms(A, B)], (A, B)
                pairs += 1
            assert an.endos is hom_maps(an, A)
    assert pairs == sum(len(per) ** 2 for per in corpus.acts) > 0


def test_end_table_matches_compose_oracle():
    # the analysis reads End(A)'s size and commutativity off byte maps;
    # the oracle builds the table one tuple composition at a time
    acts = _acts(CorpusSpec()) + _five_point_acts()
    sizes, commutative = [], 0
    for A in acts:
        an, E = ActAnalysis(A), end_monoid(A)
        assert (len(an.endos), an.end_commutative) == (E.monoid.size, is_commutative(E)), A
        sizes.append(E.monoid.size)
        commutative += an.end_commutative
    assert len(acts) == 142 + 4
    assert max(sizes) == 320
    assert commutative == 34


def test_table_oracle_finds_a_pi_witness_for_every_endomorphism():
    # Drazin: f^c = g o f^(c+1) = f^(c+1) o g for g = f^(p-1), so
    # classify_act reports End(A) strongly pi-regular without a search
    acts = _acts(CorpusSpec()) + _five_point_acts()
    checked = 0
    for A in acts:
        an = ActAnalysis(A)
        ok, witnesses = is_strongly_pi_regular(end_monoid(A, an.endos))
        assert ok and None not in witnesses, A
        assert classify_act(an).end_strongly_pi_regular, A
        checked += len(witnesses)
    assert len(acts) == 142 + 4
    assert checked == 4451 + 524


def test_literal_hopfian_loops_hold_where_the_flags_are_constant():
    # pigeonhole: a self-map of a finite set is surjective iff injective,
    # so the report and the suite read both flags as True without a check
    acts = _acts(CorpusSpec())
    five = _five_point_acts()
    factors, subacts = [], []
    for A in acts:
        an = ActAnalysis(A)
        factors += [quotient_by_congruence(A, rho)[0] for rho in an.congruences]
        subacts += [subact_as_act(B)[0] for B in an.subacts]
    for A in acts + five + factors + subacts:
        assert is_hopfian(A) and is_co_hopfian(A), A
    assert len(five) == 4
    assert len(factors) == 957
    assert len(subacts) == 853


def test_lift_sets_match_compose_oracle():
    checked = 0
    for A in _acts(CorpusSpec()):
        an = ActAnalysis(A)
        for rho in an.congruences[1:]:
            assert _unlifted_hom(an, rho) == unlifted_hom_oracle(A, rho), (A, rho)
            checked += 1
    assert checked == 957 - 142


def test_t8_liftable_sets_match_compose_oracle():
    ctx, pairs = _pairs("act_pair_down", CorpusSpec())
    outcomes = set()
    for A, B in pairs:
        an_a, an_b = ctx.analysis(A), ctx.analysis(B)
        for h in hom_maps(an_a, B):
            if len(set(h)) == B.size:
                got = induces_all_endomorphisms(h, an_a.endos, an_b.endos)[0]
                assert got == induces_oracle(h, an_a.endos, an_b.endos), (A, B, h)
                outcomes.add(got)
    assert outcomes == {True, False}


def _split_pairs(kind):
    """A context and the `kind` pairs of 3/4 and 2/5, each pair once,
    then each seeded 5-point act paired with every 3/4 act over its
    monoid, the larger act second for act_pair_up and first for
    act_pair_down."""
    ctx, pairs = SuiteContext(), {}
    for spec in (CorpusSpec(), CorpusSpec(max_monoid_size=2, max_act_size=5)):
        for A, B in _pairs(kind, spec)[1]:
            pairs[_key(A), _key(B)] = A, B
    acts = _acts(CorpusSpec())
    for F in _five_point_acts():
        for A in (A for A in acts if A.monoid == F.monoid):
            pairs[_key(A), _key(F)] = (A, F) if kind == "act_pair_up" else (F, A)
    return ctx, list(pairs.values())


def test_retracts_match_compose_oracle():
    # A is a retract of B iff some surjection pi: B -> A has a kernel
    # split by an idempotent e of End(B), and then gamma(pi(b)) = e(b);
    # the oracle searches the homs both ways for pi o gamma = id
    ctx, pairs = _split_pairs("act_pair_up")
    found = 0
    for A, B in pairs:
        got = retraction_oracle(ctx.analysis(B), A)
        want = retract_oracle(homomorphisms(A, B), homomorphisms(B, A))
        assert (got is None) == (want is None), (A, B)
        if got is not None:
            gamma, pi = got
            assert act_hom(A, B, gamma) and compose_maps(pi, gamma) == tuple(range(A.size))
            found += A.size < B.size
    # 3/4 alone: 352 proper retracts among 753 pairs with |A| < |B|;
    # 2/5 alone: 105 among 175
    assert (len(pairs), found) == (1957, 432)


def test_sections_match_compose_oracle():
    # a surjection h: A -> B has a section s iff an idempotent of End(A)
    # has h's kernel; the oracle searches the homs B -> A for h o s = id
    ctx, pairs = _split_pairs("act_pair_down")
    outcomes = Counter()
    for A, B in pairs:
        split, back = ctx.analysis(A).split_kernels, homomorphisms(B, A)
        for h in hom_maps(ctx.analysis(A), B):
            if len(set(h)) == B.size:
                got = least_labels(h) in split
                assert got == section_oracle(h, back), (A, B, h)
                outcomes[got] += 1
    # 3/4 alone: 1830 of 1987 surjections split; 2/5 alone: 2492 of 2592
    assert outcomes == {True: 4103, False: 328}


def test_planted_split_kernels_of_every_endomorphism_is_caught(monkeypatch):
    # every endomorphism's kernel reads as split, idempotent or not: the
    # default digest moves, with more proper retracts and sections
    def every_kernel(an):
        return {least_labels(e): e for e in reversed(an.endos)}

    monkeypatch.setattr(ActAnalysis, "split_kernels", property(every_kernel))
    result = harness.run_suite(CorpusSpec())
    digest = hashlib.sha256(suite_json(result).encode()).hexdigest()[:12]
    by_id = {v.theorem: v for v in result.verdicts}
    assert (digest, by_id["T7"].nonvacuous, by_id["T8"].details["with_section"]) == (
        "e38af2394481", 357, 1841)
    # the section oracle sees it on a 3/4 pair
    ctx, pairs = _pairs("act_pair_down", CorpusSpec())
    assert any(
        (least_labels(h) in ctx.analysis(A).split_kernels)
        != section_oracle(h, homomorphisms(B, A))
        for A, B in pairs for h in hom_maps(ctx.analysis(A), B) if len(set(h)) == B.size)


def test_analysis_refuses_carriers_past_the_byte_maps():
    an = ActAnalysis(regular_act(zmod_mult_monoid(255)))
    assert len(an.endos) == 255
    with pytest.raises(SizeTooLarge, match="act analysis: carrier size 256"):
        ActAnalysis(regular_act(zmod_mult_monoid(256)))


def test_suite_keeps_one_act_per_factor_table(monkeypatch):
    """Each monoid's context holds one analysis per factor table, and
    that analysis reads an act equal to every factor with the table."""
    made = []

    class Recording(SuiteContext):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(harness, "SuiteContext", Recording)
    result = harness.run_suite(CorpusSpec())
    assert all(v.passed for v in result.verdicts)
    # one context per monoid, made in corpus order
    assert len(made) == len(result.corpus.monoids)
    factors = []
    for ctx, per in zip(made, result.corpus.acts):
        for A in per:
            an = ctx.analysis(A)
            factors.extend((ctx, quotient_by_congruence(A, rho)[0]) for rho in an.congruences)
    tables = {(Q.monoid.table, Q.action) for _, Q in factors}
    assert len(factors) == 957
    assert len({id(ctx.analysis(Q)) for ctx, Q in factors}) == len(tables) == 156
    assert all(ctx.analysis(Q).act == Q for ctx, Q in factors)


def test_flag_reads_hand_over_subacts_and_factor_acts(monkeypatch):
    """A replaced `harness.flag` sees every act the theorems name: T9
    hands over B as an act and then A/B for each fully invariant B, and
    each flag read of T13 and T14 every factor act of A, 957 at 3/4."""
    reads = []

    def recording(name, acts):
        reads.append((name, [_key(Q) for Q in acts]))
        return True

    monkeypatch.setattr(harness, "flag", recording)
    t9, t13, t14 = [], [], []
    for A in _acts(CorpusSpec()):
        an = ActAnalysis(A)
        factors = [quotient_by_congruence(A, rho)[0] for rho in an.congruences]
        t13 += [(name, [_key(Q) for Q in factors]) for name in (CO, SCH)]
        t14 += [(name, [_key(Q) for Q in factors]) for name in (H, CO, SH, SCH)]
        for B in an.subacts:
            if is_fully_invariant(B, an.endos):
                rees = quotient_by_congruence(A, rees_congruence(A, B))[0]
                t9.append((SH, [_key(subact_as_act(B)[0]), _key(rees)]))
            t9.append((SH, [_key(A)]))
    assert len(t9) - 853 == 268 and sum(len(acts) for _, acts in t13) == 2 * 957
    for tid, expected in (("T9", t9), ("T13", t13), ("T14", t14)):
        reads.clear()
        harness.run_suite(CorpusSpec(theorems=(tid,)))
        assert reads == expected, tid


def test_planted_shifted_projection_is_caught(monkeypatch):
    # p_rho's rename table built from its map rotated by one point
    real = deciders.quotient_by_congruence

    def shifted(A, rho):
        Q, proj = real(A, rho)
        return Q, proj[1:] + proj[:1]

    monkeypatch.setattr(deciders, "quotient_by_congruence", shifted)
    acts = _acts(CorpusSpec())
    assert any(is_quasi_projective(A) != quasi_projective_oracle(A) for A in acts)
    # T8 composes with the surjections themselves, never with p_rho
    ctx, pairs = _pairs("act_pair_down", CorpusSpec())
    assert all(harness._check_t8(ctx, p) == t8_oracle(ctx, p) for p in pairs)
