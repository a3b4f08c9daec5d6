"""Quasi-projectivity searches each congruence for a hom that does not
lift (`deciders._unlifted_hom`), and T8 decides once per kernel whether
a surjection induces all of End(B) (`endo.induces_all_endomorphisms`).
Both are compared with the per-congruence and per-surjection
computations kept in `oracles`, which build whole-map sets, and every
counterexample is re-checked by brute force."""

from functools import cached_property

import pytest

from monact import deciders, harness
from monact.act import quotient_by_congruence
from monact.deciders import ActAnalysis, is_quasi_projective
from monact.harness import CorpusSpec, SuiteContext, build_corpus
from oracles import brute_force_homs, quasi_projective_oracle, t8_oracle

SMALL = CorpusSpec(max_monoid_size=2, max_act_size=3)
SPECS = [SMALL, CorpusSpec()]


def _acts(spec):
    return [A for per in build_corpus(spec).acts for A in per]


def _t8_results(spec):
    """(check, oracle) results on every act_pair_down pair of the corpus."""
    corpus, results = build_corpus(spec), []
    for M, per in zip(corpus.monoids, corpus.acts):
        ctx = SuiteContext()
        pairs = harness._instances_for("act_pair_down", M, per, ctx)
        results += [(harness._check_t8(ctx, p), t8_oracle(ctx, p)) for p in pairs]
    return results


@pytest.mark.parametrize("spec", SPECS, ids=["2-3", "default"])
def test_t8_matches_per_surjection_oracle(spec):
    results = _t8_results(spec)
    assert [got for got, want in results if got != want] == []
    assert any(got[0] and got[3]["with_section"] for got, _ in results)


@pytest.mark.parametrize("spec", SPECS, ids=["2-3", "default"])
def test_t8_witness_path_matches_oracle(forced_flags, spec):
    # every act of size 2 reads as not strongly co-Hopfian, so each pair
    # (A, B) with |A| > 2 = |B| and an induced surjection fails with a witness
    forced_flags({"is_strongly_co_hopfian": lambda A: A.size != 2})
    results = _t8_results(spec)
    assert [got for got, want in results if got != want] == []
    assert any(got[2] is not None for got, _ in results)


def test_quasi_projective_matches_oracle():
    acts = _acts(CorpusSpec())
    verdicts = [is_quasi_projective(A) for A in acts]
    assert verdicts == [quasi_projective_oracle(A) for A in acts]
    assert sum(not flag for flag, _ in verdicts) == 20


def test_quasi_projective_counterexamples_fail_to_lift():
    for A in _acts(CorpusSpec()):
        flag, counterexample = is_quasi_projective(A)
        if flag:
            continue
        rho, f = counterexample
        quotient, proj = quotient_by_congruence(A, rho)
        assert f in brute_force_homs(A, quotient)
        for g in brute_force_homs(A, A):
            assert tuple(proj[a] for a in g) != f


def test_planted_lift_flag_forced_true_is_caught(monkeypatch):
    # every hom into a factor act reads as lifted: the quasi-projectivity
    # oracle sees it
    acts = _acts(SMALL)
    X = next(A for A in acts if not quasi_projective_oracle(A)[0])
    monkeypatch.setattr(deciders, "_unlifted_hom", lambda an, rho: None)
    assert is_quasi_projective(X) != quasi_projective_oracle(X)
    # a surjection induces all of End(B) exactly when the check says it
    # does not: the per-surjection oracle sees it
    real = harness.induces_all_endomorphisms
    monkeypatch.setattr(harness, "induces_all_endomorphisms",
                        lambda *args: (not real(*args)[0], None))
    assert any(got != want for got, want in _t8_results(SMALL))


def test_planted_kernel_of_previous_surjection_is_caught(monkeypatch):
    # each entry of the T8 index carries the kernel labels of the entry
    # before it under the same factor form (its own for the first), so a
    # surjection's section is looked up under another kernel
    real = ActAnalysis.quotients.func

    def lagged(an):
        return {form: [(entries[max(i - 1, 0)][0], q) for i, (_, q) in enumerate(entries)]
                for form, entries in real(an).items()}

    planted = cached_property(lagged)
    planted.__set_name__(ActAnalysis, "quotients")
    monkeypatch.setattr(ActAnalysis, "quotients", planted)
    assert any(got != want for got, want in _t8_results(CorpusSpec()))
