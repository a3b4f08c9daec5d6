"""The label-tuple congruence operations against class-based oracles.

A congruence is stored as least-member labels; `meet`, `join`,
`kernel_congruence` and `image_congruence` work on that form.  Here every pair of congruences of every act of the
default corpus, found by the partition filter in `oracles`, is checked
against the partition computations there, with the oracles' input
partitions read off the labels by `oracles.fibers`, independently of
`Congruence.classes`.  The join's oracle is itself a partition join,
so that every join is a congruence (the congruences are a sublattice
of the partitions) is checked on its own, against the action.  The
planted bugs show which check catches which fault.
"""

import sys

from monact import congruence as congruence_module
from monact.endo import homomorphisms
from monact.harness import CorpusSpec, build_corpus, run_suite

from oracles import (
    brute_force_congruences,
    chain_join_oracle,
    fibers,
    image_classes,
    is_compatible_partition,
    meet_oracle,
)


def corpus_acts(max_monoid, max_act):
    return [A for per in build_corpus(CorpusSpec(max_monoid, max_act)).acts for A in per]


def label_op_mismatches(acts):
    """Every place where a label operation differs from its oracle, as
    (act, what, got, expected).  The congruences come from the partition
    filter through the checked `congruence` constructor, not from the
    enumeration, so a fault shared by the enumeration and an operation
    still shows.  The operations are looked up on the module at call
    time, so a planted replacement is what runs."""
    cm = congruence_module
    bad = []
    for A in acts:
        congs = [cm.congruence(A, classes) for classes in brute_force_congruences(A)]
        parts = [fibers(c.labels) for c in congs]
        for c, part in zip(congs, parts):
            if c.classes != part:
                bad.append((A, "classes", c.classes, part))
        for rho, rp in zip(congs, parts):
            for sigma, sp in zip(congs, parts):
                checks = (
                    ("meet", cm.meet(rho, sigma).classes, meet_oracle(rp, sp)),
                    ("join", cm.join(rho, sigma).classes, chain_join_oracle(A.size, rp, sp)),
                )
                bad.extend((A, what, got, want) for what, got, want in checks if got != want)
        for f in homomorphisms(A, A):
            checks = (
                ("kernel", cm.kernel_congruence(f).classes, fibers(f.mapping)),
                ("image", cm.image_congruence(f).classes, image_classes(f.mapping)),
            )
            bad.extend((A, what, got, want) for what, got, want in checks if got != want)
    return bad


def join_incompatibilities(acts):
    """(pairs checked, the joins that split a class under the action)
    over every ordered pair of congruences of each act."""
    cm = congruence_module
    pairs, bad = 0, []
    for A in acts:
        congs = cm.enumerate_congruences(A)
        for rho in congs:
            for sigma in congs:
                pairs += 1
                joined = cm.join(rho, sigma)
                if not is_compatible_partition(A, fibers(joined.labels)):
                    bad.append((A, rho, sigma, joined))
    return pairs, bad


def enumeration_mismatches(acts):
    """The acts whose enumerated lattice differs from the partition filter."""
    return [
        A for A in acts
        if sorted(c.classes for c in congruence_module.enumerate_congruences(A))
        != brute_force_congruences(A)
    ]


def test_label_ops_match_oracles_on_default_corpus():
    acts = corpus_acts(3, 4)
    assert len(acts) == 142
    assert label_op_mismatches(acts) == []


def test_joins_are_congruences_on_default_corpus():
    assert join_incompatibilities(corpus_acts(3, 4)) == (9093, [])


# -- planted bugs ------------------------------------------------------------

def _plant(monkeypatch, module, name, fake):
    """Rebind module.name to `fake` in every monact namespace holding it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "monact":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, fake)


def _failed_theorems(max_monoid=2, max_act=3):
    result = run_suite(CorpusSpec(max_monoid, max_act))
    return {v.theorem for v in result.verdicts if not v.passed}


def test_planted_meet_returning_rho_is_caught(monkeypatch):
    # planted in the label kernel that `meet` and criterion 3 share
    _plant(monkeypatch, congruence_module, "_meet_labels", lambda rho, sigma: rho)
    bad = label_op_mismatches(corpus_acts(2, 3))
    assert {what for _, what, _, _ in bad} == {"meet"}
    # criterion 3 of the strongly Hopfian property reads the meet
    assert _failed_theorems() == {"T4"}


def test_planted_dropped_last_class_is_caught(monkeypatch):
    from monact import relation

    labels_to_classes = relation.label_classes
    _plant(monkeypatch, relation, "label_classes", lambda labels: labels_to_classes(labels)[:-1])
    acts = corpus_acts(2, 3)
    bad = label_op_mismatches(acts)
    assert {"classes", "meet", "join", "kernel", "image"} <= {what for _, what, _, _ in bad}
    # the partition filter sees the enumeration lose a class
    assert enumeration_mismatches(acts)


def test_planted_merge_dropping_last_pair_is_caught(monkeypatch):
    merge = congruence_module._merge
    _plant(monkeypatch, congruence_module, "_merge",
           lambda labels, pairs: merge(labels, list(pairs)[:-1]))
    acts = corpus_acts(2, 4)
    bad = label_op_mismatches(acts)
    assert {what for _, what, _, _ in bad} == {"join"}
    assert enumeration_mismatches(acts)
    assert join_incompatibilities(acts)[1]


def test_planted_principal_congruence_without_closure_is_caught(monkeypatch):
    # Cg(a, b) taken as the bare partition {a, b}: the seed is merged
    # but never pushed through the action
    merge = congruence_module._merge
    _plant(monkeypatch, congruence_module, "_close",
           lambda A, labels, pairs: merge(labels, pairs)[0])
    acts = corpus_acts(2, 4)
    # the label-op oracle misses it: meet and join of partitions agree
    # with their oracles whether or not they are congruences
    assert enumeration_mismatches(acts)
    assert join_incompatibilities(acts)[1]
