"""Each per-act quantity is computed once: the congruence lattice and
the subacts once per act, and in the suite what the act's transformation
set {rho_s} fixes (the endomorphisms, their settle indices, End(A)'s
commutativity, the property report with its factor acts) once per set,
by the first corpus act that has it; no End(A) table is built or kept,
and the suite analyses only the corpus acts.  `monact classify`
computes each once.
Calls are counted by wrappers bound in every namespace of the package
that holds the original function.  Congruence
enumeration makes a bounded number of closures, and act enumeration
and sampling never re-validate the tables they build."""

import contextlib
import io
import random
from collections import Counter
from functools import cached_property

import pytest

import monact
from monact import act, cli, congruence, deciders, endo, harness, monoid, textio
from monact.act import Act, regular_act, validate_act
from monact.deciders import ActAnalysis, _per_transformation_set
from monact.endo import homomorphisms
from monact.harness import (
    ALL_THEOREMS, CorpusSpec, build_corpus, enumerate_acts, enumerate_monoids, random_acts,
    run_suite,
)
from monact.monoid import Monoid, validate_monoid
from oracles import end_monoid, quasi_projective_oracle

MODULES = (monact, act, cli, congruence, deciders, endo, harness, monoid, textio)


def _key(A):
    return (A.monoid.table, A.action)


def _firsts(acts):
    """The key of the first act, in corpus order, with each transformation
    set: the act whose analysis computes what that set fixes."""
    firsts = {}
    for A in acts:
        firsts.setdefault((A.size, frozenset(zip(*A.action))), _key(A))
    return list(firsts.values())


def _bind_everywhere(monkeypatch, original, replacement):
    for ns in MODULES:
        for attr, value in list(vars(ns).items()):
            if value is original:
                monkeypatch.setattr(ns, attr, replacement)


@pytest.fixture
def count(monkeypatch):
    """count(module, name, key) wraps module.name everywhere it is bound;
    the returned Counter tallies key(*args) over the calls."""

    def install(module, name, key):
        original = getattr(module, name)
        seen = Counter()

        def wrapper(*args, **kwargs):
            seen[key(*args)] += 1
            return original(*args, **kwargs)

        _bind_everywhere(monkeypatch, original, wrapper)
        return seen

    return install


@pytest.fixture
def count_end(monkeypatch):
    """Tallies the computations of `ActAnalysis.end_commutative` by the
    act whose analysis makes them."""
    seen = Counter()
    compute = ActAnalysis.end_commutative.func.__wrapped__

    def counting(an):
        seen[_key(an.act)] += 1
        return compute(an)

    prop = _per_transformation_set(counting)
    prop.__set_name__(ActAnalysis, "end_commutative")
    monkeypatch.setattr(ActAnalysis, "end_commutative", prop)
    return seen


def test_suite_builds_each_per_act_quantity_once(count, count_end, monkeypatch):
    """The suite analyses each corpus act once and nothing else: the
    Hopfian-type flags of factor acts, subacts and Rees quotients are
    constants on finite carriers, so none of them is analysed, and no
    endomorphism search runs on them.  The report and the endomorphism
    search run once per transformation set, 53 of the 142 acts, and so
    does End(A)'s commutativity; the congruences and subacts, once per
    act."""
    spec = CorpusSpec()
    corpus = build_corpus(spec)
    acts = {_key(A) for per in corpus.acts for A in per}
    firsts = Counter(_firsts(A for per in corpus.acts for A in per))
    others = set()
    for A in (A for per in corpus.acts for A in per):
        an = ActAnalysis(A)
        factor = act.quotient_by_congruence
        others |= {_key(factor(A, rho)[0]) for rho in an.congruences}
        others |= {_key(act.subact_as_act(B)[0]) for B in an.subacts}
        others |= {_key(factor(A, congruence.rees_congruence(A, B))[0]) for B in an.subacts}
    analysed = Counter()
    init = ActAnalysis.__init__

    def counting_init(self, A):
        analysed[_key(A)] += 1
        init(self, A)

    monkeypatch.setattr(ActAnalysis, "__init__", counting_init)
    reports = count(deciders, "classify_act", lambda an: _key(an.act))
    homs = count(endo, "homomorphisms", lambda A, B, *rest: (_key(A), _key(B)))
    congs = count(congruence, "enumerate_congruences", lambda A, *rest: _key(A))
    subs = count(act, "enumerate_subacts", _key)
    result = run_suite(spec)
    assert all(v.passed for v in result.verdicts)
    # factor acts, subacts and Rees quotients with tables outside the
    # corpus exist ...
    assert len(others - acts) == 15
    # ... and none of them is analysed or searched
    assert analysed == Counter(acts)
    assert reports == firsts and len(firsts) == 53
    assert Counter({a: n for (a, b), n in homs.items() if a == b}) == firsts
    assert count_end == firsts
    assert congs == Counter(acts)
    assert subs == Counter(acts)


def test_larger_suite_reports_once_per_transformation_set(count, count_end):
    """4/4: 1205 acts with 186 transformation sets; the report and
    End(A)'s commutativity are computed once per set."""
    spec = CorpusSpec(max_monoid_size=4)
    acts = [A for per in build_corpus(spec).acts for A in per]
    reports = count(deciders, "classify_act", lambda an: _key(an.act))
    result = run_suite(spec)
    assert all(v.passed for v in result.verdicts)
    assert len(acts) == 1205
    assert reports == Counter(_firsts(acts)) and sum(reports.values()) == 186
    assert count_end == reports


def _searches(count, theorems, **sizes):
    """The hom searches of a run, as a Counter over (source, target)."""
    homs = count(endo, "homomorphisms", lambda A, B, *rest: (_key(A), _key(B)))
    result = run_suite(CorpusSpec(theorems=theorems, **sizes))
    assert all(v.passed for v in result.verdicts)
    return Counter(homs), result


def test_t7_searches_no_pair_of_one_size(count):
    """T7 reads retract forms off each analysis, so a T7-only run makes
    the searches of the property reports alone, which T1 reads: the 53
    endomorphism searches, one per transformation set, and the searches
    out of subacts and into factor acts, 486 in all."""
    homs, _ = _searches(count, ("T7",))
    assert homs == _searches(count, ("T1",))[0]
    assert sum(a == b for a, b in homs) == 53
    assert sum(homs.values()) == 486


@pytest.mark.parametrize("sizes, searches", [({}, 486), ({"max_monoid_size": 4}, 1610)],
                         ids=["default", "4-4"])
def test_suite_hom_searches_are_the_reports(count, sizes, searches):
    """A whole pass makes the property reports' searches and no more:
    2083 and 29 894 while T7 and T8 read the hom lists between two
    acts."""
    homs, _ = _searches(count, ALL_THEOREMS, **sizes)
    assert sum(homs.values()) == searches


def test_t7_and_t8_ask_no_analysis_for_homs_into_a_larger_act(count):
    """T7 and T8 read canonical forms, so a T7+T8 run searches the homs
    between two distinct acts only where the property reports do, out
    of subacts and into factor acts, 433 of the 486 searches, while both
    theorems have non-vacuous instances."""
    searched, result = _searches(count, ("T7", "T8"))
    assert sum(n for (a, b), n in searched.items() if a != b) == 486 - 53
    assert searched == _searches(count, ("T1",))[0]
    assert [v.nonvacuous for v in result.verdicts] == [352, 549]


def test_classify_builds_end_once(count, count_end, tmp_path):
    path = tmp_path / "a.act"
    path.write_text("monoid M 2\n0 1\n1 1\n\nact A over M 3\n0 1\n1 1\n2 1\n")
    homs = count(endo, "homomorphisms", lambda A, B, *rest: (_key(A), _key(B)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", str(path), "--act", "A", "--json"]) == 0
    assert list(count_end.values()) == [1]
    (A,) = count_end
    assert homs[(A, A)] == 1


def test_searches_share_one_generating_set(count):
    A, B = build_corpus(CorpusSpec(max_monoid_size=2, max_act_size=3)).acts[1][-2:]
    gens = count(act, "minimal_generating_set", _key)
    homomorphisms(A, A)
    homomorphisms(A, B)
    assert gens == Counter({_key(A): 1})


@pytest.fixture
def count_profiles(count, monkeypatch):
    """Tallies `settle_index` calls by (act, byte map).  The act is the
    one whose `ActAnalysis.profiles` is being listed; outside a listing
    it is the regular act the harness built last, whose left
    translations T6 walks."""
    current = [None]
    listing = ActAnalysis.profiles.func

    def profiles(self):
        outer, current[0] = current[0], self.act
        try:
            return listing(self)
        finally:
            current[0] = outer

    def regular(M):
        current[0] = regular_act(M)
        return current[0]

    prop = cached_property(profiles)
    prop.__set_name__(ActAnalysis, "profiles")
    monkeypatch.setattr(ActAnalysis, "profiles", prop)
    monkeypatch.setattr(harness, "regular_act", regular)
    return count(deciders, "settle_index", lambda m: (current[0], bytes(m)))


def test_suite_profiles_each_endomorphism_once(count_profiles):
    """The first corpus act with each transformation set walks each of
    its endomorphisms once, for every act with that set, and T6 walks
    each left translation of each monoid's regular act once more,
    without analysing the regular act."""
    spec = CorpusSpec(max_monoid_size=2, max_act_size=3)
    corpus = build_corpus(spec)
    acts = [A for per in corpus.acts for A in per]
    firsts = set(_firsts(acts))
    acts = [A for A in acts if _key(A) in firsts]
    assert len(acts) == 8
    result = run_suite(spec)
    assert all(v.passed for v in result.verdicts)
    expected = Counter((A, bytes(f)) for A in acts for f in homomorphisms(A, A))
    expected.update((regular_act(M), bytes(row)) for M in corpus.monoids for row in M.table)
    assert count_profiles == expected


def test_classify_profiles_each_endomorphism_once(count_profiles, tmp_path):
    path = tmp_path / "a.act"
    path.write_text("monoid M 2\n0 1\n1 1\n\nact A over M 3\n0 1\n1 1\n2 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["classify", str(path), "--act", "A", "--json"]) == 0
    (A,) = {a for a, _ in count_profiles}
    assert A == validate_act(validate_monoid(2, [[0, 1], [1, 1]]), 3, [[0, 1], [1, 1], [2, 1]])
    endos = homomorphisms(A, A)
    assert len(endos) > 1
    assert count_profiles == Counter((A, bytes(f)) for f in endos)


def test_suite_decides_each_lift_flag_once(count):
    """Quasi-projectivity runs one lift search per (transformation set,
    rho), on the first act with the set, and T8 none; the
    counterexample of an act that is not quasi-projective is the hom
    found by the search at its first failing rho."""
    spec = CorpusSpec()
    acts = [A for per in build_corpus(spec).acts for A in per]
    firsts, failing = set(_firsts(acts)), set()
    for A in (A for A in acts if _key(A) in firsts):
        flag, counterexample = quasi_projective_oracle(A)
        if not flag:
            failing.add((_key(A), counterexample[0].labels))
    checks = count(deciders, "_unlifted_hom", lambda an, rho: (_key(an.act), rho.labels))
    result = run_suite(spec)
    assert all(v.passed for v in result.verdicts)
    assert len(failing) == 18
    assert failing <= checks.keys()
    assert {a for a, _ in checks} <= firsts
    assert set(checks.values()) == {1} and len(checks) == 223


def test_suite_builds_each_factor_act_once(count):
    """Only the quasi-projectivity lift checks build factor acts: one per
    (transformation set, rho) past the diagonal, on the first act with
    the set, up to the first rho with an unlifted hom.  T9, T13 and T14
    hand their factor acts to `harness.flag` unbuilt, the default `flag`
    does not build them, and T8 composes with the surjections
    themselves."""
    expected = set()
    acts = [A for per in build_corpus(CorpusSpec()).acts for A in per]
    firsts = set(_firsts(acts))
    for A in (A for A in acts if _key(A) in firsts):
        labels = [rho.labels for rho in congruence.enumerate_congruences(A)[1:]]
        flag, counterexample = quasi_projective_oracle(A)
        stop = len(labels) if flag else labels.index(counterexample[0].labels) + 1
        expected |= {(_key(A), rho) for rho in labels[:stop]}
    quotients = count(act, "quotient_by_congruence", lambda A, rho: (_key(A), rho.labels))
    result = run_suite(CorpusSpec())
    assert all(v.passed for v in result.verdicts)
    assert quotients.keys() == expected and len(expected) == 223
    assert set(quotients.values()) == {1}


def test_flag_reads_build_no_act(count):
    """T9, T13 and T14 build no subact act, Rees congruence or factor act
    beyond those the property reports build."""
    built = [count(act, "subact_as_act", lambda *args: "calls"),
             count(act, "quotient_by_congruence", lambda *args: "calls"),
             count(congruence, "rees_congruence", lambda *args: "calls")]

    def run(theorems):
        for c in built:
            c.clear()
        run_suite(CorpusSpec(max_monoid_size=2, max_act_size=4, theorems=theorems))
        return [c["calls"] for c in built]

    reports_only = run(("T1",))
    assert reports_only[0] and reports_only[1] and not reports_only[2]
    assert run(("T9", "T13", "T14")) == reports_only


def _reachable(root, leaves=()):
    """Every object reachable from root through containers and the
    attributes of instances, not entering instances of `leaves`."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, str, int, bool, float, *leaves)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
    return seen.values()


def _square_tables(root, n):
    """The n x n tables of ints reachable from root, outside acts and
    monoids: n rows, each a tuple or list of n ints."""
    def is_row(x):
        return isinstance(x, (tuple, list)) and len(x) == n and all(type(v) is int for v in x)

    return [x for x in _reachable(root, leaves=(Act, Monoid))
            if isinstance(x, (tuple, list)) and len(x) == n and all(map(is_row, x))]


def test_classify_keeps_no_end_monoid():
    acts = [A for per in build_corpus(CorpusSpec(max_monoid_size=2, max_act_size=3)).acts
            for A in per]
    checked = 0
    for A in acts:
        an = ActAnalysis(A)
        an.report
        assert an.endos and an.profiles
        n = len(an.endos)
        if n == 1:
            continue
        checked += 1
        assert not _square_tables(vars(an), n), A
        # a table kept on the analysis would be seen
        table = end_monoid(A).monoid.table
        an.memo["planted"] = table
        assert table in _square_tables(vars(an), n)
    assert checked == 11


def test_enumeration_closures_bounded_by_principal_joins(count):
    """n(n-1)/2 closures find the principal congruences, then each
    congruence found is joined with each of the p distinct ones at most
    once: exactly n(n-1)/2 calls of the closure kernel and at most p|L|
    of the partition join, which pushes nothing through the action."""
    trivial = validate_monoid(1, [[0]])
    acts = [A for per in build_corpus(CorpusSpec(max_monoid_size=2, max_act_size=4)).acts
            for A in per]
    acts.append(validate_act(trivial, 7, [[a] for a in range(7)]))
    closes = count(congruence, "_close", lambda *args: "calls")
    merges = count(congruence, "_merge", lambda *args: "calls")
    for A in acts:
        n = A.size
        p = len({congruence.congruence_closure(A, [(a, b)]).classes
                 for a in range(n) for b in range(a + 1, n)})
        closes.clear()
        merges.clear()
        lattice = congruence.enumerate_congruences(A)
        assert closes["calls"] == n * (n - 1) // 2
        assert merges["calls"] <= p * len(lattice)
    # the 7-point act: all Bell(7) = 877 partitions, each past the
    # diagonal reached by a join
    assert len(lattice) == 877 and merges["calls"] >= 876


def test_act_enumeration_and_sampling_never_validate(monkeypatch):
    def refuse(*args):
        raise AssertionError("validate_act called on a built table")

    _bind_everywhere(monkeypatch, validate_act, refuse)
    rng = random.Random(7)
    acts = 0
    for n in (1, 2, 3):
        for M in enumerate_monoids(n):
            for m in (1, 2, 3, 4):
                acts += len(enumerate_acts(M, m))
            acts += len(random_acts(M, 5, 2, rng))
    assert acts == 142 + 12
