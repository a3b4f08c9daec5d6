"""Exhaustive corpus generation and theorem checking.

Small monoids and acts are enumerated up to isomorphism (canonical form
= minimal table under carrier relabelings, identity pinned at 0).
Monoid tables come from a backtrack over the non-identity cells that
drops a partial table at its first failed associativity instance.  Acts
come from a propagating backtrack over the generator cells of the
action table, which random sampling shares; a complete, conflict-free
table is an action and is not re-validated.  Each isomorphism class is
relabeled once, into a seen set that absorbs its other labelled copies.
Every registered theorem is evaluated as a universally quantified
implication over the corpus, reading one `deciders.ActAnalysis` per
act; each single-act implication is one `_act_check` call.  A failing
instance produces a verdict whose witness carries the full tables,
enough to re-run the check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from math import factorial
from operator import ge, le

from . import deciders
from .act import Act, quotient_by_congruence, regular_act, subact, subact_as_act, validate_act
from .congruence import kernel_congruence, rees_congruence
from .endo import has_section, induces_all_endomorphisms, is_fully_invariant, is_retract_of
from .errors import InputError, SizeTooLarge, UnknownTheorem
from .monoid import Monoid, _relabel_table, monoid_generators, validate_monoid
from .deciders import ActAnalysis, monoid_hopf_properties

MONOID_ENUM_MAX = 4
ACT_ENUM_WORK_CAP = 1 << 21  # search nodes, plus m! per isomorphism class
SAMPLE_ATTEMPTS = 500


# -- canonical forms ---------------------------------------------------------

def monoid_canonical_form(M: Monoid):
    """Minimal table over relabelings that keep the identity at 0."""
    return min(
        _relabel_table(M.table, (0,) + rest) for rest in permutations(range(1, M.size))
    )


def _relabel(action, perm, n):
    """The action table with every carrier element a renamed perm[a]."""
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple(perm[action[old][s]] for s in range(n)) for old in inv)


def _orbit(action, n):
    """Every relabeling of an action table, as a set: the closure of the
    table under a transposition and an m-cycle, which generate all m!
    permutations, so the cost is two relabelings per distinct table."""
    m = len(action)
    moves = ((1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)) if m > 1 else ()
    orbit = {action}
    frontier = [action]
    while frontier:
        table = frontier.pop()
        for perm in moves:
            image = _relabel(table, perm, n)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


# -- enumeration -------------------------------------------------------------

def _monoid_tables(n):
    """Every associative n x n table with identity 0, as a list of rows.

    The (n-1)^2 non-identity cells are filled in row-major order, and a
    partial table is dropped as soon as an instance (s*t)*u = s*(t*u)
    whose four entries are all set fails.  Instances with the identity
    among s, t, u hold by the fixed identity row and column.
    """
    table = [list(range(n))] + [[s] + [-1] * (n - 1) for s in range(1, n)]
    cells = [(s, t) for s in range(1, n) for t in range(1, n)]
    elems = range(1, n)
    found = []

    def consistent():
        for s in elems:
            row_s = table[s]
            for t in elems:
                st = row_s[t]
                if st < 0:
                    continue
                row_t, row_st = table[t], table[st]
                for u in elems:
                    tu = row_t[u]
                    if tu < 0:
                        continue
                    left, right = row_st[u], row_s[tu]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            found.append(tuple(map(tuple, table)))
            return
        s, t = cells[k]
        for v in range(n):
            table[s][t] = v
            if consistent():
                fill(k + 1)
        table[s][t] = -1

    fill(0)
    return found


def enumerate_monoids(n: int):
    """All monoids of size exactly n up to isomorphism, identity at 0,
    in the order of their canonical forms (monoid_canonical_form)."""
    if n > MONOID_ENUM_MAX:
        raise SizeTooLarge(f"monoid enumeration capped at size {MONOID_ENUM_MAX}")
    seen = {monoid_canonical_form(Monoid(n, table)) for table in _monoid_tables(n)}
    return [Monoid(n, t, tuple(range(n))) for t in sorted(seen)]


class _ActSearch:
    """Depth-first search for action tables T[a][s] = a*s over M.

    Only the generator cells (a, g) are branched on.  Each assignment
    T[a][s] = b propagates the act axiom a*(s*t) = (a*s)*t both ways:
    forward, T[a][st] and T[b][t] must agree for every t; backward,
    every cell (c, u) holding the value a needs T[c][us] = b.  Cells are
    flat indices a*n + s; the identity column is filled from the start
    and never propagates, since its instances of the axiom are trivial.
    """

    def __init__(self, M: Monoid, m: int):
        n = M.size
        self.m, self.n, self.mul = m, n, M.table
        self.branch = [a * n + g for a in range(m) for g in monoid_generators(M)]
        self.table = [-1] * (m * n)
        for a in range(m):
            self.table[a * n] = a
        self.holders = [[] for _ in range(m)]  # value b -> cells holding b
        self.trail = []
        self.nodes = 0
        self.relabelings = 0

    def charge(self, nodes=0, relabelings=0):
        """Spend work units; SizeTooLarge once ACT_ENUM_WORK_CAP is passed."""
        self.nodes += nodes
        self.relabelings += relabelings
        if self.nodes + self.relabelings > ACT_ENUM_WORK_CAP:
            raise SizeTooLarge(
                f"act enumeration over {self.m} points exceeded its work budget of "
                f"{ACT_ENUM_WORK_CAP} units: {self.nodes} search nodes and "
                f"{self.relabelings} relabelings charged"
            )

    def assign(self, cell, value) -> bool:
        """Set a cell and everything it forces; False on a conflict, with
        the partial assignments left on the trail for undo."""
        n, mul, table, holders, trail = self.n, self.mul, self.table, self.holders, self.trail
        queue = [(cell, value)]
        while queue:
            cell, b = queue.pop()
            current = table[cell]
            if current >= 0:
                if current != b:
                    return False
                continue
            table[cell] = b
            trail.append(cell)
            holders[b].append(cell)
            a, s = divmod(cell, n)
            base_a, base_b, row_s = a * n, b * n, mul[s]
            for t in range(1, n):
                x = table[base_a + row_s[t]]
                y = table[base_b + t]
                if x != y:
                    if x < 0:
                        queue.append((base_a + row_s[t], y))
                    elif y < 0:
                        queue.append((base_b + t, x))
                    else:
                        return False
            for held in holders[a]:
                c, u = divmod(held, n)
                target = c * n + mul[u][s]
                x = table[target]
                if x < 0:
                    queue.append((target, b))
                elif x != b:
                    return False
        return True

    def undo(self, mark):
        """Clear every cell assigned since the trail had length mark."""
        table, holders, trail = self.table, self.holders, self.trail
        while len(trail) > mark:
            cell = trail.pop()
            holders[table[cell]].pop()
            table[cell] = -1

    def rows(self):
        """The current table as a tuple of rows, one per carrier point."""
        return tuple(zip(*[iter(self.table)] * self.n))

    def tables(self, k=0):
        """Yield every complete labelled action table, one search node
        charged per value tried at a generator cell."""
        branch, table = self.branch, self.table
        while k < len(branch) and table[branch[k]] >= 0:
            k += 1
        if k == len(branch):
            yield self.rows()
            return
        for value in range(self.m):
            self.charge(nodes=1)
            mark = len(self.trail)
            if self.assign(branch[k], value):
                yield from self.tables(k + 1)
            self.undo(mark)


def enumerate_acts(M: Monoid, m: int):
    """All acts of size m over M up to act isomorphism, each by its
    canonical form (the least table over carrier relabelings), in order.

    `_ActSearch` finds every labelled action table.  The first table of
    each isomorphism class pays m! work units, then its whole relabeling
    orbit goes into `seen` and the orbit's minimum is kept as the class
    representative; later tables of the class cost one set lookup.
    Search nodes and relabelings share the ACT_ENUM_WORK_CAP budget.
    """
    search = _ActSearch(M, m)
    per_class = factorial(m)
    seen = set()
    classes = []
    for action in search.tables():
        if action in seen:
            continue
        search.charge(relabelings=per_class)
        orbit = _orbit(action, M.size)
        seen |= orbit
        classes.append(min(orbit))
    return [Act(M, m, t) for t in sorted(classes)]


def random_acts(M: Monoid, m: int, count: int, rng: random.Random):
    """Rejection-sample acts: random generator columns a -> a*g, kept
    iff `_ActSearch` propagates them to a table without a conflict."""
    search = _ActSearch(M, m)
    gens = monoid_generators(M)
    out = []
    attempts = 0
    while len(out) < count and attempts < SAMPLE_ATTEMPTS * count:
        attempts += 1
        cols = [[rng.randrange(m) for _ in range(m)] for _ in gens]
        search.undo(0)
        drawn = (col[a] for a in range(m) for col in cols)  # cell a*g in branch order
        if all(map(search.assign, search.branch, drawn)):
            out.append(Act(M, m, search.rows()))
    return out


# -- corpus ------------------------------------------------------------------

ALL_THEOREMS = tuple(f"T{i}" for i in range(1, 15))


@dataclass(frozen=True)
class CorpusSpec:
    max_monoid_size: int = 3
    max_act_size: int = 4
    theorems: tuple = ALL_THEOREMS
    seed: int | None = None
    samples: int = 0

    def __post_init__(self):
        if min(self.max_monoid_size, self.max_act_size) < 1 or self.samples < 0:
            raise InputError("--max-monoid and --max-act must be at least 1, --samples at least 0")


@dataclass
class Corpus:
    monoids: list
    acts: list  # acts[i] lists the acts over monoids[i]


def build_corpus(spec: CorpusSpec) -> Corpus:
    monoids = []
    for n in range(1, spec.max_monoid_size + 1):
        monoids.extend(enumerate_monoids(n))
    acts = []
    for M in monoids:
        per = []
        for m in range(1, spec.max_act_size + 1):
            per.extend(enumerate_acts(M, m))
        acts.append(per)
    if spec.samples > 0:
        rng = random.Random(spec.seed)
        for i in range(spec.samples):
            which = i % len(monoids)
            extra = random_acts(monoids[which], spec.max_act_size + 1, 1, rng)
            acts[which].extend(extra)
    return Corpus(monoids, acts)


# -- shared evaluation context ------------------------------------------------

class SuiteContext:
    """One ActAnalysis per act, shared by every theorem.  The four flag
    methods answer from a test-only override table where it names their
    decider, and from the analysis' `flags` otherwise."""

    def __init__(self, overrides=None):
        self.overrides = dict(overrides or {})
        self._analyses = {}

    def analysis(self, A) -> ActAnalysis:
        key = (A.monoid.table, A.action)
        if key not in self._analyses:
            self._analyses[key] = ActAnalysis(A)
        return self._analyses[key]

    def _flag(self, name, A, i):
        if name in self.overrides:
            return self.overrides[name](A)
        flag = self.analysis(A).flags[i]
        return flag[0] if i > 1 else flag  # the strong flags carry an index

    def hopfian(self, A):
        return self._flag("is_hopfian", A, 0)

    def co_hopfian(self, A):
        return self._flag("is_co_hopfian", A, 1)

    def strongly_hopfian(self, A):
        return self._flag("is_strongly_hopfian", A, 2)

    def strongly_co_hopfian(self, A):
        return self._flag("is_strongly_co_hopfian", A, 3)


# -- witnesses ----------------------------------------------------------------

def _monoid_payload(M: Monoid):
    return [list(row) for row in M.table]

def _act_payload(A: Act):
    return [list(row) for row in A.action]


def _witness(tid, M, flags, **extra):
    w = {"theorem": tid, "monoid": _monoid_payload(M), "flags": flags}
    w.update(extra)
    return w


# -- theorem checks ------------------------------------------------------------
# Each check returns (nonvacuous, passed, witness_or_None, details_dict).

def _act_check(tid, A, hyp, concl, flags):
    """One act's instance of hyp => concl: vacuous without hyp, failed
    with a witness carrying `flags` when concl is false."""
    if not hyp:
        return False, True, None, {}
    if concl:
        return True, True, None, {}
    return True, False, _witness(tid, A.monoid, flags, act=_act_payload(A)), {}


def _check_t1(ctx, A):
    noe, h = ctx.analysis(A).report.noetherian, ctx.hopfian(A)
    return _act_check("T1", A, noe, h, {"noetherian": noe, "hopfian": h})


def _check_t2(ctx, A):
    art, co = ctx.analysis(A).report.artinian, ctx.co_hopfian(A)
    return _act_check("T2", A, art, co, {"artinian": art, "co_hopfian": co})


def _check_t3(ctx, A):
    h, co = ctx.hopfian(A), ctx.co_hopfian(A)
    sh, sch = ctx.strongly_hopfian(A), ctx.strongly_co_hopfian(A)
    flags = {"strongly_hopfian": sh, "hopfian": h, "strongly_co_hopfian": sch, "co_hopfian": co}
    return _act_check("T3", A, sh or sch, (h or not sh) and (co or not sch), flags)


def _criteria_check(tid, decide, A, ctx):
    """The three criteria agree on flag and index: for f^n's image and
    kernel congruences, meet = diagonal iff |im f^2n| = |im f^n| and join
    = universal iff im f^2n = im f^n, first true where the rank settles."""
    an = ctx.analysis(A)
    outcomes = [decide(an, c) for c in deciders.CRITERIA]
    bools = [b for b, _ in outcomes]
    idx = [i for _, i in outcomes]
    passed = bools[0] == bools[1] == bools[2] and idx[0] == idx[1] == idx[2]
    details = {
        "criterion3_index_mismatches": int(idx[2] != idx[1]),
        "max_stabilization_index": idx[1] or 0,
    }
    if passed:
        return True, True, None, details
    flags = {
        "criterion_bools": bools,
        "criterion_indices": idx,
    }
    return True, False, _witness(tid, A.monoid, flags, act=_act_payload(A)), details


def _check_t4(ctx, A):
    return _criteria_check("T4", deciders.is_strongly_hopfian, A, ctx)


def _check_t5(ctx, A):
    return _criteria_check("T5", deciders.is_strongly_co_hopfian, A, ctx)


def _check_t6(ctx, M):
    mono = monoid_hopf_properties(M)
    R = regular_act(M)
    act_sh = ctx.strongly_hopfian(R)
    act_sch = ctx.strongly_co_hopfian(R)
    passed = mono.strongly_hopfian == act_sh and mono.strongly_co_hopfian == act_sch
    if passed:
        return True, True, None, {}
    flags = {
        "monoid_level": [mono.strongly_hopfian, mono.strongly_co_hopfian],
        "act_level": [act_sh, act_sch],
    }
    return True, False, _witness("T6", M, flags), {}


def _check_t7(ctx, pair):
    A, B = pair
    found = is_retract_of(ctx.analysis(A).homs(B), ctx.analysis(B).homs(A))
    hyp = found is not None and found.proper and ctx.strongly_hopfian(B)
    if not hyp:
        return False, True, None, {}
    if ctx.strongly_hopfian(A):
        return True, True, None, {}
    flags = {"retract_proper": True, "B_strongly_hopfian": True, "A_strongly_hopfian": False}
    w = _witness(
        "T7", A.monoid, flags,
        act=_act_payload(A), act_b=_act_payload(B),
        gamma=list(found.gamma.mapping), pi=list(found.pi.mapping),
    )
    return True, False, w, {}


def _check_t8(ctx, pair):
    """Surjections are counted one by one but decided once per kernel:
    h and h' = s o h (s in Aut(B)) share a kernel, f o h' = h' o g iff
    (s^-1 f s) o h = h o g, f -> s^-1 f s permutes End(B), and t is a
    section of h iff t o s^-1 is one of h'.  Where A's lift flag at
    ker h holds, h induces all of End(B) (`ActAnalysis.lifts`)."""
    A, B = pair
    induces, section = {}, {}
    sections = induced = 0
    for h in ctx.analysis(A).homs(B):
        if len(set(h.mapping)) != B.size:
            continue
        rho = kernel_congruence(h)
        if rho.labels not in induces:
            induces[rho.labels] = ctx.analysis(A).lifts(rho) or induces_all_endomorphisms(
                h, ctx.analysis(A).endos, ctx.analysis(B).endos)[0]
        if not induces[rho.labels] or not ctx.strongly_co_hopfian(A):
            continue
        induced += 1
        if rho.labels not in section:
            section[rho.labels] = has_section(h, ctx.analysis(B).homs(A))
        sections += section[rho.labels]
        if not ctx.strongly_co_hopfian(B):
            flags = {"A_strongly_co_hopfian": True, "B_strongly_co_hopfian": False}
            w = _witness(
                "T8", A.monoid, flags,
                act=_act_payload(A), act_b=_act_payload(B), h=list(h.mapping),
            )
            return True, False, w, {"induced_surjections": induced, "with_section": sections}
    return induced > 0, True, None, {"induced_surjections": induced, "with_section": sections}


def _check_t9(ctx, inst):
    A, B = inst
    if not is_fully_invariant(B, ctx.analysis(A).endos):
        return False, True, None, {}
    B_act, _ = subact_as_act(B)
    Q, _ = quotient_by_congruence(A, rees_congruence(A, B))
    hyp = ctx.strongly_hopfian(B_act) and ctx.strongly_hopfian(Q)
    if not hyp:
        return False, True, None, {}
    if ctx.strongly_hopfian(A):
        return True, True, None, {}
    flags = {
        "fully_invariant": True,
        "subact_strongly_hopfian": True,
        "quotient_strongly_hopfian": True,
        "A_strongly_hopfian": False,
    }
    w = _witness("T9", A.monoid, flags, act=_act_payload(A), subact=list(B.members))
    return True, False, w, {}


def _check_t10(ctx, A):
    pi = ctx.analysis(A).report.end_strongly_pi_regular
    sh, sch = ctx.strongly_hopfian(A), ctx.strongly_co_hopfian(A)
    flags = {"end_strongly_pi_regular": pi, "strongly_hopfian": sh, "strongly_co_hopfian": sch}
    return _act_check("T10", A, pi, sh and sch, flags)


def _check_t11(ctx, A):
    rep = ctx.analysis(A).report
    sh, sch = ctx.strongly_hopfian(A), ctx.strongly_co_hopfian(A)
    flags = {
        "quasi_injective": rep.quasi_injective,
        "strongly_hopfian": sh,
        "end_commutative": rep.end_commutative,
        "strongly_co_hopfian": sch,
        "end_strongly_pi_regular": rep.end_strongly_pi_regular,
    }
    hyp = rep.quasi_injective and sh and rep.end_commutative
    return _act_check("T11", A, hyp, sch and rep.end_strongly_pi_regular, flags)


def _check_t12(ctx, A):
    rep = ctx.analysis(A).report
    sh, sch = ctx.strongly_hopfian(A), ctx.strongly_co_hopfian(A)
    flags = {
        "quasi_projective": rep.quasi_projective,
        "strongly_co_hopfian": sch,
        "end_commutative": rep.end_commutative,
        "strongly_hopfian": sh,
        "end_strongly_pi_regular": rep.end_strongly_pi_regular,
    }
    hyp = rep.quasi_projective and sch and rep.end_commutative
    return _act_check("T12", A, hyp, sh and rep.end_strongly_pi_regular, flags)


def _factor_acts(ctx, A):
    return [
        quotient_by_congruence(A, rho)[0] for rho in ctx.analysis(A).congruences
    ]


def _check_t13(ctx, A):
    factors = _factor_acts(ctx, A)
    all_co = all(ctx.co_hopfian(Q) for Q in factors)
    all_strong = all(ctx.strongly_co_hopfian(Q) for Q in factors)
    flags = {"all_factors_co_hopfian": all_co, "all_factors_strongly_co_hopfian": all_strong}
    return _act_check("T13", A, True, all_co == all_strong, flags)


def _check_t14(ctx, A):
    factors = _factor_acts(ctx, A)
    all_plain = all(ctx.hopfian(Q) and ctx.co_hopfian(Q) for Q in factors)
    all_fitting = all(
        ctx.strongly_hopfian(Q) and ctx.strongly_co_hopfian(Q) for Q in factors
    )
    flags = {"all_factors_hopfian_co_hopfian": all_plain, "all_factors_fitting": all_fitting}
    return _act_check("T14", A, True, all_plain == all_fitting, flags)


REGISTRY = {
    "T1": ("noetherian implies hopfian", "act", _check_t1),
    "T2": ("artinian implies co-hopfian", "act", _check_t2),
    "T3": ("strong variants imply plain variants", "act", _check_t3),
    "T4": ("strongly-hopfian criteria agree", "act", _check_t4),
    "T5": ("strongly-co-hopfian criteria agree", "act", _check_t5),
    "T6": ("regular act matches monoid-level tests", "monoid", _check_t6),
    "T7": ("proper retracts inherit strongly-hopfian", "act_pair_up", _check_t7),
    "T8": ("induced surjections preserve strongly-co-hopfian", "act_pair_down", _check_t8),
    "T9": ("fully invariant subact + quotient force strongly-hopfian", "act_subact", _check_t9),
    "T10": ("pi-regular endomorphism monoid forces both strong properties", "act", _check_t10),
    "T11": ("quasi-injective commutative-End transfer", "act", _check_t11),
    "T12": ("quasi-projective commutative-End transfer", "act", _check_t12),
    "T13": ("factor acts co-hopfian iff strongly co-hopfian", "act", _check_t13),
    "T14": ("factor acts hopfian and co-hopfian iff fitting", "act", _check_t14),
}


@dataclass
class Verdict:
    theorem: str
    title: str
    instances: int
    nonvacuous: int
    passed: bool
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "title": self.title,
            "instances": self.instances,
            "nonvacuous": self.nonvacuous,
            "passed": self.passed,
            "witness": self.witness,
            "details": dict(sorted(self.details.items())),
        }


def _instances_for(kind, corpus, ctx):
    if kind == "act":
        for per in corpus.acts:
            yield from per
    elif kind == "monoid":
        yield from corpus.monoids
    elif kind in ("act_pair_up", "act_pair_down"):
        keep = le if kind == "act_pair_up" else ge
        for per in corpus.acts:
            for A in per:
                for B in per:
                    if keep(A.size, B.size):
                        yield (A, B)
    elif kind == "act_subact":
        for per in corpus.acts:
            for A in per:
                for B in ctx.analysis(A).subacts:
                    yield (A, B)
    else:
        raise AssertionError(kind)


def check_theorem(tid: str, instance, overrides=None) -> Verdict:
    """Evaluate one theorem on one instance.

    Instance shape depends on the theorem: a single Act, a Monoid (T6),
    an (Act, Act) pair (T7/T8), or an (Act, Subact) pair (T9).
    """
    if tid not in REGISTRY:
        raise UnknownTheorem(tid)
    title, _, fn = REGISTRY[tid]
    nonvac, passed, witness, details = fn(SuiteContext(overrides), instance)
    return Verdict(tid, title, 1, int(nonvac), passed, witness, details)


@dataclass
class SuiteResult:
    spec: CorpusSpec
    corpus: Corpus
    verdicts: list
    reports: list


def run_suite(spec: CorpusSpec, overrides=None) -> SuiteResult:
    """Check every requested theorem over the whole corpus.

    Deterministic given the spec (including the sampling seed): corpus
    order is canonical and verdicts aggregate in iteration order.
    """
    for tid in spec.theorems:
        if tid not in REGISTRY:
            raise UnknownTheorem(tid)
    corpus = build_corpus(spec)
    ctx = SuiteContext(overrides)
    reports = []
    for mi, (M, per) in enumerate(zip(corpus.monoids, corpus.acts)):
        for ai, A in enumerate(per):
            rep = ctx.analysis(A).report
            entry = {
                "monoid": f"M{mi}",
                "act": f"M{mi}.A{ai}",
                "monoid_size": M.size,
                "act_size": A.size,
                "monoid_table": _monoid_payload(M),
                "action": _act_payload(A),
                "properties": rep.to_dict(),
            }
            reports.append(entry)
    verdicts = []
    for tid in sorted(spec.theorems, key=lambda t: int(t[1:])):
        title, kind, fn = REGISTRY[tid]
        total = 0
        nonvac = 0
        passed = True
        witness = None
        details = {}
        for instance in _instances_for(kind, corpus, ctx):
            total += 1
            nv, ok, w, d = fn(ctx, instance)
            nonvac += int(nv)
            for k, v in d.items():
                # max_-prefixed detail keys aggregate by maximum, the rest count
                if k.startswith("max_"):
                    details[k] = max(details.get(k, 0), v)
                else:
                    details[k] = details.get(k, 0) + v
            if not ok and passed:
                passed = False
                witness = w
        verdicts.append(Verdict(tid, title, total, nonvac, passed, witness, details))
    return SuiteResult(spec, corpus, verdicts, reports)


def rebuild_instance(tid: str, witness: dict):
    """Reconstruct a checkable instance from a failure witness."""
    kind = REGISTRY[tid][1]
    M = validate_monoid(len(witness["monoid"]), witness["monoid"])
    if kind == "monoid":
        return M
    A = validate_act(M, len(witness["act"]), witness["act"])
    if kind in ("act_pair_up", "act_pair_down"):
        B = validate_act(M, len(witness["act_b"]), witness["act_b"])
        return (A, B)
    if kind == "act_subact":
        return (A, subact(A, witness["subact"]))
    return A


def recheck_verdict(verdict: Verdict, overrides=None) -> bool:
    """Re-evaluate a failing verdict from its witness alone.

    Returns True iff the violation reproduces under an independent
    evaluation (fresh context, no shared caches).
    """
    if verdict.witness is None:
        return False
    instance = rebuild_instance(verdict.theorem, verdict.witness)
    redo = check_theorem(verdict.theorem, instance, overrides)
    return not redo.passed
