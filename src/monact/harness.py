"""Exhaustive corpus generation and theorem checking.

Small monoids and acts are enumerated up to isomorphism (canonical form
= minimal table under carrier relabelings, identity pinned at 0 for a
monoid).  Monoid tables come from a backtrack over the non-identity
cells that drops a partial table at its first failed associativity
instance.  Acts come from a propagating backtrack over the generator
cells of the action table; the backtrack tries one of the
interchangeable untouched points per cell, and a complete, conflict-free
table is an action and is not re-validated.  A seeded sample is the
first table of the same backtrack with each cell's values shuffled, so
every draw is an act, reproducible but not uniform over classes.
Both backtracks yield flat `bytes` tables, and the first table of each
isomorphism class puts its whole relabelling orbit
(`act.relabellings`) into a seen set that absorbs its other labelled
copies.
Every registered theorem is evaluated as a universally quantified
implication over the corpus, one monoid at a time: each act of the
monoid gets one `deciders.ActAnalysis`, dropped before the next
monoid's, and each check takes its theorem's id and the analysed
instance it reads (an analysis, a pair, an analysis and a subact, or
the monoid) and makes one `_implication` call.  Only the run's memo spans monoids: acts with
one set of maps rho_s: a -> a*s (the trivial 4-point act over each
monoid, say) share what those maps fix (`deciders.ActAnalysis`).  T7
and T8 search no hom between two acts: they match canonical forms of
acts, factor acts and retracts, and are handed only the candidate pairs
a join on those forms finds; every other pair is vacuous, and is
counted from the act sizes, not checked.  A failing instance's verdict names
the instance by its full tables, enough to re-run the check.  Every
Hopfian-type flag is read through `flag`, True on finite carriers
without looking at the acts it is handed, so only T4-T6, which compare
indices, can fail while `flag` is the default.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from math import factorial
from operator import ge, le

from . import deciders
from .act import Act, Subact, quotient_by_congruence, regular_act, relabellings, subact
from .act import subact_as_act, validate_act
from .congruence import Congruence, rees_congruence
from .endo import induces_all_endomorphisms
from .errors import InputError, SizeTooLarge, UnknownTheorem
from .monoid import Monoid, monoid_generators, validate_monoid
from .deciders import ActAnalysis, monoid_hopf_properties

MONOID_ENUM_MAX = 4
ACT_ENUM_WORK_CAP = 1 << 21  # search nodes, plus m! per isomorphism class
MAX_DETAILS = frozenset({"max_stabilization_index"})  # detail keys folded by max (T4, T5)
PAIR_KEEP = {"act_pair_up": le, "act_pair_down": ge}  # |A| vs |B| of each pair (A, B) of a kind


def _rows(cells, n):
    """A flat table as a tuple of rows of n entries."""
    return tuple(zip(*[iter(cells)] * n))


def _classes(tables, m, n, charge=lambda: None, monoid=False):
    """The least table of each relabelling orbit the flat tables reach,
    sorted, as tuple rows (rows all have n entries, so byte order is row
    order).  The first table of an orbit calls `charge` and puts the
    orbit into `seen`; the others cost one set lookup."""
    seen = set()
    least = []
    for table in tables:
        if table not in seen:
            charge()
            orbit = relabellings(table, m, n, monoid)
            seen.update(orbit)
            least.append(min(orbit))
    return [_rows(t, n) for t in sorted(least)]


# -- enumeration -------------------------------------------------------------

def _monoid_tables(n):
    """Every associative n x n table with identity 0, as flat `bytes`.

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
            found.append(bytes(v for row in table for v in row))
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
    """All monoids of size exactly n up to isomorphism, each by its
    canonical form (the least table over relabelings that keep the
    identity at 0), in order."""
    if n > MONOID_ENUM_MAX:
        raise SizeTooLarge(f"monoid enumeration capped at size {MONOID_ENUM_MAX}")
    tables = _classes(_monoid_tables(n), n, n, monoid=True)
    return [Monoid(n, t, tuple(range(n))) for t in tables]


class _ActSearch:
    """Depth-first search for action tables T[a][s] = a*s over M.

    Only the generator cells (a, g) are branched on.  Each assignment
    T[a][s] = b propagates the act axiom a*(s*t) = (a*s)*t both ways:
    forward, T[a][st] and T[b][t] must agree for every t; backward,
    every cell (c, u) holding the value a needs T[c][us] = b.  Cells are
    flat indices a*n + s; the identity column is filled from the start
    and never propagates, since its instances of the axiom are trivial.

    A point b is untouched when no assigned cell holds it and its row
    has no assigned cell but the identity cell.  A cell (a, g) tries
    every touched point, a itself, and only the least untouched point
    other than a.  This still reaches every isomorphism class: the
    transposition of two untouched points b, c != a fixes every
    assigned cell and the cell (a, g), so it maps each completion with
    c at (a, g) to an isomorphic completion with b there, and by
    induction on the remaining branch cells the search yields a
    relabeled copy of every completion.

    With an `rng`, each branch cell tries its values in a seeded
    shuffled order instead, so the first table yielded is a random
    descent that backtracks on a conflict.
    """

    def __init__(self, M: Monoid, m: int, rng: random.Random | None = None):
        n, gens = M.size, monoid_generators(M)
        self.m, self.n, self.mul, self.rng = m, n, M.table, rng
        self.branch = [a * n + g for a in range(m) for g in gens]
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

    def tried(self, a):
        """The values a generator cell in row a tries: every touched
        point, a itself, and the least untouched point other than a.
        Rows before a hold their assigned generator cells, so only the
        points after a can be untouched."""
        n, table, holders = self.n, self.table, self.holders
        skip = [b for b in range(a + 1, self.m)
                if not holders[b] and max(table[b * n + 1 : b * n + n]) < 0][1:]
        return [b for b in range(self.m) if b not in skip]

    def tables(self, k=0):
        """Yield a labelled action table of every isomorphism class (and
        of some classes more than once), flat as `bytes`, one search
        node charged per value tried at a generator cell."""
        branch, table = self.branch, self.table
        while k < len(branch) and table[branch[k]] >= 0:
            k += 1
        if k == len(branch):
            yield bytes(self.table)
            return
        values = self.tried(branch[k] // self.n)
        if self.rng is not None:
            self.rng.shuffle(values)
        for value in values:
            self.charge(nodes=1)
            mark = len(self.trail)
            if self.assign(branch[k], value):
                yield from self.tables(k + 1)
            self.undo(mark)


def enumerate_acts(M: Monoid, m: int):
    """All acts of size m over M up to act isomorphism, each by its
    canonical form (the least table over carrier relabelings), in order.

    `_ActSearch` finds a labelled action table of every class, trying
    only the least of the untouched points at each branch cell; the
    labelled copies it still finds come from values it cannot skip.
    `_classes` keeps the least table of each orbit, charging the first
    table of each class m! work units: search nodes and relabelings
    share the ACT_ENUM_WORK_CAP budget.
    """
    search = _ActSearch(M, m)
    tables = _classes(search.tables(), m, M.size, lambda: search.charge(relabelings=factorial(m)))
    return [Act(M, m, t) for t in tables]


def random_acts(M: Monoid, m: int, count: int, rng: random.Random):
    """`count` seeded acts of size m over M, each the first table of a
    fresh `_ActSearch` that tries its branch values in an order drawn
    from `rng`.  Every draw returns an act: the search backtracks on a
    conflict, and its tree always holds the act on which each s acts as
    the identity, since a cell (a, g) always tries a.  The draws are
    reproducible from the seed, but not uniform over classes."""
    return [Act(M, m, _rows(next(_ActSearch(M, m, rng).tables()), M.size))
            for _ in range(count)]


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
        if self.samples and self.seed is None:
            raise InputError("--samples needs --seed, or the sampled acts are not reproducible")
        if not self.theorems:
            raise InputError("no theorem to check: --theorems names none")
        for tid in self.theorems:
            if tid not in REGISTRY:
                raise UnknownTheorem(tid, ALL_THEOREMS)
        twice = sorted({t for t in self.theorems if self.theorems.count(t) > 1})
        if twice:
            raise InputError(f"--theorems names {', '.join(twice)} more than once")


@dataclass
class Corpus:
    monoids: list
    acts: list  # acts[i] lists the acts over monoids[i]


def build_corpus(spec: CorpusSpec) -> Corpus:
    monoids = [M for n in range(1, spec.max_monoid_size + 1) for M in enumerate_monoids(n)]
    acts = [[A for m in range(1, spec.max_act_size + 1) for A in enumerate_acts(M, m)]
            for M in monoids]
    rng = random.Random(spec.seed)
    for i in range(spec.samples):
        which = i % len(monoids)
        acts[which] += random_acts(monoids[which], spec.max_act_size + 1, 1, rng)
    return Corpus(monoids, acts)


# -- flags ---------------------------------------------------------------------

FLAGS = H, CO, SH, SCH = (
    "is_hopfian", "is_co_hopfian", "is_strongly_hopfian", "is_strongly_co_hopfian")


def flag(name, acts) -> bool:
    """Whether every act in `acts` has the Hopfian-type property `name`,
    one of FLAGS.  On a finite act all four hold: a self-map of a finite
    carrier is surjective iff it is injective (pigeonhole), and the
    kernel and image chains of its powers settle (Fitting's lemma).  So
    the answer is True and `acts` is never read; checks hand over lazy
    iterables, whose acts are built only if a test replaces this
    function with a decider that reads them."""
    return True


# -- witnesses ----------------------------------------------------------------

def _payload(rows):
    return [list(row) for row in rows]


def _instance_fields(instance):
    """The witness fields naming an analysed instance (`_analysed`): the
    monoid's table, plus `act` for an act, `act`/`act_b` for a pair of
    acts and `act`/`subact` for an act and a subact, each act read off
    its analysis.  `rebuild_instance` reads the same keys back."""
    if isinstance(instance, Monoid):
        return {"monoid": _payload(instance.table)}
    if isinstance(instance, ActAnalysis):
        A = instance.act
        return {"monoid": _payload(A.monoid.table), "act": _payload(A.action)}
    an, B = instance
    fields = _instance_fields(an)
    if isinstance(B, ActAnalysis):
        fields["act_b"] = _payload(B.act.action)
    else:
        fields["subact"] = list(B.members)
    return fields


def rebuild_instance(witness: dict):
    """Reconstruct a checkable instance from a failure witness."""
    M = validate_monoid(len(witness["monoid"]), witness["monoid"])
    if "act" not in witness:
        return M
    A = validate_act(M, len(witness["act"]), witness["act"])
    if "act_b" in witness:
        return A, validate_act(M, len(witness["act_b"]), witness["act_b"])
    if "subact" in witness:
        return A, subact(A, witness["subact"])
    return A


# -- theorem checks ------------------------------------------------------------
# Each check takes its theorem's id and its instance with every act
# analysed (`_analysed`), as `check_theorem(tid, instance)` does, and
# returns (nonvacuous, passed, witness_or_None, details_dict).

def _implication(tid, instance, hyp, concl, flags, details={}, **extra):
    """One instance of hyp => concl: vacuous without hyp, failed when
    concl is false, with a witness that names the instance and carries
    `flags` and the `extra` evidence.  `details` passes through."""
    if not hyp or concl:
        return bool(hyp), True, None, details
    witness = {"theorem": tid, "flags": flags, **_instance_fields(instance), **extra}
    return True, False, witness, details


def _check_t1(tid, an):
    noe, h = an.report.noetherian, flag(H, [an.act])
    return _implication(tid, an, noe, h, {"noetherian": noe, "hopfian": h})


def _check_t2(tid, an):
    art, co = an.report.artinian, flag(CO, [an.act])
    return _implication(tid, an, art, co, {"artinian": art, "co_hopfian": co})


def _check_t3(tid, an):
    h, co, sh, sch = (flag(name, [an.act]) for name in FLAGS)
    flags = {"strongly_hopfian": sh, "hopfian": h, "strongly_co_hopfian": sch, "co_hopfian": co}
    return _implication(tid, an, sh or sch, (h or not sh) and (co or not sch), flags)


def _criteria_check(tid, decide, literal, an):
    """Criterion 3, computed literally, agrees with the settle pair of
    criteria 1 and 2 on flag and index: for f^n's image and kernel
    congruences, meet = diagonal iff |im f^2n| = |im f^n| and join =
    universal iff im f^2n = im f^n, first true where the rank settles.
    The witness lists the three criteria, 1 and 2 both the settle pair."""
    (flag_12, index_12), (flag_3, index_3) = decide(an), literal(an)
    details = {"criterion3_index_mismatches": int(index_3 != index_12),
               "max_stabilization_index": index_12 or 0}
    flags = {"criterion_bools": [flag_12, flag_12, flag_3],
             "criterion_indices": [index_12, index_12, index_3]}
    return _implication(tid, an, True, (flag_12, index_12) == (flag_3, index_3), flags, details)


def _check_t4(tid, an):
    return _criteria_check(tid, deciders.is_strongly_hopfian, deciders.meet_index, an)


def _check_t5(tid, an):
    return _criteria_check(tid, deciders.is_strongly_co_hopfian, deciders.join_index, an)


def _check_t6(tid, M):
    """The monoid-level tests agree with the regular act R, flag by flag
    and element by element: lambda_s: x -> s*x is an endomorphism of R
    with ker lambda_s^n = r(s^n) and im lambda_s^n = s^n S, so s's
    r-chain index and the n of s^n = s^(n+1)*t both equal the one
    settle index of lambda_s, where its kernel and image chains settle
    together.  Both monoid-level tests hold on every finite monoid
    (`monoid_hopf_properties` raises otherwise)."""
    if M.size > 255:
        raise SizeTooLarge(f"T6: monoid size {M.size} exceeds the byte-map cap of 255")
    mono = monoid_hopf_properties(M)
    R = regular_act(M)
    indices = [deciders.settle_index(bytes(row)) for row in M.table]
    act_level = [flag(SH, [R]), flag(SCH, [R])]
    flags = {"monoid_level": [True, True], "act_level": act_level}
    agree = all(r == w[0] == n for r, w, n in zip(mono.r_indices, mono.power_witnesses, indices))
    return _implication(tid, M, True, act_level == [True, True] and agree, flags)


def _first_surjection(surjections, automorphisms):
    """(s o h, ker h), least in map order, over the (kernel, byte map h)
    in `surjections` and the s in `automorphisms` of h's target: the
    first of all surjections with those kernels."""
    return min((h.translate(s.ljust(256, b"\0")), kernel)
               for kernel, h in surjections for s in automorphisms)


def _check_t7(tid, pair):
    """A proper retract A of B is B/ker e for an idempotent e of End(B)
    with fewer classes than points, so the pair is non-vacuous iff A's
    form is one of B's `retract_forms`.  A failure names the first
    retraction pi: B -> A in map order, the least s o h_kappa over s in
    Aut(A) and split kernels kappa, with gamma(pi(b)) = e(b) for the e
    that splits kappa."""
    an_a, an_b = pair
    A, B = an_a.act, an_b.act
    proper = A.size < B.size and an_a.form[0] in an_b.retract_forms
    flags = {"retract_proper": True, "B_strongly_hopfian": True, "A_strongly_hopfian": False}
    hyp, concl, maps = proper and flag(SH, [B]), flag(SH, [A]), {}
    if hyp and not concl:
        (form, onto), split = an_a.form, an_b.split_kernels
        kernels = [(k, q.translate(onto)) for k, q in an_b.quotients[form] if k in split]
        pi, kappa = _first_surjection(kernels, an_a.automorphisms)
        gamma = dict(zip(pi, split[kappa]))
        maps = {"gamma": [gamma[a] for a in range(A.size)], "pi": list(pi)}
    return _implication(tid, pair, hyp, concl, flags, **maps)


def _check_t8(tid, pair):
    """The surjections A -> B with kernel rho are s o i o p_rho, s in
    Aut(B), for an isomorphism i: A/rho -> B, so each rho of A whose
    factor act has B's form adds |Aut(B)| surjections, decided by one:
    f o s o h = s o h o g iff (s^-1 f s) o h = h o g, and f -> s^-1 f s
    permutes End(B).  h has a section s iff rho is in A's
    `split_kernels`, and then h induces all of End(B) with no check:
    f o h = h o (s o f o h) for each f in End(B).  A failure names the
    first induced surjection in map order and counts it alone."""
    an_a, an_b = pair
    A, B = an_a.act, an_b.act
    concl = flag(SCH, [B])
    form, onto = an_b.form
    split = an_a.split_kernels
    surjections = [(rho, q.translate(onto)) for rho, q in an_a.quotients.get(form, ())]
    induced = [(rho, h) for rho, h in surjections
               if rho in split or induces_all_endomorphisms(h, an_a.endos, an_b.endos)[0]]
    if induced and not flag(SCH, [A]):
        induced = []
    per_kernel, witness_h = len(an_b.automorphisms), []
    if induced and not concl:
        h, rho = _first_surjection(induced, an_b.automorphisms)
        per_kernel, induced, witness_h = 1, [(rho, h)], list(h)
    details = {"induced_surjections": per_kernel * len(induced),
               "with_section": per_kernel * sum(rho in split for rho, _ in induced)}
    flags = {"A_strongly_co_hopfian": True, "B_strongly_co_hopfian": False}
    return _implication(tid, pair, induced, concl, flags, details, h=witness_h)


def _subact_and_rees_factor(an, B):
    """B as an act, then the Rees factor A/B, each built on demand."""
    yield subact_as_act(B)[0]
    yield quotient_by_congruence(an.act, rees_congruence(an.act, B))[0]


def _check_t9(tid, inst):
    """B is fully invariant iff the endomorphism orbit of each member
    stays in B."""
    an, B = inst
    members = set(B.members)
    hyp = (
        all(an.orbits[b] <= members for b in B.members)
        and flag(SH, _subact_and_rees_factor(an, B))
    )
    flags = {
        "fully_invariant": True,
        "subact_strongly_hopfian": True,
        "quotient_strongly_hopfian": True,
        "A_strongly_hopfian": False,
    }
    return _implication(tid, inst, hyp, flag(SH, [an.act]), flags)


def _check_t10(tid, an):
    pi = an.report.end_strongly_pi_regular
    sh, sch = flag(SH, [an.act]), flag(SCH, [an.act])
    flags = {"end_strongly_pi_regular": pi, "strongly_hopfian": sh, "strongly_co_hopfian": sch}
    return _implication(tid, an, pi, sh and sch, flags)


def _transfer_check(quasi, tid, an):
    """T11 (quasi_injective, strongly Hopfian to strongly co-Hopfian) and
    T12 (quasi_projective, the other way), under a commutative End(A);
    `quasi` is bound in REGISTRY."""
    rep = an.report
    sh, sch = flag(SH, [an.act]), flag(SCH, [an.act])
    given, shown = (sh, sch) if quasi == "quasi_injective" else (sch, sh)
    flags = {quasi: getattr(rep, quasi), "strongly_hopfian": sh, "strongly_co_hopfian": sch,
             "end_commutative": rep.end_commutative,
             "end_strongly_pi_regular": rep.end_strongly_pi_regular}
    hyp = getattr(rep, quasi) and given and rep.end_commutative
    return _implication(tid, an, hyp, shown and rep.end_strongly_pi_regular, flags)


def _factor_acts(an):
    """A fresh iterable over the factor acts A/rho, each built on demand;
    one per flag read, since a spent generator reads as empty."""
    return (quotient_by_congruence(an.act, Congruence(an.act, labels))[0]
            for labels, _ in an.lattice)


def _check_t13(tid, an):
    all_co = flag(CO, _factor_acts(an))
    all_strong = flag(SCH, _factor_acts(an))
    flags = {"all_factors_co_hopfian": all_co, "all_factors_strongly_co_hopfian": all_strong}
    return _implication(tid, an, True, all_co == all_strong, flags)


def _check_t14(tid, an):
    all_plain = flag(H, _factor_acts(an)) and flag(CO, _factor_acts(an))
    all_fitting = flag(SH, _factor_acts(an)) and flag(SCH, _factor_acts(an))
    flags = {"all_factors_hopfian_co_hopfian": all_plain, "all_factors_fitting": all_fitting}
    return _implication(tid, an, True, all_plain == all_fitting, flags)


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
    "T11": ("quasi-injective commutative-End transfer", "act",
            partial(_transfer_check, "quasi_injective")),
    "T12": ("quasi-projective commutative-End transfer", "act",
            partial(_transfer_check, "quasi_projective")),
    "T13": ("factor acts co-hopfian iff strongly co-hopfian", "act", _check_t13),
    "T14": ("factor acts hopfian and co-hopfian iff fitting", "act", _check_t14),
}


@dataclass
class Verdict:
    theorem: str
    title: str
    instances: int = 0
    nonvacuous: int = 0
    passed: bool = True
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def add(self, nonvacuous, passed, witness, details):
        """Fold in one instance's check result; the first failure's
        witness is kept.  Detail keys in MAX_DETAILS aggregate by
        maximum, the rest by sum."""
        self.instances += 1
        self.nonvacuous += int(nonvacuous)
        if details:
            for k, v in details.items():
                old = self.details.get(k, 0)
                self.details[k] = max(old, v) if k in MAX_DETAILS else old + v
        if not passed and self.passed:
            self.passed, self.witness = False, witness

    def to_dict(self):
        return asdict(self)


def _analysed(instance, memo):
    """The instance with each act in it analysed, filing into `memo`."""
    if isinstance(instance, tuple):
        return tuple(_analysed(x, memo) for x in instance)
    if isinstance(instance, Act):
        an = ActAnalysis(instance)
        an.memo = memo
        return an
    return instance


def _instances_for(kind, M, analyses):
    """The instances of one theorem kind over M, from its acts' `analyses`.

    A pair kind gets its candidate pairs only, in corpus (A, B) order,
    joined on canonical forms through an index from each form to its
    positions in `analyses`: (A, B) for T7 where A's form is one of B's
    `retract_forms`, for T8 where B's form files one of A's `quotients`
    (every act files its own, by the diagonal).  Every other pair is
    vacuous whatever `flag` returns; `_check_monoid` counts those."""
    if kind == "act":
        return analyses
    if kind == "monoid":
        return [M]
    if kind == "act_subact":
        return ((an, Subact(an.act, members)) for an in analyses for members in an.subact_members)
    at = {}
    for i, an in enumerate(analyses):
        at.setdefault(an.form[0], []).append(i)
    if kind == "act_pair_up":
        pairs = [(i, j) for j, b in enumerate(analyses) for f in b.retract_forms
                 for i in at.get(f, ())]
    else:
        pairs = [(i, j) for i, a in enumerate(analyses) for f in a.quotients
                 for j in at.get(f, ())]
    return [(analyses[i], analyses[j]) for i, j in sorted(pairs)]


def _pair_count(kind, analyses):
    """The number of pairs (A, B) of a pair kind over the acts of
    `analyses`, read off their sizes."""
    sizes, keep = Counter(an.act.size for an in analyses), PAIR_KEEP[kind]
    return sum(sizes[a] * sizes[b] for a in sizes for b in sizes if keep(a, b))


def check_theorem(tid: str, instance) -> Verdict:
    """Evaluate one theorem on one instance, analysed with a private memo.

    Instance shape depends on the theorem: a single Act, a Monoid (T6),
    an (Act, Act) pair (T7/T8), or an (Act, Subact) pair (T9).
    """
    if tid not in REGISTRY:
        raise UnknownTheorem(tid, ALL_THEOREMS)
    title, _, fn = REGISTRY[tid]
    verdict = Verdict(tid, title)
    verdict.add(*fn(tid, _analysed(instance, {})))
    return verdict


@dataclass
class SuiteResult:
    spec: CorpusSpec
    corpus: Corpus
    verdicts: list
    reports: list


def _check_monoid(mi, M, acts, verdicts, memo):
    """Analyse each act over M, the mi-th monoid, once into `memo`, fold
    M's instances into `verdicts` and return the acts' report rows, which
    share one payload of M's table.  The analyses die on return, before
    the next monoid's are made."""
    analyses, table = [_analysed(A, memo) for A in acts], _payload(M.table)
    reports = [{
        "monoid": f"M{mi}",
        "act": f"M{mi}.A{ai}",
        "monoid_size": M.size,
        "act_size": an.act.size,
        "monoid_table": table,
        "action": _payload(an.act.action),
        "properties": an.report.to_dict(),
    } for ai, an in enumerate(analyses)]
    for verdict in verdicts:
        _, kind, fn = REGISTRY[verdict.theorem]
        start = verdict.instances
        for instance in _instances_for(kind, M, analyses):
            verdict.add(*fn(verdict.theorem, instance))
        if kind in PAIR_KEEP:  # the pairs that are no candidate: vacuous, counted, not checked
            verdict.instances = start + _pair_count(kind, analyses)
    return reports


def run_suite(spec: CorpusSpec) -> SuiteResult:
    """Check every requested theorem over the whole corpus, one monoid at
    a time (`_check_monoid`): each theorem's Verdict folds the monoid's
    instances in place.  One memo of the quantities each transformation
    set fixes (the acts' End(A) among them), made here, serves the whole
    run and dies with it.

    Deterministic given the spec (including the sampling seed): corpus
    order is canonical and verdicts aggregate in iteration order.
    """
    corpus = build_corpus(spec)
    tids = sorted(spec.theorems, key=lambda t: int(t[1:]))
    verdicts = [Verdict(tid, REGISTRY[tid][0]) for tid in tids]
    reports, memo = [], {}
    for mi, (M, per) in enumerate(zip(corpus.monoids, corpus.acts)):
        reports += _check_monoid(mi, M, per, verdicts, memo)
    return SuiteResult(spec, corpus, verdicts, reports)


def recheck_verdict(verdict: Verdict) -> bool:
    """Re-evaluate a failing verdict from its witness alone.

    Returns True iff the violation reproduces under an independent
    evaluation (fresh analyses, with a private memo).
    """
    if verdict.witness is None:
        return False
    redo = check_theorem(verdict.theorem, rebuild_instance(verdict.witness))
    return not redo.passed
