"""Property deciders for finite acts and monoids.

Everything here reduces to chains of kernel and image congruences of
endomorphism powers.  On finite carriers both chain families stabilize
within |A| steps (kernel class counts fall, image sizes fall), so every
decider terminates with an exact index.  Criteria 1 and 2 and the chain
reports read each endomorphism's PowerProfile, one walk of its powers;
criterion 3 stays literal: it meets or joins the image and kernel labels
of each power map, once per map and decider call.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import cache, cached_property
from operator import itemgetter
from typing import NamedTuple

from .act import Act, ActHom, enumerate_subacts
from .act import quotient_by_congruence, subact_as_act
from .congruence import (
    Congruence,
    _collapse_labels,
    _meet_labels,
    _merge,
    diagonal,
    enumerate_congruences,
)
from .endo import (
    end_monoid,
    homomorphisms,
    identity_first,
    is_commutative,
    is_strongly_pi_regular,
)
from .monoid import Monoid, element_power, row_partition
from .relation import least_labels

CRITERIA = (1, 2, 3)


# -- per-act analysis --------------------------------------------------------

class ActAnalysis:
    """The per-act quantities the deciders read, each computed once, on
    first use: the homs into each target act (the endomorphisms among
    them), power profiles, congruences, subacts, lift flags, the four
    Hopfian-type flags and the property report.  End(A) is not kept:
    `classify_act` builds and drops it.

    Every decider takes either an Act or its ActAnalysis; handing them
    one analysis shares the work.
    """

    def __init__(self, act: Act):
        self.act = act
        self._homs = {}
        self._lifts = {}

    def homs(self, B: Act):
        """The homs from the act into B, sorted by map."""
        key = (B.monoid.table, B.action)
        if key not in self._homs:
            self._homs[key] = homomorphisms(self.act, B)
        return self._homs[key]

    @property
    def endos(self):
        """The endomorphisms, sorted by map."""
        return self.homs(self.act)

    @cached_property
    def profiles(self):
        """One PowerProfile per endomorphism, in `endos` order."""
        return [power_profile(f) for f in self.endos]

    @cached_property
    def flags(self):
        """(hopfian, co_hopfian, (strongly_hopfian, index),
        (strongly_co_hopfian, index)), the strong pairs by criterion 1."""
        return (
            is_hopfian(self),
            is_co_hopfian(self),
            is_strongly_hopfian(self, 1),
            is_strongly_co_hopfian(self, 1),
        )

    @cached_property
    def report(self):
        return classify_act(self)

    @cached_property
    def congruences(self):
        return enumerate_congruences(self.act)

    @cached_property
    def subacts(self):
        return enumerate_subacts(self.act)

    def lifts(self, rho: Congruence) -> bool:
        """Whether every hom A -> A/rho lifts through p_rho: one bool per
        congruence, keyed by its labels.  If so, every surjection h: A -> B
        with kernel rho induces all of End(B): h = i o p_rho for an
        isomorphism i, and i^-1 o f o h = p_rho o g gives f o h = h o g."""
        if rho.labels not in self._lifts:
            # p_diagonal is an isomorphism: no second End(A) search for it
            diag = rho == diagonal(self.act)
            self._lifts[rho.labels] = diag or _unlifted_hom(self, rho) is None
        return self._lifts[rho.labels]


def analyse(A: Act | ActAnalysis) -> ActAnalysis:
    """A's analysis: A itself if it already is one, else a fresh one."""
    return A if isinstance(A, ActAnalysis) else ActAnalysis(A)


# -- power profiles ----------------------------------------------------------

class PowerProfile(NamedTuple):
    """How the kernel and image chains of one endomorphism f settle:
    `k_index` (`i_index`) is the least n >= 1 with ker f^n = ker f^(n+1)
    (im f^n = im f^(n+1)).  `k_tail` (`i_tail`) says whether the kernel
    (image) stays the same from that index through f^(c+p), where
    f^(c+p) = f^c is the first repeated power: every later power repeats
    one of f^c .. f^(c+p-1), so that stretch is the whole tail.
    """

    k_index: int
    i_index: int
    k_tail: bool
    i_tail: bool


def _settle(chain):
    """(n, tail) for the kernels or images of f^1 .. f^(c+p): the least
    n with chain[n-1] == chain[n], and whether every later entry equals
    chain[n-1] too."""
    n = next(n for n in range(1, len(chain)) if chain[n - 1] == chain[n])
    return n, all(x == chain[n - 1] for x in chain[n:])


def power_profile(f: ActHom) -> PowerProfile:
    """f's profile from one walk f, f^2, .. up to the first repeated
    power, comparing kernel labels and image sets; the powers themselves
    are not kept."""
    cur = m = tuple(f.mapping)
    seen, kernels, images = set(), [], []
    while True:
        kernels.append(least_labels(cur))
        images.append(frozenset(cur))
        if cur in seen:
            break
        seen.add(cur)
        cur = tuple(map(m.__getitem__, cur))
    k, k_tail = _settle(kernels)
    i, i_tail = _settle(images)
    return PowerProfile(k, i, k_tail, i_tail)


@dataclass(frozen=True)
class ChainReport:
    """Stabilization data for a single endomorphism."""

    endo: int
    mapping: tuple
    k_index: int
    i_index: int
    kernel: Congruence
    image: Congruence


# -- Hopfian family ---------------------------------------------------------

def is_hopfian(A: Act | ActAnalysis) -> bool:
    """Every surjective endomorphism is injective.  Always true on finite
    carriers; kept literal as a consistency oracle."""
    return all(f.is_injective() for f in analyse(A).endos if f.is_surjective())


def is_co_hopfian(A: Act | ActAnalysis) -> bool:
    """Every injective endomorphism is surjective."""
    return all(f.is_surjective() for f in analyse(A).endos if f.is_injective())


def _endo_index(f, criterion, index, tail, settled):
    """Least n satisfying the chosen criterion for one endomorphism f:
    criteria 1 and 2 read `index` and `tail`, the chain's entries in f's
    power profile; criterion 3 is `settled(f^n)` on the map tuple of f^n,
    for n <= 2|A|, each power one lookup through f's map."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if criterion == 1 and not tail:
        raise AssertionError("chain tail not constant after stabilization")
    if criterion != 3:
        return index
    f_n = m = f.mapping
    for n in range(1, 2 * len(m) + 1):
        if settled(f_n):
            return n
        f_n = tuple(map(m.__getitem__, f_n))
    return None


def _worst(indices):
    """(flag, index): False at the first None, else the largest index."""
    worst = 0
    for n in indices:
        if n is None:
            return False, None
        worst = max(worst, n)
    return True, worst


def is_strongly_hopfian(A: Act | ActAnalysis, criterion: int = 1):
    """(flag, index): kernel chains of all endomorphisms stabilize.

    criterion 1 demands a constant tail, 2 one adjacent equality, 3 the
    trivial-intersection condition: the labels of im f^n (one class) and
    ker f^n meet in the diagonal; index is the worst endomorphism's least
    n for the chosen criterion.  Powers are elements of End(A), so each
    map is decided once, in a memo that lives for this call only.
    """
    an = analyse(A)
    delta = tuple(range(an.act.size))

    @cache
    def settled(f_n):
        return _meet_labels(_collapse_labels(len(f_n), f_n), least_labels(f_n)) == delta

    return _worst(
        _endo_index(f, criterion, p.k_index, p.k_tail, settled)
        for f, p in zip(an.endos, an.profiles)
    )


def is_strongly_co_hopfian(A: Act | ActAnalysis, criterion: int = 1):
    """(flag, index): image chains of all endomorphisms stabilize.

    criterion 3 is the join condition: the labels of im f^n and ker f^n,
    partition-joined as `congruence.join` does, give the universal
    congruence's; each map is decided once per call, as for the kernels.
    """
    an = analyse(A)
    full = (0,) * an.act.size

    @cache
    def settled(f_n):
        return _merge(_collapse_labels(len(f_n), f_n), enumerate(least_labels(f_n)))[0] == full

    return _worst(
        _endo_index(f, criterion, p.i_index, p.i_tail, settled)
        for f, p in zip(an.endos, an.profiles)
    )


# -- congruence chains ------------------------------------------------------

def chain_conditions(A: Act | ActAnalysis):
    """(noetherian, artinian, lattice size, longest chain).

    Both chain conditions hold outright on a finite congruence lattice;
    the returned evidence is the lattice size and the length of a
    longest chain under containment: the height of the universal
    congruence, which comes last and tops every maximal chain.
    """
    congs = analyse(A).congruences
    return True, True, len(congs), congs[-1].height


# -- quasi-injective / quasi-projective --------------------------------------

def is_quasi_injective(A: Act | ActAnalysis):
    """Every hom from a subact into A extends to an endomorphism.

    Injective maps g: B -> A are covered by subact inclusions: g factors
    through an isomorphism onto its image, and the extension property is
    invariant under that isomorphism.  The whole carrier is skipped: its
    homs into A are the endomorphisms themselves.  A hom out of B is
    fixed by its images on B's generating set, so maps compare there.
    Returns (flag, counterexample).
    """
    an = analyse(A)
    for B in an.subacts[:-1]:
        sub, members = subact_as_act(B)
        gens = sub.generators
        at_sub, at_parent = itemgetter(*gens), itemgetter(*(members[x] for x in gens))
        restrictions = {at_parent(h.mapping) for h in an.endos}
        for f in homomorphisms(sub, an.act):
            if at_sub(f.mapping) not in restrictions:
                return False, (B, f)
    return True, None


def _unlifted_hom(an: ActAnalysis, rho: Congruence):
    """The first hom A -> A/rho, in map order, that is p_rho o g for no
    endomorphism g, or None; maps compare by their generator images."""
    quotient, proj = quotient_by_congruence(an.act, rho)
    gens = an.act.generators
    lifted = {tuple(proj.mapping[g.mapping[x]] for x in gens) for g in an.endos}
    homs = homomorphisms(an.act, quotient)
    return next((f for f in homs if tuple(f.mapping[x] for x in gens) not in lifted), None)


def is_quasi_projective(A: Act | ActAnalysis):
    """Every hom from A to a factor act lifts through the projection.

    Surjections g: A -> B are covered by the canonical projections
    A -> A/rho: any surjection factors through A/ker(g) by an
    isomorphism.  The diagonal is skipped: A -> A/diagonal is the
    identity, through which every endomorphism lifts.  Only the first
    false lift flag's counterexample is rebuilt.  Returns (flag,
    counterexample).
    """
    an = analyse(A)
    for rho in an.congruences[1:]:
        if not an.lifts(rho):
            return False, (rho, _unlifted_hom(an, rho))
    return True, None


# -- monoid-level tests (regular act without building End) -------------------

@dataclass(frozen=True)
class MonoidHopfReport:
    strongly_hopfian: bool
    strongly_co_hopfian: bool
    r_indices: tuple
    power_witnesses: tuple


def r_chain_index(M: Monoid, s: int) -> int:
    """Least n >= 1 with r(s^n) = r(s^(n+1)), via row fibers."""
    cur = s
    prev = row_partition(M, s)
    for n in range(1, M.size + 1):
        cur = M.table[cur][s]
        part = row_partition(M, cur)
        if part == prev:
            return n
        prev = part
    raise AssertionError("r-chain must stabilize within |S| steps")


def power_stabilizer(M: Monoid, s: int):
    """First (n, t) with s^n = s^(n+1)*t, n ascending then t; None if
    nothing shows up within n <= |S| (cannot happen on a monoid)."""
    for n in range(1, M.size + 1):
        sn = element_power(M, s, n)
        sn1 = M.table[sn][s]
        for t in range(M.size):
            if M.table[sn1][t] == sn:
                return n, t
    return None


def monoid_hopf_properties(M: Monoid) -> MonoidHopfReport:
    """Strong Hopfian-type tests for the regular act, computed directly
    on the multiplication table."""
    r_indices = tuple(r_chain_index(M, s) for s in range(M.size))
    witnesses = tuple(power_stabilizer(M, s) for s in range(M.size))
    return MonoidHopfReport(
        strongly_hopfian=all(n is not None for n in r_indices),
        strongly_co_hopfian=all(w is not None for w in witnesses),
        r_indices=r_indices,
        power_witnesses=witnesses,
    )


# -- aggregate report ---------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    hopfian: bool
    co_hopfian: bool
    strongly_hopfian: bool
    strongly_hopfian_index: int
    strongly_co_hopfian: bool
    strongly_co_hopfian_index: int
    fitting: bool
    noetherian: bool
    artinian: bool
    quasi_injective: bool
    quasi_projective: bool
    end_commutative: bool
    end_strongly_pi_regular: bool
    end_size: int
    congruence_count: int
    congruence_max_chain: int

    def to_dict(self):
        return asdict(self)


def classify_act(A: Act | ActAnalysis) -> PropertyReport:
    """Run every decider on one act (or on its ActAnalysis)."""
    an = analyse(A)
    # the congruence cap refuses an oversized act before End(A) is built
    noe, art, n_congs, max_chain = chain_conditions(an)
    E = end_monoid(an.act, an.endos)
    hopfian, co_hopfian, (sh, sh_index), (sch, sch_index) = an.flags
    report = PropertyReport(
        hopfian=hopfian,
        co_hopfian=co_hopfian,
        strongly_hopfian=sh,
        strongly_hopfian_index=sh_index,
        strongly_co_hopfian=sch,
        strongly_co_hopfian_index=sch_index,
        fitting=sh and sch,
        noetherian=noe,
        artinian=art,
        quasi_injective=is_quasi_injective(an)[0],
        quasi_projective=is_quasi_projective(an)[0],
        end_commutative=is_commutative(E),
        end_strongly_pi_regular=is_strongly_pi_regular(E)[0],
        end_size=E.monoid.size,
        congruence_count=n_congs,
        congruence_max_chain=max_chain,
    )
    assert report.fitting == (report.strongly_hopfian and report.strongly_co_hopfian)
    assert not report.strongly_hopfian or report.hopfian
    assert not report.strongly_co_hopfian or report.co_hopfian
    return report


def _map_power(m, n):
    """The map tuple of f^n, n >= 1, for f's map tuple m: each step one
    lookup through m, as in criterion 3."""
    f_n = m
    for _ in range(n - 1):
        f_n = tuple(map(m.__getitem__, f_n))
    return f_n


def chain_reports(A: Act | ActAnalysis):
    """ChainReport per endomorphism, in canonical End(A) order: the
    indices from its power profile, the kernel congruence of f^k (the
    fibers of its map) and the image congruence of f^i (its image as
    one class)."""
    an = analyse(A)
    act, size = an.act, an.act.size
    profile = {f.mapping: p for f, p in zip(an.endos, an.profiles)}
    reports = []
    for n, f in enumerate(identity_first(an.endos)):
        m, p = f.mapping, profile[f.mapping]
        kernel = Congruence(act, least_labels(_map_power(m, p.k_index)))
        image = Congruence(act, _collapse_labels(size, _map_power(m, p.i_index)))
        reports.append(ChainReport(n, m, p.k_index, p.i_index, kernel, image))
    return reports
