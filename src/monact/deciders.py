"""Property deciders for finite acts and monoids.

Everything here reduces to chains of kernel and image congruences of
endomorphism powers.  On a finite carrier both chains of f take their
first equal step at one n, the least with |im f^n| = |im f^(n+1)|, and
neither moves again (Fitting's lemma); n <= |A|.  So each endomorphism
has one settle index, found by a walk of its powers that stops there
(`settle_index`).  The strong Hopfian pair and the chain reports read
it, as criteria 1 and 2 (a constant tail, one adjacent equality) hold
there.  Criterion 3 stays literal, the evidence T4 and T5 test the
pair against: one walk of each endomorphism's powers meets and joins
the image and kernel labels of each power map, once per map and
transformation set (`ActAnalysis.criterion_3`); `meet_index` and
`join_index` read it.

`ActAnalysis.endos` keeps each endomorphism as a plain `bytes` map (so
at most 255 points), converted once from the search's tuples.  Each
composition is one C call: f o x for fixed f is
`x.translate(f.ljust(256, b"\0"))` (power steps, lift sets), x o g for
fixed g an `itemgetter` gather (restrictions).  The idempotents of
End(A) settle most lift and extension checks with no hom search
(`ActAnalysis.retracts`): a factor act and its projection are built,
by `quotient_by_congruence`, and not kept, only for a congruence that
is no idempotent's kernel.  No End(A) table is built: its size is the
number of maps, and it is commutative iff each pair of maps commutes
(`ActAnalysis.end_commutative`).
The analysis files each factor act A/rho, built as a flat table, under
its canonical form, the least table of its relabelling orbit
(`act.least_relabelling`): T7 and T8 match those forms instead of
searching homs between acts.  On a finite carrier the
four Hopfian-type flags hold outright (`classify_act`); the literal
loops are test oracles.  `residue_r_index` reads r-chain indices in
products of residue monoids (Z/m, *) off gcds, with no table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, wraps
from itertools import islice, repeat
from math import gcd
from operator import eq, itemgetter

from .act import Act, Subact, enumerate_subacts, least_relabelling
from .act import quotient_by_congruence, subact_as_act
from .congruence import (
    Congruence,
    _collapse_labels,
    _meet_labels,
    _merge,
    enumerate_congruences,
)
from .endo import homomorphisms, identity_first
from .errors import SizeTooLarge
from .monoid import Monoid, element_power, row_partition
from .relation import least_labels

# -- per-act analysis --------------------------------------------------------

def _per_transformation_set(compute):
    """A cached property whose value compute(an) is kept once per
    transformation set, in the analysis's `memo` under (compute, |A|,
    T(A))."""
    def read(an):
        key = (compute, an.act.size, an.transformations)
        if key not in an.memo:
            an.memo[key] = compute(an)
        return an.memo[key]
    return cached_property(wraps(compute)(read))


class ActAnalysis:
    """The per-act quantities the deciders read, each computed once, on
    first use.  What reads only the maps rho_s: a -> a*s, the act's
    transformation set T(A), is kept in `memo` under (quantity, |A|,
    T(A)) (`_per_transformation_set`): f is an endomorphism iff
    f o rho = rho o f for each rho in T(A), and congruences and subacts
    are defined by the rho alone; canonical forms, under the flat
    table.  The congruences and subacts are kept as plain data that
    names no act: the lattice as (labels, height) pairs, the subacts as
    member tuples.  A `Congruence` or `Subact` is built from them only
    where a caller needs one: a hom search's target, a counterexample, a
    T9 instance.  The factor forms, whose rows follow the monoid's
    columns, stay per act.  A suite run swaps in its own memo.

    Every decider takes either an Act or its ActAnalysis; handing them
    one analysis shares the work.
    """

    def __init__(self, act: Act):
        if act.size > 255:
            raise SizeTooLarge(
                f"act analysis: carrier size {act.size} exceeds the byte-map cap of 255")
        self.act = act
        self.transformations = frozenset(zip(*act.action))
        self.memo = {}

    @_per_transformation_set
    def endos(self):
        """The byte maps of the endomorphisms, sorted."""
        return list(map(bytes, homomorphisms(self.act, self.act)))

    @_per_transformation_set
    def orbits(self):
        """orbits[a]: the set of f(a) over every endomorphism f."""
        return [frozenset(column) for column in zip(*self.endos)]

    @_per_transformation_set
    def profiles(self):
        """The settle index of each endomorphism, in `endos` order."""
        return list(map(settle_index, self.endos))

    @_per_transformation_set
    def criterion_3(self):
        """((meet flag, index), (join flag, index)) by criterion 3, from
        one walk of each endomorphism's powers f^n, n <= 2|A|, that
        tests each distinct power map once (`_meets_and_joins`) and
        stops when both tests have passed.  A family's flag is False if
        some endomorphism's powers never pass its test, else its index
        is the largest first n that does."""
        test, firsts = cache(_meets_and_joins), []
        for m in self.endos:
            meet = join = None
            for n, f_n in zip(range(1, 2 * len(m) + 1), _powers(m)):
                meets, joins = test(f_n)
                meet = meet or (n if meets else None)
                join = join or (n if joins else None)
                if meet and join:
                    break
            firsts.append((meet, join))
        return tuple((False, None) if None in family else (True, max(family))
                     for family in zip(*firsts))

    @_per_transformation_set
    def retracts(self):
        """(split kernels, retract images) from one scan of the idempotent
        endomorphisms, e o e = e: the kernel labels (`least_labels`) of
        each e, mapped to the first such e in map order, and the set of
        the images im e as sorted member tuples.  A surjection h out of
        the act has a section s iff its kernel is split: e = s o h one
        way, s = (h on im e)^-1 the other."""
        split, images = {}, set()
        for e in self.endos:
            if e.translate(e.ljust(256, b"\0")) == e:
                split.setdefault(least_labels(e), e)
                images.add(tuple(sorted(set(e))))
        return split, images

    split_kernels = property(lambda an: an.retracts[0])
    retract_images = property(lambda an: an.retracts[1])

    @_per_transformation_set
    def end_commutative(self):
        """Whether End(A) is commutative: g o f = f o g, as
        `f.translate(g's rename table) == g.translate(f's)`, for each
        pair of endomorphisms, stopping at the first pair that differs."""
        endos = self.endos
        pads = [f.ljust(256, b"\0") for f in endos]
        return all(
            all(map(eq, map(bytes.translate, endos[:i], repeat(pad)), map(f.translate, pads[:i])))
            for i, (f, pad) in enumerate(zip(endos, pads)))

    @_per_transformation_set
    def automorphisms(self):
        """The byte maps of the bijective endomorphisms, in map order."""
        return [f for f in self.endos if len(set(f)) == len(f)]

    @_per_transformation_set
    def report(self):
        return classify_act(self)

    def canonical(self, table, m):
        """`act.least_relabelling` of a flat table over m points and this
        act's monoid: the least table of the orbit `act.relabellings`
        walks, and a rename onto it, once per table in `memo`."""
        key = (least_relabelling, m, table)
        if key not in self.memo:
            self.memo[key] = least_relabelling(table, m, self.act.monoid.size)
        return self.memo[key]

    @cached_property
    def form(self):
        """(F, onto): the act's canonical form F and the rename table that
        takes each label of F back to its point, onto = names^-1."""
        A = self.act
        form, names = self.canonical(b"".join(map(bytes, A.action)), A.size)
        return form, bytes(sorted(range(A.size), key=names.__getitem__)).ljust(256, b"\0")

    @_per_transformation_set
    def lattice(self):
        """The congruence lattice as (labels, height) pairs, in lattice
        order: the diagonal first, the universal congruence last."""
        return [(rho.labels, rho.height) for rho in enumerate_congruences(self.act)]

    @_per_transformation_set
    def subact_members(self):
        """The member tuples of the subacts, in (size, members) order."""
        return [B.members for B in enumerate_subacts(self.act)]

    @cached_property
    def quotients(self):
        """{F: [(rho's labels, q)]}: each congruence rho, in lattice order,
        filed under the canonical form F of the factor act A/rho, with q
        the byte map of p_rho relabelled onto F, a surjection A -> F with
        kernel rho.  A/rho is built as a flat table, one row per class by
        its least member, never as an Act."""
        A, n = self.act, self.act.monoid.size
        flat = b"".join(map(bytes, A.action))
        quotients = {}
        for labels, _ in self.lattice:
            leaders = sorted(set(labels))
            index = {lead: i for i, lead in enumerate(leaders)}
            class_of = bytes(map(index.__getitem__, labels)).ljust(256, b"\0")
            rows = b"".join([flat[a * n : a * n + n] for a in leaders]).translate(class_of)
            form, names = self.canonical(rows, len(leaders))
            q = class_of[: A.size].translate(names)
            quotients.setdefault(form, []).append((labels, q))
        return quotients

    @cached_property
    def retract_forms(self):
        """The canonical forms of the proper retracts.  A is a retract of
        B iff A is isomorphic to im e = B/ker e for an idempotent e of
        End(B), so these are the forms of the factor acts by the split
        kernels with fewer classes than points."""
        split = self.split_kernels
        return {form for form, entries in self.quotients.items()
                if any(labels in split and len(q) > len(set(q)) for labels, q in entries)}


def analyse(A: Act | ActAnalysis) -> ActAnalysis:
    """A's analysis: A itself if it already is one, else a fresh one."""
    return A if isinstance(A, ActAnalysis) else ActAnalysis(A)


# -- settle indices ----------------------------------------------------------

def _powers(m):
    """The byte maps of f, f^2, f^3, .. for f's byte map m: each power is
    the last one translated through m's rename table."""
    step = m.ljust(256, b"\0")
    while True:
        yield m
        m = m.translate(step)


def settle_index(m) -> int:
    """The least n >= 1 with |im f^n| = |im f^(n+1)| for the endomorphism
    with byte map m: the n where both its kernel chain and its image
    chain take their first equal step.  ker f^n has |im f^n| classes,
    ker f^n <= ker f^(n+1) and im f^(n+1) <= im f^n, so equal ranks mean
    equal kernels and equal images; from there f is a bijection on
    im f^n and neither chain moves again (Fitting's lemma).  The rank
    falls at every earlier step, so n <= |A|."""
    step = m.ljust(256, b"\0")
    rank, n = len(set(m)), 1
    while True:
        m = m.translate(step)
        next_rank = len(set(m))
        if next_rank == rank:
            return n
        rank, n = next_rank, n + 1


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

def _meets_and_joins(f_n):
    """Criterion 3 at one power, for the byte map f_n of f^n: whether
    the labels of im f^n (one class) and of ker f^n meet in the
    diagonal, and whether, partition-joined as `congruence.join` does,
    they give the universal congruence."""
    size = len(f_n)
    image, kernel = _collapse_labels(size, f_n), least_labels(f_n)
    return (_meet_labels(image, kernel) == tuple(range(size)),
            _merge(bytes(image), enumerate(kernel))[0] == bytes(size))


def is_strongly_hopfian(A: Act | ActAnalysis):
    """(flag, index): the kernel chain of every endomorphism stabilizes,
    at its settle index, so the index is the largest settle index."""
    return True, max(analyse(A).profiles)


def is_strongly_co_hopfian(A: Act | ActAnalysis):
    """(flag, index): the image chain of every endomorphism stabilizes,
    at the same settle index as its kernel chain."""
    return True, max(analyse(A).profiles)


def meet_index(A: Act | ActAnalysis):
    """(flag, index) of the strongly Hopfian property by criterion 3,
    the trivial-intersection condition (`ActAnalysis.criterion_3`)."""
    return analyse(A).criterion_3[0]


def join_index(A: Act | ActAnalysis):
    """(flag, index) of the strongly co-Hopfian property by criterion 3,
    the universal-join condition (`ActAnalysis.criterion_3`)."""
    return analyse(A).criterion_3[1]


# -- congruence chains ------------------------------------------------------

def chain_conditions(A: Act | ActAnalysis):
    """(noetherian, artinian, lattice size, longest chain).

    Both chain conditions hold outright on a finite congruence lattice;
    the returned evidence is the lattice size and the length of a
    longest chain under containment: the height of the universal
    congruence, which comes last and tops every maximal chain.
    """
    lattice = analyse(A).lattice
    return True, True, len(lattice), lattice[-1][1]


# -- quasi-injective / quasi-projective --------------------------------------

def is_quasi_injective(A: Act | ActAnalysis):
    """Every hom from a subact into A extends to an endomorphism.

    Injective maps g: B -> A are covered by subact inclusions: g factors
    through an isomorphism onto its image, and the extension property is
    invariant under that isomorphism.  A retract image B = im e, e an
    idempotent endomorphism, is skipped: every hom f: B -> A extends to
    f o e, as e fixes B pointwise.  So is the whole carrier, im of the
    identity.  A hom out of B is fixed by its images on B's generating
    set, so maps compare there.  Returns (flag, counterexample): the
    first proper subact B with a hom that does not extend, built as a
    Subact of A from its member tuple, and that hom's map tuple over
    B's points.
    """
    an = analyse(A)
    retracts = an.retract_images
    for members in an.subact_members[:-1]:
        if members in retracts:
            continue
        B = Subact(an.act, members)
        sub = subact_as_act(B)[0]
        gens = sub.generators
        at_sub, at_parent = itemgetter(*gens), itemgetter(*(members[x] for x in gens))
        restrictions = set(map(at_parent, an.endos))
        for f in homomorphisms(sub, an.act):
            if at_sub(f) not in restrictions:
                return False, (B, f)
    return True, None


def _unlifted_hom(an: ActAnalysis, rho: Congruence):
    """The map tuple of the first hom A -> A/rho, in map order, that is
    p_rho o g for no endomorphism g, or None; the lift set is one
    translate per g.  The factor act and the homs into it are built
    afresh, not kept."""
    quotient, proj = quotient_by_congruence(an.act, rho)
    lifted = set(map(bytes.translate, an.endos, repeat(bytes(proj).ljust(256, b"\0"))))
    homs = homomorphisms(an.act, quotient)
    return next((f for f in homs if bytes(f) not in lifted), None)


def is_quasi_projective(A: Act | ActAnalysis):
    """Every hom from A to a factor act lifts through the projection.

    Surjections g: A -> B are covered by the canonical projections
    A -> A/rho: any surjection factors through A/ker(g) by an
    isomorphism.  A split kernel rho = ker e, e an idempotent
    endomorphism, is skipped: p_rho maps im e onto A/rho bijectively,
    so f: A -> A/rho lifts to (p_rho on im e)^-1 o f.  So is the
    diagonal, the identity's kernel.  Returns (flag, counterexample):
    the first rho with an unlifted hom, built as a Congruence of A from
    its labels and height, and that hom's map tuple.
    """
    an = analyse(A)
    split = an.split_kernels
    for labels, height in an.lattice[1:]:
        if labels in split:
            continue
        rho = Congruence(an.act, labels, height)
        f = _unlifted_hom(an, rho)
        if f is not None:
            return False, (rho, f)
    return True, None


# -- monoid-level tests (regular act without building End) -------------------

@dataclass(frozen=True)
class MonoidHopfReport:
    r_indices: tuple
    power_witnesses: tuple


def r_chain_index(M: Monoid, s: int) -> int:
    """Least n >= 1 with r(s^n) = r(s^(n+1)), via row fibers."""
    cur, prev = s, row_partition(M, s)
    for n in range(1, M.size + 1):
        cur = M.table[cur][s]
        part = row_partition(M, cur)
        if part == prev:
            return n
        prev = part
    raise AssertionError("r-chain must stabilize within |S| steps")


def residue_r_index(components) -> int:
    """The r-chain index of (a_1, .., a_k) in (Z/m_1, *) x .. x (Z/m_k, *),
    from the pairs (m_i, a_i) in `components`, with no table.  r(x^n) of
    a product is the product of the factors' r(a_i^n), equal iff each
    factor is, and a chain that takes one equal step never moves again:
    the index is the largest factor index.  In Z/m, a*b = a*c iff
    m/gcd(a, m) divides b - c, so r(a) is fixed by gcd(a, m), and a's
    index is the least n with gcd(a^n, m) = gcd(a^(n+1), m), walked as
    g <- gcd(g*a, m) in O(log m) steps."""
    index = 0
    for m, a in components:
        g, n = gcd(a, m), 1
        while (h := gcd(g * a, m)) != g:
            g, n = h, n + 1
        index = max(index, n)
    return index


def power_stabilizer(M: Monoid, s: int):
    """First (n, t) with s^n = s^(n+1)*t, n ascending then t."""
    for n in range(1, M.size + 1):
        sn = element_power(M, s, n)
        sn1 = M.table[sn][s]
        for t in range(M.size):
            if M.table[sn1][t] == sn:
                return n, t
    raise AssertionError("s^n = s^(n+1)*t must hold for some n <= |S|")


def monoid_hopf_properties(M: Monoid) -> MonoidHopfReport:
    """The indices of the strong Hopfian-type tests for the regular act,
    per element, computed directly on the multiplication table.  Both
    tests hold on every finite monoid: each search raises if its chain
    does not settle within |S| steps."""
    return MonoidHopfReport(
        r_indices=tuple(r_chain_index(M, s) for s in range(M.size)),
        power_witnesses=tuple(power_stabilizer(M, s) for s in range(M.size)),
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
        """The fields by name: every field is a scalar, so a shallow
        copy equals `dataclasses.asdict`."""
        return dict(vars(self))


def classify_act(A: Act | ActAnalysis) -> PropertyReport:
    """Run every decider on one act (or on its ActAnalysis).  End(A)'s
    size and commutativity are read off the endomorphism maps, with no
    composition table."""
    an = analyse(A)
    # the congruence cap refuses an oversized act before the hom search
    noe, art, n_congs, max_chain = chain_conditions(an)
    sh, sh_index = is_strongly_hopfian(an)
    sch, sch_index = is_strongly_co_hopfian(an)
    return PropertyReport(
        # pigeonhole: a finite self-map is surjective iff injective, so
        # both plain flags hold; the strong ones hold by Fitting's lemma
        hopfian=True,
        co_hopfian=True,
        strongly_hopfian=sh,
        strongly_hopfian_index=sh_index,
        strongly_co_hopfian=sch,
        strongly_co_hopfian_index=sch_index,
        fitting=sh and sch,
        noetherian=noe,
        artinian=art,
        quasi_injective=is_quasi_injective(an)[0],
        quasi_projective=is_quasi_projective(an)[0],
        end_commutative=an.end_commutative,
        # Drazin (1958): every element f of a finite monoid is strongly
        # pi-regular, with g = f^(p-1) where f's powers first repeat at
        # f^(c+p) = f^c; tests/oracles.py keeps the End(A) table scan
        end_strongly_pi_regular=True,
        end_size=len(an.endos),
        congruence_count=n_congs,
        congruence_max_chain=max_chain,
    )


def _map_power(m, n):
    """The byte map of f^n, n >= 1, for f's byte map m."""
    return next(islice(_powers(m), n - 1, None))


def chain_reports(A: Act | ActAnalysis):
    """ChainReport per endomorphism, in canonical End(A) order: its settle
    index n as both k_index and i_index, and the kernel and image
    congruences of the one power f^n (the fibers of its map, and its
    image as one class).  Reports of one call with equal kernel labels
    share one Congruence, and so do reports with equal images, so each
    distinct partition is built, and its `classes` derived, once."""
    an = analyse(A)
    act = an.act
    index = dict(zip(an.endos, an.profiles))
    kernels, images, reports = {}, {}, []
    for e, m in enumerate(identity_first(an.endos)):
        n = index[m]
        f_n = _map_power(m, n)
        labels, members = least_labels(f_n), frozenset(f_n)
        if labels not in kernels:
            kernels[labels] = Congruence(act, labels)
        if members not in images:
            images[members] = Congruence(act, _collapse_labels(act.size, members))
        reports.append(ChainReport(e, tuple(m), n, n, kernels[labels], images[members]))
    return reports
