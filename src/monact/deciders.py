"""Property deciders for finite acts and monoids.

Everything here reduces to chains of kernel and image congruences of
endomorphism powers.  On finite carriers both chain families stabilize
within |A| steps (kernel class counts fall, image sizes fall), so every
decider terminates with an exact index.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import cached_property

from .act import Act, ActHom, enumerate_subacts, quotient_by_congruence, subact_as_act
from .congruence import (
    Congruence,
    diagonal,
    enumerate_congruences,
    image_congruence,
    join,
    kernel_congruence,
    meet,
    universal,
)
from .endo import (
    end_monoid,
    homomorphisms,
    identity_first,
    is_commutative,
    is_strongly_pi_regular,
)
from .monoid import Monoid, element_power, row_partition
from .relation import partition_from_labels

CRITERIA = (1, 2, 3)


# -- per-act analysis --------------------------------------------------------

class ActAnalysis:
    """The per-act quantities the deciders read, each computed once, on
    first use: the homs into each target act (the endomorphisms among
    them), End(A), the congruence lattice and the subacts.

    Every decider takes either an Act or its ActAnalysis; handing them
    one analysis shares the work.
    """

    def __init__(self, act: Act):
        self.act = act
        self._homs = {}

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
    def end(self):
        return end_monoid(self.act, self.endos)

    @cached_property
    def congruences(self):
        return enumerate_congruences(self.act)

    @cached_property
    def subacts(self):
        return enumerate_subacts(self.act)


def analyse(A: Act | ActAnalysis) -> ActAnalysis:
    """A's analysis: A itself if it already is one, else a fresh one."""
    return A if isinstance(A, ActAnalysis) else ActAnalysis(A)


# -- chain indices ----------------------------------------------------------

def _compose_map(outer, inner):
    return tuple(outer[a] for a in inner)


def _map_powers(mapping, count):
    """mapping^1 .. mapping^count as tuples."""
    powers = [tuple(mapping)]
    for _ in range(count - 1):
        powers.append(_compose_map(powers[-1], mapping))
    return powers


def k_chain_index(f: ActHom) -> int:
    """Least n >= 1 with ker(f^n) = ker(f^(n+1))."""
    prev = partition_from_labels(f.mapping)
    cur_map = tuple(f.mapping)
    for n in range(1, f.source.size + 1):
        cur_map = _compose_map(cur_map, f.mapping)
        part = partition_from_labels(cur_map)
        if part == prev:
            return n
        prev = part
    raise AssertionError("kernel chain must stabilize within |A| steps")


def i_chain_index(f: ActHom) -> int:
    """Least n >= 1 with im(f^n) = im(f^(n+1)); equivalent to equality
    of the image congruences since images are nested."""
    prev = frozenset(f.mapping)
    cur_map = tuple(f.mapping)
    for n in range(1, f.source.size + 1):
        cur_map = _compose_map(cur_map, f.mapping)
        image = frozenset(cur_map)
        if image == prev:
            return n
        prev = image
    raise AssertionError("image chain must stabilize within |A| steps")


@dataclass(frozen=True)
class ChainReport:
    """Stabilization data for a single endomorphism."""

    endo: int
    mapping: tuple
    k_index: int
    i_index: int
    kernel: Congruence
    image: Congruence


def chain_report(A: Act, endo_index: int, f: ActHom) -> ChainReport:
    k = k_chain_index(f)
    i = i_chain_index(f)
    powers = _map_powers(f.mapping, max(k, i))
    kernel = kernel_congruence(ActHom(A, A, powers[k - 1]))
    image = image_congruence(ActHom(A, A, powers[i - 1]))
    return ChainReport(endo_index, tuple(f.mapping), k, i, kernel, image)


# -- Hopfian family ---------------------------------------------------------

def is_hopfian(A: Act | ActAnalysis) -> bool:
    """Every surjective endomorphism is injective.  Always true on finite
    carriers; kept literal as a consistency oracle."""
    return all(f.is_injective() for f in analyse(A).endos if f.is_surjective())


def is_co_hopfian(A: Act | ActAnalysis) -> bool:
    """Every injective endomorphism is surjective."""
    return all(f.is_surjective() for f in analyse(A).endos if f.is_injective())


def _strongly_hopfian_index(A, f, criterion):
    """Least n satisfying the chosen criterion for one endomorphism."""
    size = A.size
    if criterion == 1:
        # adjacent equality, then the whole tail up to 2|A| re-verified
        n = k_chain_index(f)
        powers = _map_powers(f.mapping, 2 * size + 1)
        stable = partition_from_labels(powers[n - 1])
        for m in range(n, 2 * size + 1):
            if partition_from_labels(powers[m - 1]) != stable:
                raise AssertionError("kernel tail not constant after stabilization")
        return n
    if criterion == 2:
        return k_chain_index(f)
    if criterion == 3:
        delta = diagonal(A)
        cur = tuple(f.mapping)
        for n in range(1, 2 * size + 1):
            f_n = ActHom(A, A, cur)
            if meet(image_congruence(f_n), kernel_congruence(f_n)) == delta:
                return n
            cur = _compose_map(cur, f.mapping)
        return None
    raise ValueError(f"criterion must be one of {CRITERIA}")


def _strongly_co_hopfian_index(A, f, criterion):
    size = A.size
    if criterion == 1:
        n = i_chain_index(f)
        powers = _map_powers(f.mapping, 2 * size + 1)
        stable = frozenset(powers[n - 1])
        for m in range(n, 2 * size + 1):
            if frozenset(powers[m - 1]) != stable:
                raise AssertionError("image tail not constant after stabilization")
        return n
    if criterion == 2:
        return i_chain_index(f)
    if criterion == 3:
        full = universal(A)
        cur = tuple(f.mapping)
        for n in range(1, 2 * size + 1):
            f_n = ActHom(A, A, cur)
            if join(image_congruence(f_n), kernel_congruence(f_n)) == full:
                return n
            cur = _compose_map(cur, f.mapping)
        return None
    raise ValueError(f"criterion must be one of {CRITERIA}")


def is_strongly_hopfian(A: Act | ActAnalysis, criterion: int = 1):
    """(flag, index): kernel chains of all endomorphisms stabilize.

    criterion 1 demands a constant tail, 2 one adjacent equality, 3 the
    trivial-intersection condition; index is the worst endomorphism's
    least n for the chosen criterion.
    """
    an = analyse(A)
    worst = 0
    for f in an.endos:
        n = _strongly_hopfian_index(an.act, f, criterion)
        if n is None:
            return False, None
        worst = max(worst, n)
    return True, worst


def is_strongly_co_hopfian(A: Act | ActAnalysis, criterion: int = 1):
    """(flag, index): image chains of all endomorphisms stabilize.

    criterion 3 is the join condition: im/ker congruences of f^n join to
    the universal congruence.
    """
    an = analyse(A)
    worst = 0
    for f in an.endos:
        n = _strongly_co_hopfian_index(an.act, f, criterion)
        if n is None:
            return False, None
        worst = max(worst, n)
    return True, worst


def is_fitting(A: Act | ActAnalysis) -> bool:
    an = analyse(A)
    return is_strongly_hopfian(an, 2)[0] and is_strongly_co_hopfian(an, 2)[0]


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
    homs into A are the endomorphisms themselves.  Returns (flag,
    counterexample).
    """
    an = analyse(A)
    A = an.act
    for B in an.subacts[:-1]:
        sub, members = subact_as_act(B)
        restrictions = {tuple(h.mapping[b] for b in members) for h in an.endos}
        for f in homomorphisms(sub, A):
            if tuple(f.mapping) not in restrictions:
                return False, (B, f)
    return True, None


def is_quasi_projective(A: Act | ActAnalysis):
    """Every hom from A to a factor act lifts through the projection.

    Surjections g: A -> B are covered by the canonical projections
    A -> A/rho: any surjection factors through A/ker(g) by an
    isomorphism.  The diagonal is skipped: A -> A/diagonal is the
    identity, through which every endomorphism lifts.  Returns (flag,
    counterexample).
    """
    an = analyse(A)
    A = an.act
    for rho in an.congruences[1:]:
        quotient, proj = quotient_by_congruence(A, rho)
        lifted = {
            tuple(proj.mapping[h.mapping[a]] for a in range(A.size)) for h in an.endos
        }
        for f in homomorphisms(A, quotient):
            if tuple(f.mapping) not in lifted:
                return False, (rho, f)
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
    E = an.end
    sh, sh_index = is_strongly_hopfian(an, 1)
    sch, sch_index = is_strongly_co_hopfian(an, 1)
    noe, art, n_congs, max_chain = chain_conditions(an)
    report = PropertyReport(
        hopfian=is_hopfian(an),
        co_hopfian=is_co_hopfian(an),
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


def chain_reports(A: Act | ActAnalysis):
    """ChainReport per endomorphism, in canonical End(A) order."""
    an = analyse(A)
    return [chain_report(an.act, i, f) for i, f in enumerate(identity_first(an.endos))]
