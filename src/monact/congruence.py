"""Congruences of an act: action-compatible partitions of the carrier.

Holds the named constructions (diagonal, universal, kernel, image, Rees),
closure of an arbitrary relation to the least congruence containing it,
the lattice operations, and full enumeration.  Closure, join and
enumeration share one closure kernel, `_close`, on least-member label
tuples.  Enumeration joins each congruence found with the distinct
principal congruences only, and reads the longest chain off those join
steps (Freese, "Computing congruences efficiently", Algebra Universalis
59, 2008).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .act import Act, ActHom, Subact
from .errors import CarrierTooLarge, NotACongruence, ParentMismatch
from .relation import (
    Relation,
    canonical_partition,
    diagonal_partition,
    partition_from_labels,
    refines,
    universal_partition,
)

CONGRUENCE_ENUM_CAP = 8


@dataclass(frozen=True)
class Congruence:
    """A congruence in canonical partition form (see relation module).

    `height` is the number of congruences in a longest chain from the
    diagonal up to this one, both ends counted (the diagonal's is 1).
    `enumerate_congruences` sets it; it is None on congruences built any
    other way, and equality ignores it.
    """

    act: Act
    classes: tuple
    height: int | None = field(default=None, compare=False, repr=False)

    def class_of(self, a: int) -> int:
        for i, cls in enumerate(self.classes):
            if a in cls:
                return i
        raise IndexError(a)

    def related(self, a: int, b: int) -> bool:
        return self.class_of(a) == self.class_of(b)


def congruence(A: Act, classes) -> Congruence:
    """Checked constructor: partition of the carrier, action-compatible."""
    classes = canonical_partition(classes)
    seen = [False] * A.size
    for cls in classes:
        for a in cls:
            if not 0 <= a < A.size or seen[a]:
                raise NotACongruence("not a partition of the carrier")
            seen[a] = True
    if not all(seen):
        raise NotACongruence("partition misses carrier elements")
    block = {}
    for i, cls in enumerate(classes):
        for a in cls:
            block[a] = i
    for cls in classes:
        rep = cls[0]
        for a in cls[1:]:
            for s in range(A.monoid.size):
                if block[A.action[rep][s]] != block[A.action[a][s]]:
                    raise NotACongruence(
                        f"classes split under the action at ({rep},{a})*{s}"
                    )
    return Congruence(A, classes)


def diagonal(A: Act) -> Congruence:
    return Congruence(A, diagonal_partition(A.size))


def universal(A: Act) -> Congruence:
    return Congruence(A, universal_partition(A.size))


def _close(A: Act, labels, pairs):
    """Labels of the least congruence containing a congruence and pairs.

    `labels[x]` is the least member of x's class in a congruence, so the
    start is already action-compatible and only a new merge of (a, b)
    pushes its translations (a*s, b*s).  A merge relabels the class of
    the larger root to the smaller one (quick-find), so the labels stay
    least-member labels: canonical and hashable.
    """
    labels = list(labels)
    action = A.action
    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = labels[a], labels[b]
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        labels = [ra if x == rb else x for x in labels]
        work.extend(zip(action[a], action[b]))
    return tuple(labels)


def congruence_closure(A: Act, relation) -> Congruence:
    """Least congruence containing the given relation."""
    seed = relation.pairs if isinstance(relation, Relation) else relation
    labels = _close(A, range(A.size), [(int(a), int(b)) for a, b in seed])
    return Congruence(A, partition_from_labels(labels))


def kernel_congruence(f: ActHom) -> Congruence:
    """Pairs identified by f, as a partition of the source carrier."""
    return Congruence(f.source, partition_from_labels(f.mapping))


def image_congruence(f: ActHom) -> Congruence:
    """(im f x im f) | diagonal, for an endomorphism f."""
    if f.source != f.target:
        raise ParentMismatch("image congruence needs an endomorphism")
    image = set(f.mapping)
    classes = [tuple(sorted(image))] + [(a,) for a in range(f.source.size) if a not in image]
    return Congruence(f.source, canonical_partition(classes))


def rees_congruence(A: Act, B: Subact) -> Congruence:
    """One class for the subact, singletons elsewhere."""
    if B.parent != A:
        raise ParentMismatch("subact belongs to a different act")
    members = set(B.members)
    classes = [B.members] + [(a,) for a in range(A.size) if a not in members]
    return Congruence(A, canonical_partition(classes))


def meet(rho: Congruence, sigma: Congruence) -> Congruence:
    """Classwise intersection."""
    if rho.act != sigma.act:
        raise ParentMismatch("congruences on different acts")
    block = {}
    for i, cls in enumerate(sigma.classes):
        for a in cls:
            block[a] = i
    pieces = {}
    for i, cls in enumerate(rho.classes):
        for a in cls:
            pieces.setdefault((i, block[a]), []).append(a)
    return Congruence(rho.act, canonical_partition(pieces.values()))


def join(rho: Congruence, sigma: Congruence) -> Congruence:
    """Least congruence containing both: rho closed under sigma's pairs."""
    if rho.act != sigma.act:
        raise ParentMismatch("congruences on different acts")
    least = {a: cls[0] for cls in rho.classes for a in cls}
    seed = [pair for cls in sigma.classes for pair in zip(cls, cls[1:])]
    labels = _close(rho.act, [least[a] for a in range(rho.act.size)], seed)
    return Congruence(rho.act, partition_from_labels(labels))


def enumerate_congruences(A: Act, cap: int = CONGRUENCE_ENUM_CAP):
    """All congruences of A, each with its height set.

    Every congruence is the join of the principal congruences Cg(a, b)
    of its pairs, so joining each congruence found with each distinct
    principal congruence, starting from the diagonal, reaches them all:
    at most n(n-1)/2 + p|L| closures for p distinct principal
    congruences and a lattice L.  A step theta -> theta v Cg(a, b) with
    theta(a) != theta(b) lowers the class count, and every cover
    theta < psi is such a step (take any (a, b) in psi but not theta).
    Congruences are therefore expanded in order of class count,
    descending, and each one's height is final when it is expanded.

    Canonical output order: number of classes descending (diagonal
    first, universal last), ties by class encoding.
    """
    if A.size > cap:
        raise CarrierTooLarge(f"carrier size {A.size} exceeds cap {cap}")
    n = A.size
    bottom = tuple(range(n))
    generators = {}
    for a in range(n):
        for b in range(a + 1, n):
            generators.setdefault(_close(A, bottom, [(a, b)]), (a, b))
    height = {bottom: 1}
    by_classes = [[] for _ in range(n + 1)]
    by_classes[n].append(bottom)
    for count in range(n, 0, -1):
        for theta in by_classes[count]:
            up = height[theta] + 1
            for a, b in generators.values():
                if theta[a] == theta[b]:
                    continue
                psi = _close(A, theta, [(a, b)])
                if psi not in height:
                    by_classes[len(set(psi))].append(psi)
                height[psi] = max(height.get(psi, 0), up)
    congs = [Congruence(A, partition_from_labels(labels), h) for labels, h in height.items()]
    congs.sort(key=lambda c: (-len(c.classes), c.classes))
    return congs


def congruence_refines(rho: Congruence, sigma: Congruence) -> bool:
    """rho <= sigma in the congruence lattice (rho's classes sit inside sigma's)."""
    return refines(rho.classes, sigma.classes)
