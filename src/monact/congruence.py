"""Congruences of an act: action-compatible partitions of the carrier.

Holds the named constructions (diagonal, universal, kernel, image, Rees),
closure of an arbitrary relation to the least congruence containing it,
the lattice operations, and full enumeration by join-closure of principal
congruences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .act import Act, ActHom, Subact
from .errors import CarrierTooLarge, NotACongruence, ParentMismatch
from .relation import (
    Relation,
    canonical_partition,
    diagonal_partition,
    partition_from_labels,
    partition_pairs,
    refines,
    universal_partition,
)

CONGRUENCE_ENUM_CAP = 8


@dataclass(frozen=True)
class Congruence:
    """A congruence in canonical partition form (see relation module)."""

    act: Act
    classes: tuple

    def class_of(self, a: int) -> int:
        for i, cls in enumerate(self.classes):
            if a in cls:
                return i
        raise IndexError(a)

    def related(self, a: int, b: int) -> bool:
        return self.class_of(a) == self.class_of(b)

    def num_classes(self) -> int:
        return len(self.classes)

    def pairs(self):
        return partition_pairs(self.classes)

    def as_relation(self) -> Relation:
        return Relation.from_pairs(self.act.size, self.pairs())

    def is_diagonal(self) -> bool:
        return len(self.classes) == self.act.size

    def is_universal(self) -> bool:
        return len(self.classes) == 1


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


def congruence_closure(A: Act, relation) -> Congruence:
    """Least congruence containing the given relation.

    Union-find worklist: every merge of (a, b) enqueues the translated
    merges (a*s, b*s) until fixpoint.
    """
    if isinstance(relation, Relation):
        seed = relation.pairs
    else:
        seed = relation
    parent = list(range(A.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(int(a), int(b)) for a, b in seed]
    n_s = A.monoid.size
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for s in range(n_s):
            work.append((A.action[a][s], A.action[b][s]))
    fibers = {}
    for a in range(A.size):
        fibers.setdefault(find(a), []).append(a)
    return Congruence(A, canonical_partition(fibers.values()))


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
    """Least congruence containing both, by closure of the union."""
    if rho.act != sigma.act:
        raise ParentMismatch("congruences on different acts")
    seed = []
    for cls in rho.classes + sigma.classes:
        seed.extend(zip(cls, cls[1:]))
    return congruence_closure(rho.act, seed)


def principal_congruence(A: Act, a: int, b: int) -> Congruence:
    return congruence_closure(A, [(a, b)])


def enumerate_congruences(A: Act, cap: int = CONGRUENCE_ENUM_CAP):
    """All congruences of A, via join-closure of the principal ones.

    Canonical output order: number of classes descending (diagonal
    first, universal last), ties by class encoding.
    """
    if A.size > cap:
        raise CarrierTooLarge(f"carrier size {A.size} exceeds cap {cap}")
    base = {diagonal(A).classes: diagonal(A)}
    for a in range(A.size):
        for b in range(a + 1, A.size):
            c = principal_congruence(A, a, b)
            base.setdefault(c.classes, c)
    found = dict(base)
    frontier = list(base.values())
    while frontier:
        nxt = []
        for c in frontier:
            for d in list(found.values()):
                j = join(c, d)
                if j.classes not in found:
                    found[j.classes] = j
                    nxt.append(j)
        frontier = nxt
    result = sorted(found.values(), key=lambda c: (-len(c.classes), c.classes))
    return result


def congruence_refines(rho: Congruence, sigma: Congruence) -> bool:
    """rho <= sigma in the congruence lattice (rho's classes sit inside sigma's)."""
    return refines(rho.classes, sigma.classes)
