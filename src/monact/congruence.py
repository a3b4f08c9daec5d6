"""Congruences of an act: action-compatible partitions of the carrier.

A congruence is stored as a least-member label tuple: `labels[a]` is
the smallest member of a's class.  Every operation works on that array
form (Freese, "Computing congruences efficiently", Algebra Universalis
59, 2008): meet labels the pairs of labels, and a join is a partition
join, `_merge`.  Only seeds that are not congruences are closed under the
action, by `_close`.  Inside these two kernels the labels are `bytes`, so
a class merge is one `bytes.replace` and carriers stop at 255 points
(`congruence_closure` and `join` refuse larger ones); `Congruence.labels`
stays a tuple.  Enumeration joins each congruence found with the
distinct principal congruences only, and reads the longest chain off
those join steps.  The classes are derived from the labels on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import CarrierTooLarge, NotACongruence, ParentMismatch, SizeTooLarge
from .relation import label_classes, least_labels

if TYPE_CHECKING:
    from .act import Act, Subact

CONGRUENCE_ENUM_CAP = 8
BYTE = [bytes((i,)) for i in range(256)]  # label i as a one-byte string


@dataclass(frozen=True)
class Congruence:
    """A congruence as least-member labels (see the module docstring).

    `height` is the number of congruences in a longest chain from the
    diagonal up to this one, both ends counted (the diagonal's is 1).
    `enumerate_congruences` sets it; it is None on congruences built any
    other way, and equality ignores it.
    """

    act: Act
    labels: tuple
    height: int | None = field(default=None, compare=False, repr=False)

    @cached_property
    def classes(self):
        """The classes, members ascending, sorted by smallest member."""
        return label_classes(self.labels)

    def related(self, a: int, b: int) -> bool:
        return self.labels[a] == self.labels[b]


def congruence(A: Act, classes) -> Congruence:
    """Checked constructor: partition of the carrier, action-compatible."""
    labels = [None] * A.size
    for cls in map(tuple, classes):
        lead = min(cls, default=None)
        for a in cls:
            if not 0 <= a < A.size or labels[a] is not None:
                raise NotACongruence("not a partition of the carrier")
            labels[a] = lead
    if None in labels:
        raise NotACongruence("partition misses carrier elements")
    for a, rep in enumerate(labels):
        for s in range(A.monoid.size):
            if labels[A.action[rep][s]] != labels[A.action[a][s]]:
                raise NotACongruence(f"classes split under the action at ({rep},{a})*{s}")
    return Congruence(A, tuple(labels))


def diagonal(A: Act) -> Congruence:
    return Congruence(A, tuple(range(A.size)))


def universal(A: Act) -> Congruence:
    return Congruence(A, (0,) * A.size)


def _close(A: Act, labels: bytes, pairs) -> bytes:
    """Byte labels of the least congruence containing a congruence and pairs.

    `labels[x]` is the least member of x's class in a congruence, so the
    start is already action-compatible and only a new merge of (a, b)
    pushes its translations (a*s, b*s).  A merge relabels the class of
    the larger root to the smaller one (quick-find), so the labels stay
    least-member labels: canonical and hashable.
    """
    action = A.action
    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = labels[a], labels[b]
        if ra == rb:
            continue
        if ra > rb:
            ra, rb = rb, ra
        labels = labels.replace(BYTE[rb], BYTE[ra])
        work.extend(zip(action[a], action[b]))
    return labels


def _merge(labels: bytes, pairs):
    """(labels, merges): the partition join of byte labels and pairs by
    the relabel of `_close`, pushing no translations, and its merge count."""
    merges = 0
    for a, b in pairs:
        ra, rb = labels[a], labels[b]
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            labels = labels.replace(BYTE[rb], BYTE[ra])
            merges += 1
    return labels, merges


def congruence_closure(A: Act, pairs) -> Congruence:
    """Least congruence containing the given pairs."""
    if A.size > 255:
        raise SizeTooLarge(
            f"congruence closure: carrier size {A.size} exceeds the byte-label cap of 255")
    seeds = [(int(a), int(b)) for a, b in pairs]
    return Congruence(A, tuple(_close(A, bytes(range(A.size)), seeds)))


def _check_map(A: Act, f, what):
    if len(f) != A.size:
        raise ParentMismatch(f"{what}: map has {len(f)} points, the act {A.size}")


def kernel_congruence(A: Act, f) -> Congruence:
    """Pairs identified by the hom f out of A (a tuple or `bytes` map),
    as a congruence on A."""
    _check_map(A, f, "kernel congruence")
    return Congruence(A, least_labels(f))


def _collapse_labels(size, members):
    """Labels of `members` as one class, singletons elsewhere."""
    members = set(members)
    lead = min(members)
    return tuple(lead if a in members else a for a in range(size))


def image_congruence(A: Act, f) -> Congruence:
    """(im f x im f) | diagonal, for an endomorphism f of A (a tuple or
    `bytes` map)."""
    _check_map(A, f, "image congruence")
    if min(f) < 0 or max(f) >= A.size:
        raise ParentMismatch("image congruence needs an endomorphism")
    return Congruence(A, _collapse_labels(A.size, f))


def rees_congruence(A: Act, B: Subact) -> Congruence:
    """One class for the subact, singletons elsewhere."""
    if B.parent != A:
        raise ParentMismatch("subact belongs to a different act")
    return Congruence(A, _collapse_labels(A.size, B.members))


def _meet_labels(rho, sigma):
    """Classwise intersection of two labellings: a's pair of labels keys its class."""
    return least_labels(zip(rho, sigma))


def meet(rho: Congruence, sigma: Congruence) -> Congruence:
    """Classwise intersection, by `_meet_labels`."""
    if rho.act != sigma.act:
        raise ParentMismatch("congruences on different acts")
    return Congruence(rho.act, _meet_labels(rho.labels, sigma.labels))


def join(rho: Congruence, sigma: Congruence) -> Congruence:
    """Least congruence containing both: their partition join, which is a
    congruence because a chain a = c0 rho c1 sigma c2 ... b gives the
    chain a*s = c0*s rho c1*s sigma c2*s ... b*s."""
    if rho.act != sigma.act:
        raise ParentMismatch("congruences on different acts")
    if rho.act.size > 255:
        raise SizeTooLarge(
            f"join: carrier size {rho.act.size} exceeds the byte-label cap of 255")
    return Congruence(rho.act, tuple(_merge(bytes(rho.labels), enumerate(sigma.labels))[0]))


def enumerate_congruences(A: Act):
    """All congruences of A, each with its height set.

    Every congruence is the join of the principal congruences Cg(a, b)
    of its pairs, so joining each congruence found with each distinct
    principal congruence, starting from the diagonal, reaches them all:
    n(n-1)/2 closures and at most p|L| partition joins for p distinct
    principal congruences and a lattice L.  A step theta -> theta v Cg(a, b)
    with theta(a) != theta(b) lowers the class count by its merges, and
    every cover theta < psi is such a step (take (a, b) in psi, not theta).
    Congruences are therefore expanded in order of class count,
    descending, and each one's height is final when it is expanded.

    Canonical output order: number of classes descending (diagonal
    first, universal last), ties by class encoding.
    """
    if A.size > CONGRUENCE_ENUM_CAP:
        raise CarrierTooLarge(
            f"congruence enumeration: carrier size {A.size} exceeds cap {CONGRUENCE_ENUM_CAP}")
    n = A.size
    bottom = bytes(range(n))
    generators = {}  # Cg(a, b) -> a, b and its pairs (x, label of x) off the diagonal
    for a in range(n):
        for b in range(a + 1, n):
            cg = _close(A, bottom, [(a, b)])
            generators.setdefault(cg, (a, b, [(x, lx) for x, lx in enumerate(cg) if x != lx]))
    generators = list(generators.values())
    height = {bottom: 1}
    by_classes = [[] for _ in range(n + 1)]
    by_classes[n].append(bottom)
    for count in range(n, 0, -1):
        for theta in by_classes[count]:
            up = height[theta] + 1
            for a, b, pairs in generators:
                if theta[a] == theta[b]:
                    continue
                psi, merges = _merge(theta, pairs)
                h = height.get(psi)
                if h is None:
                    by_classes[count - merges].append(psi)
                if h is None or h < up:
                    height[psi] = up
    congs = [Congruence(A, tuple(labels), h) for labels, h in height.items()]
    congs.sort(key=lambda c: (-len(c.classes), c.classes))
    return congs
