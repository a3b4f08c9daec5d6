"""Binary relations and partitions on finite carriers {0..n-1}.

Relations are plain sets of index pairs.  Partitions use one canonical
form everywhere: classes sorted internally, then sorted by smallest
member.  All congruence machinery builds on these two forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnEquivalence

__all__ = [
    "Relation",
    "canonical_partition",
    "partition_from_labels",
    "diagonal_partition",
    "universal_partition",
    "refines",
]


@dataclass(frozen=True)
class Relation:
    """A binary relation on {0..size-1}, kept as a set of pairs."""

    size: int
    pairs: frozenset

    @staticmethod
    def from_pairs(size: int, pairs) -> Relation:
        return Relation(size, frozenset((int(a), int(b)) for a, b in pairs))

    def has(self, a: int, b: int) -> bool:
        return (a, b) in self.pairs

    def is_reflexive(self) -> bool:
        return all((a, a) in self.pairs for a in range(self.size))

    def is_symmetric(self) -> bool:
        return all((b, a) in self.pairs for a, b in self.pairs)

    def is_transitive(self) -> bool:
        succ = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        for a, b in self.pairs:
            for c in succ.get(b, ()):
                if (a, c) not in self.pairs:
                    return False
        return True

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def to_partition(self):
        """Classes of an equivalence relation, in canonical form.

        Raises NotAnEquivalence for any other relation.
        """
        if not self.is_equivalence():
            raise NotAnEquivalence("relation is not reflexive, symmetric and transitive")
        seen = set()
        classes = []
        for a in range(self.size):
            if a in seen:
                continue
            cls = sorted(b for b in range(self.size) if (a, b) in self.pairs)
            seen.update(cls)
            classes.append(tuple(cls))
        return tuple(classes)


def canonical_partition(classes):
    """Normalize an iterable of classes: sort members, sort by smallest."""
    return tuple(sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0]))


def partition_from_labels(labels):
    """Partition of range(len(labels)) into fibers of the label sequence."""
    fibers = {}
    for i, lab in enumerate(labels):
        fibers.setdefault(lab, []).append(i)
    return canonical_partition(fibers.values())


def diagonal_partition(n):
    return tuple((a,) for a in range(n))


def universal_partition(n):
    return (tuple(range(n)),)


def refines(fine, coarse):
    """True iff every class of `fine` lies inside one class of `coarse`."""
    block_of = {}
    for i, cls in enumerate(coarse):
        for a in cls:
            block_of[a] = i
    return all(len({block_of[a] for a in cls}) == 1 for cls in fine)
