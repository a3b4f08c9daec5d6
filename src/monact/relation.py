"""Binary relations and partitions on finite carriers {0..n-1}.

Relations are plain sets of index pairs.  Partitions are stored as
least-member label tuples: `labels[a]` is the smallest member of a's
class, so equal partitions have equal labels.  `label_classes` reads
the classes off (members ascending, classes by smallest member), the
form `Relation.to_partition` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnEquivalence

__all__ = ["Relation", "least_labels", "label_classes"]


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
        points = range(self.size)
        return label_classes([min(b for b in points if (a, b) in self.pairs) for a in points])


def least_labels(keys):
    """Least-member labels of the fibers of `keys`: entry a is the first
    index whose key equals keys[a]."""
    keys = tuple(keys)
    return tuple(map(keys.index, keys))


def label_classes(labels):
    """The classes of a least-member labelling, in one pass: members
    ascending, classes in order of their smallest member (the label,
    which first occurs at its own index)."""
    classes = {}
    for a, lead in enumerate(labels):
        classes.setdefault(lead, []).append(a)
    return tuple(map(tuple, classes.values()))
