"""Partitions on finite carriers {0..n-1}.

Partitions are stored as least-member label tuples: `labels[a]` is the
smallest member of a's class, so equal partitions have equal labels.
`label_classes` reads the classes off (members ascending, classes by
smallest member).
"""

__all__ = ["least_labels", "label_classes"]


def least_labels(keys):
    """Least-member labels of the fibers of `keys`: entry a is the first
    index whose key equals keys[a]."""
    keys = tuple(keys)
    return tuple(map(keys.index, keys))


def label_classes(labels):
    """The fibers of a label sequence, in one pass: members ascending,
    classes in order of their smallest member, so any labels of one
    partition give the same classes."""
    classes = {}
    for a, lead in enumerate(labels):
        classes.setdefault(lead, []).append(a)
    return tuple(map(tuple, classes.values()))
