"""Homomorphism and endomorphism enumeration.

The hom search is one loop over the images of a minimal generating set
of the source; every chosen image is propagated through the action, so
a candidate either collapses to a full map or dies on a conflict.  A hom
is a plain map: the search returns tuples of images, which any carrier
size fits; `deciders.ActAnalysis` keeps them as `bytes` (at most 255
points), and the functions here that compose maps take byte maps and
compose in C, by `bytes.translate`.  No hom list is searched to decide
whether a map splits: a surjection has a section iff its kernel is an
idempotent endomorphism's (`deciders.ActAnalysis.split_kernels`).
"""

from __future__ import annotations

from itertools import repeat

from .act import Act
from .errors import SearchBudgetExceeded, SizeOverflow, SourceTargetMismatch
from .monoid import SIZE_CAP

DEFAULT_SEARCH_BUDGET = 10**6


def _search(A, B):
    """The hom search A -> B, as its error messages name it."""
    return (f"hom search from a {A.size}-point act to a {B.size}-point act "
            f"over a {A.monoid.size}-element monoid")


def homomorphisms(A: Act, B: Act):
    """All equivariant maps A -> B as image tuples, sorted.

    Every point a is g*s for a generator g, and the image img chosen for
    g sets f(a) = img*s, conflict-checked; for lawful A and B this gives
    f(a*t) = img*(s*t) = (img*s)*t = f(a)*t, so no map is re-checked.
    One loop walks the generators, so no recursion limit bounds the depth;
    level k keeps the next image to try and the points its image set.
    Each (generator, image) attempt costs one node; more than
    DEFAULT_SEARCH_BUDGET nodes raise SearchBudgetExceeded, and a map
    past the first SIZE_CAP raises SizeOverflow, so no hom list (End(A)
    included) grows beyond the cap.  Both messages name the search.
    """
    if A.monoid != B.monoid:
        raise SourceTargetMismatch("acts live over different monoids")
    rows = [A.action[g] for g in A.generators]
    mapping = [-1] * A.size
    next_img, set_by = [0] * len(rows), [[] for _ in rows]
    results, nodes, k = [], 0, 0
    while k >= 0:
        for a in set_by[k]:
            mapping[a] = -1
        set_by[k].clear()
        img = next_img[k]
        if img == B.size:
            next_img[k] = 0
            k -= 1
            continue
        next_img[k] = img + 1
        nodes += 1
        if nodes > DEFAULT_SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                f"{_search(A, B)}: over {DEFAULT_SEARCH_BUDGET} backtrack nodes")
        for a, b in zip(rows[k], B.action[img]):
            if mapping[a] == -1:
                mapping[a] = b
                set_by[k].append(a)
            elif mapping[a] != b:
                break
        else:
            if k + 1 < len(rows):
                k += 1
            elif len(results) == SIZE_CAP:
                raise SizeOverflow(f"{_search(A, B)}: more than {SIZE_CAP} homomorphisms: "
                                   f"search stopped at map {SIZE_CAP + 1}")
            else:
                results.append(tuple(mapping))
    results.sort()
    return results


def endomorphisms(A: Act):
    return homomorphisms(A, A)


def identity_first(endos):
    """`endos` (maps in map order, all tuples or all `bytes`) with the
    identity moved to the front: the canonical End(A) element order,
    in which the chain reports are listed."""
    k = endos.index(type(endos[0])(range(len(endos[0]))))
    return (endos[k], *endos[:k], *endos[k + 1 :])


def induces_all_endomorphisms(h, source_maps, target_maps):
    """For surjective h: A -> B, with h and the maps of End(A)
    (`source_maps`) and End(B) (`target_maps`) all `bytes`: check every
    f in End(B) lifts to some g in End(A) with f o h = h o g.  Returns
    (flag, the first failing f's map)."""
    liftable = set(map(bytes.translate, source_maps, repeat(h.ljust(256, b"\0"))))
    for f in target_maps:
        if h.translate(f.ljust(256, b"\0")) not in liftable:
            return False, f
    return True, None

