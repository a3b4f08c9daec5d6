"""Homomorphism and endomorphism enumeration, and End(A) as a monoid.

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

from dataclasses import dataclass
from itertools import repeat

from .act import Act
from .errors import SearchBudgetExceeded, SizeOverflow, SizeTooLarge, SourceTargetMismatch
from .monoid import SIZE_CAP, Monoid, validate_monoid

DEFAULT_SEARCH_BUDGET = 10**6


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
    search = (f"hom search from a {A.size}-point act to a {B.size}-point act "
              f"over a {A.monoid.size}-element monoid")
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
            raise SearchBudgetExceeded(f"{search}: over {DEFAULT_SEARCH_BUDGET} backtrack nodes")
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
                raise SizeOverflow(f"{search}: more than {SIZE_CAP} homomorphisms: "
                                   f"search stopped at map {SIZE_CAP + 1}")
            else:
                results.append(tuple(mapping))
    results.sort()
    return results


def endomorphisms(A: Act):
    return homomorphisms(A, A)


@dataclass(frozen=True)
class EndMonoid:
    """End(A) under composition (f*g)(a) = f(g(a)).

    `elements[i]` is the byte map of the endomorphism behind monoid index
    i; the identity endomorphism sits at index 0 and the rest keep
    lexicographic map order, matching the monoid normal form.
    """

    monoid: Monoid
    elements: tuple
    act: Act


def identity_first(endos):
    """`endos` (maps in map order, all tuples or all `bytes`) with the
    identity moved to the front: the canonical End(A) element order,
    read off without building the composition table."""
    k = endos.index(type(endos[0])(range(len(endos[0]))))
    return (endos[k], *endos[:k], *endos[k + 1 :])


def end_monoid(A: Act, endos=None) -> EndMonoid:
    """End(A), built from `endos` when the caller already holds the
    endomorphisms, as tuples or byte maps; the hom search keeps it within
    SIZE_CAP.

    Row f of the table, f o g over every g, is one `bytes.translate`
    per cell through f's rename table, so carriers stop at 255 points.
    `classify_act` reads its size and commutativity once per distinct
    endomorphism list; a finite monoid is strongly pi-regular (Drazin).
    """
    if A.size > 255:
        raise SizeTooLarge(f"End(A): carrier size {A.size} exceeds the byte-map cap of 255")
    endos = list(map(bytes, endomorphisms(A) if endos is None else endos))
    elements = identity_first(endos)
    idx = {m: i for i, m in enumerate(elements)}.__getitem__
    raw = [tuple(map(idx, map(bytes.translate, elements, repeat(f.ljust(256, b"\0")))))
           for f in elements]
    # identity already first, so the checked constructor relabels nothing
    return EndMonoid(validate_monoid(len(elements), raw), elements, A)


def is_commutative(E: EndMonoid) -> bool:
    t = E.monoid.table
    n = E.monoid.size
    return all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))


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

