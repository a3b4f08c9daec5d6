"""Homomorphism and endomorphism enumeration, and End(A) as a monoid.

Enumeration backtracks over images of a minimal generating set of the
source; every chosen image is propagated through the action, so a
candidate either collapses to a full map or dies on a conflict.  Maps
are tuples; compositions run in C, on `bytes` maps or by `itemgetter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .act import Act, ActHom
from .errors import SearchBudgetExceeded, SizeOverflow, SizeTooLarge, SourceTargetMismatch
from .monoid import SIZE_CAP, Monoid, validate_monoid

DEFAULT_SEARCH_BUDGET = 10**6


def homomorphisms(A: Act, B: Act):
    """All equivariant maps A -> B, sorted by their full map tuple.

    Every point a is g*s for a generator g, and the image img chosen for
    g sets f(a) = img*s, conflict-checked; for lawful A and B this gives
    f(a*t) = img*(s*t) = (img*s)*t = f(a)*t, so no map is re-checked.
    Each (generator, image) attempt costs one node; more than
    DEFAULT_SEARCH_BUDGET nodes raise SearchBudgetExceeded, and a map
    past the first SIZE_CAP raises SizeOverflow, so no hom list (End(A)
    included) grows beyond the cap.  Both messages name the search.
    """
    if A.monoid != B.monoid:
        raise SourceTargetMismatch("acts live over different monoids")
    gens = A.generators
    n_s = A.monoid.size
    mapping = [-1] * A.size
    results = []
    nodes = 0
    budget = DEFAULT_SEARCH_BUDGET
    search = (f"hom search from a {A.size}-point act to a {B.size}-point act "
              f"over a {n_s}-element monoid")

    def backtrack(k):
        nonlocal nodes
        if k == len(gens):
            if len(results) == SIZE_CAP:
                raise SizeOverflow(
                    f"{search}: more than {SIZE_CAP} homomorphisms: "
                    f"search stopped at map {SIZE_CAP + 1}"
                )
            results.append(tuple(mapping))
            return
        g = gens[k]
        row_g = A.action[g]
        for img in range(B.size):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"{search}: over {budget} backtrack nodes")
            row_img = B.action[img]
            undo = []
            ok = True
            for s in range(n_s):
                a2, b2 = row_g[s], row_img[s]
                cur = mapping[a2]
                if cur == -1:
                    mapping[a2] = b2
                    undo.append(a2)
                elif cur != b2:
                    ok = False
                    break
            if ok:
                backtrack(k + 1)
            for a2 in undo:
                mapping[a2] = -1

    backtrack(0)
    results.sort()
    return [ActHom(A, B, m) for m in results]


def endomorphisms(A: Act):
    return homomorphisms(A, A)


@dataclass(frozen=True)
class EndMonoid:
    """End(A) under composition (f*g)(a) = f(g(a)).

    `elements[i]` is the endomorphism behind monoid index i; the identity
    endomorphism sits at index 0 and the rest keep lexicographic map
    order, matching the monoid normal form.
    """

    monoid: Monoid
    elements: tuple
    act: Act


def identity_first(endos):
    """`endos` (in map order) with the identity endomorphism moved to the
    front: the canonical End(A) element order, read off without building
    the composition table."""
    ident = tuple(range(len(endos[0].mapping)))
    k = next(i for i, f in enumerate(endos) if f.mapping == ident)
    return (endos[k],) + tuple(endos[:k]) + tuple(endos[k + 1 :])


def end_monoid(A: Act, endos=None) -> EndMonoid:
    """End(A), built from `endos` when the caller already holds
    `endomorphisms(A)`; the hom search keeps it within SIZE_CAP.

    Row f of the table, f o g over every g, is one `bytes.translate`
    per cell through f's rename table, so carriers stop at 255 points.
    `classify_act` builds the table only for its size and commutativity
    flag; a finite monoid is always strongly pi-regular (Drazin).
    """
    if A.size > 255:
        raise SizeTooLarge(f"End(A): carrier size {A.size} exceeds the byte-map cap of 255")
    if endos is None:
        endos = endomorphisms(A)
    elements = identity_first(endos)
    maps = [bytes(f.mapping) for f in elements]
    idx = {m: i for i, m in enumerate(maps)}.__getitem__
    raw = [tuple(map(idx, map(bytes.translate, maps, repeat(f.ljust(256, b"\0"))))) for f in maps]
    # identity already first, so the checked constructor relabels nothing
    return EndMonoid(validate_monoid(len(elements), raw), elements, A)


def is_commutative(E: EndMonoid) -> bool:
    t = E.monoid.table
    n = E.monoid.size
    return all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))


@dataclass(frozen=True)
class Retract:
    """Witness that gamma's source is a retract of its target."""

    gamma: ActHom
    pi: ActHom
    proper: bool


def is_retract_of(into, back):
    """First (gamma, pi) with pi o gamma = id_A, or None.

    `into` holds the homs A -> B and `back` the homs B -> A, each in map
    order; the search takes gamma in that order, then pi.  `proper` flags
    a non-bijective gamma; since pi o gamma = id forces gamma injective,
    properness depends only on the carrier sizes.
    """
    for gamma in into:
        if not gamma.is_injective():
            continue
        # pi o gamma = id iff pi agrees with gamma's inverse on its image
        at_image = itemgetter(*gamma.mapping)
        ident = at_image(dict(zip(gamma.mapping, range(gamma.source.size))))
        for pi in back:
            if at_image(pi.mapping) == ident:
                return Retract(gamma, pi, not gamma.is_surjective())
    return None


def induces_all_endomorphisms(h: ActHom, source_maps, target_maps):
    """For surjective h: A -> B, with `source_maps` and `target_maps` the
    maps of End(A) and End(B) as `bytes`: check every f in End(B) lifts
    to some g in End(A) with f o h = h o g.  Returns (flag, the first
    failing f's map)."""
    hm = bytes(h.mapping)
    liftable = set(map(bytes.translate, source_maps, repeat(hm.ljust(256, b"\0"))))
    for f in target_maps:
        if hm.translate(f.ljust(256, b"\0")) not in liftable:
            return False, f
    return True, None


def has_section(h: ActHom, back) -> bool:
    """True iff some s in `back`, the homs B -> A for h: A -> B,
    satisfies h o s = id_B."""
    rename, ident = bytes(h.mapping).ljust(256, b"\0"), bytes(range(h.target.size))
    return any(bytes(s.mapping).translate(rename) == ident for s in back)
