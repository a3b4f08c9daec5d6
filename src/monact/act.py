"""Finite right acts over a monoid: carriers, subacts, the factor act
by a congruence with its projection, a plain map tuple like every hom
(the Rees factor A/B is the factor by `congruence.rees_congruence`),
and canonical forms of flat action tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from .congruence import CONGRUENCE_ENUM_CAP, Congruence
from .errors import (
    AssociativityAxiomFails,
    CarrierTooLarge,
    EntryOutOfRange,
    IdentityAxiomFails,
    NotACongruence,
)
from .monoid import Monoid, check_shape, light_test_failure


@dataclass(frozen=True)
class Act:
    """Right action table: action[a][s] = a*s, one row per carrier element."""

    monoid: Monoid
    size: int
    action: tuple

    @cached_property
    def generators(self):
        """`minimal_generating_set` of the act, computed on first use."""
        return minimal_generating_set(self)


@dataclass(frozen=True)
class Subact:
    """A non-empty action-closed subset, members sorted ascending."""

    parent: Act
    members: tuple


def validate_act(M: Monoid, size: int, action) -> Act:
    """Checked constructor: both act axioms, witnesses in the input labels.

    The axiom a*(s*t) = (a*s)*t is decided by Light's test for acts: the
    elements g with a*(g*u) = (a*g)*u for all a, u contain the identity
    and are closed under products, because M is a lawful monoid, so the
    axiom holds once every generator of the greedy generating set G of M
    passes.  That costs size*|G| row comparisons instead of
    size*|M|^2 lookups.  Only a table that fails it is scanned triple by
    triple, for the first failing (a, s, t).
    """
    action = tuple(tuple(row) for row in action)
    if size < 1:
        raise EntryOutOfRange("carrier must be non-empty")
    check_shape(action, size, M.size)
    for a in range(size):
        if action[a][0] != a:
            raise IdentityAxiomFails(a)
    if light_test_failure(M.table, 0, action) is not None:
        for a in range(size):
            for s in range(M.size):
                a_s = action[a][s]
                for t in range(M.size):
                    if action[a][M.table[s][t]] != action[a_s][t]:
                        raise AssociativityAxiomFails(a, s, t)
    return Act(M, size, action)


def regular_act(M: Monoid) -> Act:
    """The monoid acting on itself by right multiplication."""
    return Act(M, M.size, M.table)


def subact(A: Act, members) -> Subact:
    """Checked constructor: members non-empty and closed under the action."""
    members = tuple(sorted(set(members)))
    if not members:
        raise ValueError("subacts are non-empty")
    member_set = set(members)
    for b in members:
        for s in range(A.monoid.size):
            if A.action[b][s] not in member_set:
                raise ValueError(f"not closed: {b}*{s} leaves the subset")
    return Subact(A, members)


def subact_generated(A: Act, xs) -> Subact:
    """Smallest subact containing xs, i.e. the union of the orbits x*S."""
    xs = set(xs)
    if not xs:
        raise ValueError("generating set must be non-empty")
    members = set()
    for x in xs:
        members.update(A.action[x])
    return Subact(A, tuple(sorted(members)))


def minimal_generating_set(A: Act):
    """Minimum-cardinality generating subset, lexicographically first:
    the least points of the maximal cyclic subacts xS.  A maximal class
    is reached only from itself and every point lies below one, so the
    minimum generating sets are the transversals of the maximal classes,
    and moving each point to its class minimum lowers every order
    statistic.  One pass over the rows y drops each x in yS with y < x
    or y outside xS."""
    rows = [set(row) for row in A.action]
    beaten = set()
    for y, row in enumerate(rows):
        beaten.update(x for x in row if x > y or y not in rows[x])
    return tuple(x for x in range(A.size) if x not in beaten)


def subact_as_act(B: Subact):
    """B as an act in its own right; returns (act, embedding).

    embedding[i] is the parent-carrier element of sub-carrier index i.
    """
    parent = B.parent
    index = {b: i for i, b in enumerate(B.members)}
    action = tuple(
        tuple(index[parent.action[b][s]] for s in range(parent.monoid.size))
        for b in B.members
    )
    return Act(parent.monoid, len(B.members), action), B.members


def enumerate_subacts(A: Act):
    """All subacts, ordered by (size, members).  Every subset is tried,
    so carriers above CONGRUENCE_ENUM_CAP are refused first."""
    if A.size > CONGRUENCE_ENUM_CAP:
        raise CarrierTooLarge(
            f"subact enumeration: carrier size {A.size} exceeds cap {CONGRUENCE_ENUM_CAP}"
        )
    n_s = A.monoid.size
    closed = []
    for k in range(1, A.size + 1):
        for members in combinations(range(A.size), k):
            mset = set(members)
            if all(A.action[b][s] in mset for b in members for s in range(n_s)):
                closed.append(Subact(A, members))
    return closed


def quotient_by_congruence(A: Act, rho: Congruence):
    """Factor act A/rho plus the canonical projection, as the tuple of
    class indices over A's carrier.

    Classes are indexed by their smallest original element.  Raises
    NotACongruence if the partition is not action-compatible.
    """
    if rho.act != A:
        raise NotACongruence("congruence belongs to a different act")
    leaders = sorted(set(rho.labels))
    index = {lead: i for i, lead in enumerate(leaders)}
    class_of = tuple(index[lead] for lead in rho.labels)
    rows = [tuple(class_of[b] for b in row) for row in A.action]
    if any(rows[a] != rows[lead] for a, lead in enumerate(rho.labels)):
        raise NotACongruence("partition is not action-compatible")
    quotient = Act(A.monoid, len(leaders), tuple(rows[lead] for lead in leaders))
    return quotient, class_of


def least_relabelling(table, m, n):
    """(form, names) for a flat action table over m points, row a at
    a*n .. a*n+n-1: form is the least of its m! relabellings (the act's
    canonical form, so two tables are isomorphic acts iff their forms
    are equal) and names the 256-byte rename table of one relabelling
    that gives it, point a -> names[a].  A relabelling that gives point
    order[i] the label i lists the rows in that order and renames their
    entries."""
    rows = [table[a * n : a * n + n] for a in range(m)]
    best = None
    for order in permutations(range(m)):
        names = bytes(sorted(range(m), key=order.__getitem__)).ljust(256, b"\0")
        image = b"".join([rows[a] for a in order]).translate(names)
        if best is None or image < best[0]:
            best = image, names
    return best
