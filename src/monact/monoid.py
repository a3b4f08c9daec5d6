"""Finite monoids as multiplication tables, identity pinned at index 0.

`validate_monoid` is the checked constructor: it verifies the axioms and
relabels so the identity sits at index 0 (identity first, remaining
elements keep their relative order).  Associativity is checked by
Light's test (Clifford & Preston, *The Algebraic Theory of Semigroups*
vol. 1, section 1.2) against a greedy generating set G, which costs
O(n^2 * |G|) rather than the O(n^3) of checking every triple; G is
usually tiny (3 for Z/256, 5 for the 3125-element End of a 5-point set).
`act.validate_act` checks the act axiom against the same generating
set.  The family constructors (`direct_product`, `zmod_mult_monoid`,
`prime_power_product`) build tables that are associative by
construction and skip the check, which matters for product monoids
with ~10^3 elements; `direct_product` assembles each row from
precomputed blocks, one factor at a time, instead of encoding every
entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count
from math import isqrt
from operator import itemgetter, ne

from .errors import EntryOutOfRange, NoIdentity, NotAssociative, NotPrime, SizeOverflow
from .relation import label_classes

SIZE_CAP = 4096


@dataclass(frozen=True)
class Monoid:
    """Multiplication table `table[s][t] = s*t` with identity at index 0.

    `relabeling` maps the caller's original labels to the canonical ones
    (old index -> new index); it is provenance only and ignored by
    equality.
    """

    size: int
    table: tuple
    relabeling: tuple = field(compare=False, default=())


def _relabel_table(table, perm):
    """Apply old->new relabeling `perm` to a multiplication table."""
    n = len(table)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(
        tuple(perm[table[inv[s]][inv[t]]] for t in range(n)) for s in range(n)
    )


def _identity_first_perm(n, identity):
    """Old->new permutation moving `identity` to 0, others keep order."""
    return tuple(0 if x == identity else x + (x < identity) for x in range(n))


def check_shape(table, size, width):
    """`size` rows of `width` entries, each an int in [0, size)."""
    if len(table) != size:
        raise EntryOutOfRange(f"expected {size} rows, got {len(table)}")
    labels = frozenset(range(size))
    for s, row in enumerate(table):
        if len(row) != width:
            raise EntryOutOfRange(f"row {s} has {len(row)} entries, expected {width}")
        # fast path for a valid row; bool is not int, so True cannot pass as 1
        if set(map(type, row)) == {int} and labels.issuperset(row):
            continue
        for t, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
                raise EntryOutOfRange(f"entry ({s},{t}) = {v!r} not in [0,{size})")


def _greedy_generators(table, identity):
    """A generating set, picked greedily: candidates in order of how many
    distinct entries their row has (most first, ties by index), each one
    not yet reached from the identity by right multiplication with the
    earlier picks becomes a generator.

    Every element is a product of the identity and the picks, whether or
    not the table is associative.  Rows that take many values (a unit's
    row is a permutation) reach the most, so trying them first keeps the
    set small: 5 generators for the 3125-element End of a 5-point set
    with trivial action, against 155 in plain index order.
    """
    reached = [False] * len(table)
    reached[identity] = True
    members = [identity]
    gens = []
    for x in sorted(range(len(table)), key=lambda s: -len(set(table[s]))):
        if reached[x]:
            continue
        gens.append(x)
        stack = list(members)
        while stack:
            row = table[stack.pop()]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    members.append(y)
                    stack.append(y)
    return gens


def light_test_failure(table, identity, rows):
    """Light's test for `rows` acted on by the table: the first (r, g), g a
    greedy generator, with rows[r][g*u] != rows[rows[r][g]][u] for some u,
    or None if there is none.  With rows = table it tests associativity.

    A one-element table has no generators, so `itemgetter` below always
    gets two or more indices and returns a tuple.  The rows are compared
    by chained maps, lazily and in C.
    """
    for g in _greedy_generators(table, identity):
        # times_g(row) = (row[g*0], row[g*1], ...): r*(g*u) over u
        times_g = itemgetter(*table[g])
        fails = map(ne, map(times_g, rows), map(rows.__getitem__, map(itemgetter(g), rows)))
        r = next(compress(count(), fails), None)
        if r is not None:
            return r, g
    return None


def validate_monoid(size: int, table) -> Monoid:
    """Checked constructor: verify monoid axioms, normalize identity to 0.

    Associativity is decided by Light's test: the elements g with
    (s*g)*u = s*(g*u) for all s, u form a submagma, so it is the whole
    table once it holds every generator of a generating set (here the
    greedy one, plus the identity, which passes trivially).  The check
    costs O(n^2 * |G|) table lookups instead of O(n^3).

    Raises EntryOutOfRange / NoIdentity / NotAssociative (with a witness
    triple in the caller's labels).
    """
    table = tuple(tuple(row) for row in table)
    if size < 1:
        raise EntryOutOfRange("size must be >= 1")
    check_shape(table, size, size)
    identity = None
    for e in range(size):
        if all(table[e][x] == x == table[x][e] for x in range(size)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    failure = light_test_failure(table, identity, table)
    if failure is not None:
        s, g = failure
        row_s, row_g, row_sg = table[s], table[g], table[table[s][g]]
        u = next(u for u in range(size) if row_sg[u] != row_s[row_g[u]])
        raise NotAssociative(s, g, u)
    perm = _identity_first_perm(size, identity)
    if identity != 0:
        table = _relabel_table(table, perm)
    return Monoid(size, table, perm)


def _trusted(size, table, relabeling=None):
    if relabeling is None:
        relabeling = tuple(range(size))
    return Monoid(size, tuple(tuple(row) for row in table), relabeling)


def element_power(M: Monoid, s: int, n: int) -> int:
    """s*s*...*s with n >= 1 factors, by repeated table lookup."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    row = M.table[s]
    acc = s
    for _ in range(n - 1):
        acc = row[acc]
    return acc


def row_partition(M: Monoid, s: int):
    """r(s) = {(x, y) : s*x = s*y} in partition form: the fibers of
    x -> s*x, grouped by value in one pass; used for chain indices on
    large product monoids.
    """
    return label_classes(M.table[s])


def _product_table(left, right):
    """Componentwise product of two tables, pairs (x, y) encoded x*n + y
    with n = len(right), so the left factor is the more significant.

    blocks[b][x] is row b of `right` shifted into the slot of x, so row
    (a, b) is the blocks of row a of `left`, laid end to end.
    """
    n = len(right)
    blocks = [[tuple(x * n + y for y in row_b) for x in range(len(left))] for row_b in right]
    return [
        tuple(chain.from_iterable(map(block.__getitem__, row_a)))
        for row_a in left
        for block in blocks
    ]


def direct_product(factors) -> Monoid:
    """Componentwise product monoid on the mixed-radix encoded carrier.

    Index encoding is mixed-radix with the FIRST factor most
    significant: (c1,..,ck) -> ((c1*n2 + c2)*n3 + ...) + ck.  The
    factors are folded in one at a time, each as the new least
    significant digit, and every row is assembled from precomputed
    blocks rather than encoded entry by entry.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    total = 1
    for f in factors:
        total *= f.size
        if total > SIZE_CAP:
            raise SizeOverflow(f"product size exceeds cap {SIZE_CAP}")
    table = factors[0].table
    for f in factors[1:]:
        table = _product_table(table, f.table)
    # identity = (0,..,0) encodes to 0, so the product is already canonical
    return _trusted(total, table)


def zmod_mult_monoid(m: int) -> Monoid:
    """Residues mod m under multiplication, identity 1 relabeled to 0."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if m > SIZE_CAP:
        raise SizeOverflow(f"Z/{m} exceeds the monoid size cap {SIZE_CAP}")
    if m == 1:
        return _trusted(1, ((0,),), (0,))
    raw = [[(a * b) % m for b in range(m)] for a in range(m)]
    perm = _identity_first_perm(m, 1)
    return _trusted(m, _relabel_table(raw, perm), perm)


def is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def require_prime(p: int) -> None:
    """Refuse Z/p past SIZE_CAP before any trial division, then a composite p."""
    if p > SIZE_CAP:
        raise SizeOverflow(f"Z/{p} exceeds the monoid size cap {SIZE_CAP}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def prime_power_product(p: int, n_factors: int):
    """The product of (Z/p^n, *) for n = 1..n_factors, plus its slow element.

    Returns (monoid, x) where x is the element whose n-th component is
    the residue p mod p^n; the chain r(x) < r(x^2) < ... stabilizes only
    at step n_factors, so the family's chain index grows without bound
    as the truncation deepens.
    """
    require_prime(p)
    if n_factors < 1:
        raise ValueError("need at least one factor")
    zmods = [zmod_mult_monoid(p**n) for n in range(1, n_factors + 1)]
    product = direct_product(zmods)
    sizes = [z.size for z in zmods]
    x_comps = [zmods[i].relabeling[p % (p ** (i + 1))] for i in range(n_factors)]
    x = 0
    for i in range(n_factors):
        x = x * sizes[i] + x_comps[i]
    return product, x


def generated_submonoid(M: Monoid, gens):
    """Closure of {identity} | gens under right products: all words."""
    seen = {0}
    frontier = [0]
    gens = tuple(gens)
    while frontier:
        for b in map(M.table[frontier.pop()].__getitem__, gens):
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def monoid_generators(M: Monoid):
    """A minimum-cardinality generating set, lexicographically first."""
    candidates = [s for s in range(M.size) if s != 0]
    for k in range(len(candidates) + 1):
        for gens in combinations(candidates, k):
            if len(generated_submonoid(M, gens)) == M.size:
                return gens
    raise AssertionError("carrier generates itself")
