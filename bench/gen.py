"""Seeded input generators for the benchmark.

Nothing here calls the library's enumerators (`enumerate_acts`,
`random_acts`, `enumerate_monoids`), so a change to them cannot change
the inputs a workload runs on.
"""

from __future__ import annotations

from itertools import permutations


def small_monoids(n):
    """Monoids of size n up to isomorphism, identity at 0, as row tuples.

    Backtracking over the cells s*t with s, t >= 1 in row order; a
    partial table dies as soon as an assigned triple breaks
    associativity.  The canonical form is the least table over the
    relabelings that fix 0.
    """
    table = [list(range(n))] + [[s] + [None] * (n - 1) for s in range(1, n)]
    cells = [(s, t) for s in range(1, n) for t in range(1, n)]
    seen = set()

    def associative_so_far():
        for s in range(n):
            for t in range(n):
                st = table[s][t]
                if st is None:
                    continue
                for u in range(n):
                    tu = table[t][u]
                    if tu is None:
                        continue
                    lhs, rhs = table[st][u], table[s][tu]
                    if lhs is not None and rhs is not None and lhs != rhs:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            rows = tuple(tuple(row) for row in table)
            seen.add(min(relabel(rows, (0,) + p) for p in permutations(range(1, n))))
            return
        s, t = cells[k]
        for v in range(n):
            table[s][t] = v
            if associative_so_far():
                fill(k + 1)
        table[s][t] = None

    fill(0)
    return sorted(seen)


def relabel(table, perm):
    n = len(table)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple(perm[table[inv[s]][inv[t]]] for t in range(n)) for s in range(n))


def random_action(table, m, rng):
    """One act of size m over the monoid `table`, by randomized backtracking.

    Cells action[a][s] are filled in row order with values tried in a
    random order; a partial table is abandoned as soon as an assigned
    triple breaks (x*s)*t = x*(s*t).  The identity column is fixed.
    """
    n = len(table)
    action = [[a] + [None] * (n - 1) for a in range(m)]
    cells = [(a, s) for a in range(m) for s in range(1, n)]
    factors = [[] for _ in range(n)]  # factors[u]: the (s, t) with s*t = u
    for s in range(n):
        for t in range(n):
            factors[table[s][t]].append((s, t))

    def consistent(a, s):
        """The triples the new cell (a, s) completes all hold."""
        row = action[a]
        v = row[s]
        for t in range(n):  # (a*s)*t = a*(s*t)
            lhs, rhs = action[v][t], row[table[s][t]]
            if lhs is not None and rhs is not None and lhs != rhs:
                return False
        for s2, t in factors[s]:  # (a*s2)*t = a*s
            b = row[s2]
            if b is not None and action[b][t] is not None and action[b][t] != v:
                return False
        for other in action:  # (x*s2)*s = x*(s2*s) where x*s2 = a
            for s2 in range(n):
                if other[s2] == a:
                    w = other[table[s2][s]]
                    if w is not None and w != v:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            return True
        a, s = cells[k]
        for v in rng.sample(range(m), m):
            action[a][s] = v
            if consistent(a, s) and fill(k + 1):
                return True
        action[a][s] = None
        return False

    if not fill(0):
        raise AssertionError("the trivial action always extends a consistent prefix")
    return tuple(tuple(row) for row in action)
