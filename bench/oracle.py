"""Reference computations the benchmark checks the library against.

They share no code path with the library's search or closure: maps
and partitions are built point by point and tested directly against
the action table.  Tables are plain row tuples, `action[a][s] = a*s`.
"""

from __future__ import annotations

from itertools import combinations, permutations


def is_monoid(table):
    """Identity at 0 and associativity, checked on every triple."""
    n = len(table)
    if any(table[0][x] != x or table[x][0] != x for x in range(n)):
        return False
    return all(
        table[table[s][t]][u] == table[s][table[t][u]]
        for s in range(n)
        for t in range(n)
        for u in range(n)
    )


def is_act(table, action):
    """Identity and compatibility axioms of a right act, every triple."""
    n = len(table)
    return all(row[0] == a for a, row in enumerate(action)) and all(
        action[row[s]][t] == row[table[s][t]]
        for row in action
        for s in range(n)
        for t in range(n)
    )


def relabel_act(action, perm):
    """The act with carrier point a renamed perm[a]."""
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple(perm[x] for x in action[inv[a]]) for a in range(len(perm)))


def act_iso_key(action):
    """Least relabeled action table: equal keys iff the acts are isomorphic."""
    return min(relabel_act(action, p) for p in permutations(range(len(action))))


def monoid_iso_key(table):
    """Least relabeled table over relabelings fixing the identity 0."""
    n = len(table)
    best = None
    for rest in permutations(range(1, n)):
        perm = (0,) + rest
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        cand = tuple(
            tuple(perm[table[inv[s]][inv[t]]] for t in range(n)) for s in range(n)
        )
        if best is None or cand < best:
            best = cand
    return best


def endomorphisms(action):
    """Every equivariant self-map, as sorted image tuples.

    Exhaustive over all maps, pruned point by point: once f(0..k) are
    fixed, every pair (x, s) with x and x*s among them must satisfy
    f(x*s) = f(x)*s.
    """
    m = len(action)
    n = len(action[0])
    # constraints[k]: the (x, s) whose check first becomes possible at point k
    constraints = [[] for _ in range(m)]
    for x in range(m):
        for s in range(n):
            constraints[max(x, action[x][s])].append((x, s))
    f = [0] * m
    found = []

    def extend(k):
        if k == m:
            found.append(tuple(f))
            return
        for v in range(m):
            f[k] = v
            if all(f[action[x][s]] == action[f[x]][s] for x, s in constraints[k]):
                extend(k + 1)

    extend(0)
    return found


def congruences(action, limit=None):
    """Every action-compatible partition, as canonical class tuples.

    Restricted-growth labelling of the points 0..m-1; a partial labelling
    dies as soon as two points in one class have assigned images in
    different classes.  Returns None once more than `limit` are found.
    """
    m = len(action)
    n = len(action[0])
    # pairs (x, y, s) whose check first becomes possible at point k
    checks = [[] for _ in range(m)]
    for x in range(m):
        for y in range(x + 1, m):
            for s in range(n):
                checks[max(y, action[x][s], action[y][s])].append(
                    (x, y, action[x][s], action[y][s])
                )
    label = [0] * m
    found = []

    def extend(k, used):
        if limit is not None and len(found) > limit:
            return
        if k == m:
            classes = [[] for _ in range(used)]
            for a in range(m):
                classes[label[a]].append(a)
            found.append(tuple(tuple(c) for c in classes))
            return
        for v in range(used + 1):
            label[k] = v
            if all(
                label[x] != label[y] or label[xs] == label[ys]
                for x, y, xs, ys in checks[k]
            ):
                extend(k + 1, max(used, v + 1))

    extend(0, 0)
    if limit is not None and len(found) > limit:
        return None
    return sorted(found)


def kernel_classes(mapping):
    """The fibers of a map, as a canonical partition."""
    fibers = {}
    for a, b in enumerate(mapping):
        fibers.setdefault(b, []).append(a)
    return tuple(sorted(tuple(c) for c in fibers.values()))


def image_classes(mapping):
    """im f collapsed to one class, every other point a singleton."""
    image = set(mapping)
    rest = [(a,) for a in range(len(mapping)) if a not in image]
    return tuple(sorted([tuple(sorted(image))] + rest))


def compose_power(mapping, k):
    """f^k computed by k-fold lookup, k >= 1."""
    cur = tuple(mapping)
    for _ in range(k - 1):
        cur = tuple(mapping[x] for x in cur)
    return cur


def partition_number(m):
    """p(m), by the recurrence over the largest part."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def closed_form_act_count(table, m):
    """Acts of size m up to isomorphism, where a closed form is known.

    Trivial monoid: 1.  Z/2: floor(m/2) + 1 (a fixed-point-free-or-not
    involution is fixed by its number of 2-cycles).  {1, e} with e*e = e:
    p(m) (an idempotent map is fixed by its fiber sizes over its image).
    Returns None for every other monoid.
    """
    if len(table) == 1:
        return 1
    if len(table) == 2:
        return m // 2 + 1 if table[1][1] == 0 else partition_number(m)
    return None


MONOID_COUNTS = {1: 1, 2: 2, 3: 7, 4: 35}  # OEIS A058129


def generating_set_size(table):
    """Size of a minimum generating set of the monoid, by brute force."""
    n = len(table)
    for k in range(n):
        for gens in combinations(range(1, n), k):
            seen = {0}
            frontier = [0]
            while frontier:
                a = frontier.pop()
                for g in gens:
                    b = table[a][g]
                    if b not in seen:
                        seen.add(b)
                        frontier.append(b)
            if len(seen) == n:
                return k
    return n - 1
