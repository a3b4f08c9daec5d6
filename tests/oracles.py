"""Independent reference computations used to freeze expected values.

Everything here recomputes results from first principles (exhaustive
filters, connectivity searches) without touching the library's search
or closure code paths, so a test comparing the two sides is a real
cross-check rather than a tautology.  The quasi-injectivity,
quasi-projectivity, T7 and T8 oracles are the exception: they take the
homs, subacts, congruence lattice and split kernels from the library
and redo only the extending, lifting or splitting, on whole maps and
from the hom list of each pair (`hom_maps`, kept on the analysis for
the oracles alone), where the suite reads T7 and T8 off canonical
forms.  So is the chain-report oracle,
`chain_reports_oracle`, which takes the endomorphisms and settle
indices from the library and rebuilds each report from the fibers and
the image of a tuple power of the map.  `power_walk_oracle`
is the library's former per-endomorphism walk: it follows the powers
to the first repeat and settles the kernel and image chains apart,
where the library stops at the first equal rank.  The composition
oracles (the lift and liftable sets, retracts and sections) take their
maps from the library too and compose them one tuple at a time with
`compose_maps`.  The library builds no End(A) table; `end_monoid` here
does, from the library's endomorphisms, gathering each product as a
tuple point by point, and `is_commutative` and the strong
pi-regularity oracle scan it.  The full invariance oracle reads the
endomorphisms one map at a time.  The
literal Hopfian and co-Hopfian deciders also take the endomorphisms
from the library: on a finite carrier both hold by pigeonhole, and the
library reports them as True without a check, so these loops are what
a test compares that constant with.
"""

import json
from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import itemgetter

from monact.act import enumerate_subacts, quotient_by_congruence, subact_as_act
from monact.congruence import Congruence, enumerate_congruences
from monact.deciders import ChainReport, analyse
from monact.endo import homomorphisms, identity_first, induces_all_endomorphisms
from monact.errors import SourceTargetMismatch
from monact import harness
from monact.harness import SCH, SH
from monact.monoid import Monoid, monoid_generators


def brute_force_associative(table):
    """Associativity by checking every triple, the O(n^3) way."""
    n = len(table)
    return all(
        table[table[s][t]][u] == table[s][table[t][u]]
        for s in range(n)
        for t in range(n)
        for u in range(n)
    )


def brute_force_monoids(n):
    """Canonical tables of all monoids of size n, sorted: every one of the
    n^((n-1)^2) fillings of the non-identity cells is filtered by the
    all-triples associativity check, then canonicalised."""
    idrow = tuple(range(n))
    forms = set()
    for free in product(range(n), repeat=(n - 1) * (n - 1)):
        table = [idrow] + [
            (s,) + free[(s - 1) * (n - 1) : s * (n - 1)] for s in range(1, n)
        ]
        if brute_force_associative(table):
            forms.add(monoid_canonical_form(table))
    return sorted(forms)


def monoid_relabelings(table):
    """Every relabeling of a monoid table that keeps the identity at 0,
    over the (n-1)! permutations p with p[0] = 0: relabeling a -> p[a]
    makes entry (p[s], p[t]) of the new table p applied to entry (s, t)."""
    n = len(table)
    return {
        tuple(tuple(p[table[s][t]] for t in order) for s in order)
        for p in ((0, *rest) for rest in permutations(range(1, n)))
        for order in [sorted(range(n), key=p.__getitem__)]
    }


def monoid_canonical_form(table):
    """The least identity-fixing relabeling of a monoid table."""
    return min(monoid_relabelings(table))


def first_act_axiom_failure(table, action):
    """The lexicographically first (a, s, t) with a*(s*t) != (a*s)*t, or
    None when the action table satisfies the axiom everywhere."""
    n = len(table)
    for a in range(len(action)):
        for s in range(n):
            for t in range(n):
                if action[a][table[s][t]] != action[action[a][s]][t]:
                    return (a, s, t)
    return None


def brute_force_homs(A, B):
    """All equivariant maps A -> B by filtering every |B|^|A| candidate."""
    found = []
    for mapping in product(range(B.size), repeat=A.size):
        if all(
            mapping[A.action[a][s]] == B.action[mapping[a]][s]
            for a in range(A.size)
            for s in range(A.monoid.size)
        ):
            found.append(mapping)
    return sorted(found)


def brute_force_acts(M, m):
    """Canonical action tables of all acts of size m over M, sorted: every
    choice of m-point columns for a minimal generating set is filtered by
    both act axioms, then minimised over all m! carrier relabelings.
    Candidates number m^(m*|gens|)."""
    n = M.size
    gens = monoid_generators(M)
    words = {0: ()}  # element -> a word in the generators, shortest first
    frontier = [0]
    while frontier:
        s = frontier.pop(0)
        for i, g in enumerate(gens):
            t = M.table[s][g]
            if t not in words:
                words[t] = words[s] + (i,)
                frontier.append(t)
    forms = set()
    for cols in product(product(range(m), repeat=m), repeat=len(gens)):
        action = []
        for a in range(m):
            row = []
            for s in range(n):
                x = a
                for i in words[s]:
                    x = cols[i][x]
                row.append(x)
            action.append(tuple(row))
        if not all(
            action[a][M.table[s][t]] == action[action[a][s]][t]
            for a in range(m)
            for s in range(n)
            for t in range(n)
        ):
            continue
        forms.add(act_canonical_form(action))
    return sorted(forms)


def act_relabelings(action):
    """Every relabeling of an action table, over all m! carrier
    permutations p: relabeling a -> p[a] makes row p[a] of the new table
    p applied to row a."""
    m, n = len(action), len(action[0])
    return {
        tuple(
            tuple(p[action[a][s]] for s in range(n))
            for a in sorted(range(m), key=p.__getitem__)
        )
        for p in permutations(range(m))
    }


def act_canonical_form(action):
    """The least relabeling of an action table."""
    return min(act_relabelings(action))


def acts_isomorphic(A, B):
    return (
        A.monoid == B.monoid
        and A.size == B.size
        and act_canonical_form(A.action) == act_canonical_form(B.action)
    )


def act_hom(source, target, mapping):
    """The map as a tuple, once f(a*s) = f(a)*s is checked at every
    (a, s); the hom search builds its maps without this check."""
    if source.monoid != target.monoid:
        raise SourceTargetMismatch("acts live over different monoids")
    mapping = tuple(mapping)
    for a in range(source.size):
        for s in range(source.monoid.size):
            if mapping[source.action[a][s]] != target.action[mapping[a]][s]:
                raise AssertionError(f"not equivariant at (a={a}, s={s})")
    return mapping


def compose_maps(g, f):
    """(g o f)(a) = g(f(a)) on plain maps (tuples or `bytes`), as a tuple."""
    return tuple(g[b] for b in f)


def right_relation(M, s):
    """r(s) = {(x, y) : s*x = s*y} built as a set of pairs, its classes
    read off it: the class of x is every y paired with x."""
    row = M.table[s]
    points = range(M.size)
    pairs = {(x, y) for x in points for y in points if row[x] == row[y]}
    return canon_sorted({tuple(y for y in points if (x, y) in pairs) for x in points})


def all_partitions(n):
    """Every partition of range(n), as canonical class tuples."""
    if n == 0:
        yield ()
        return
    for rest in all_partitions(n - 1):
        # element n-1 joins an existing class or starts its own
        for i in range(len(rest)):
            yield tuple(
                tuple(sorted(cls + (n - 1,))) if i == j else cls
                for j, cls in enumerate(rest)
            )
        yield rest + ((n - 1,),)


def partition_labels(classes):
    """Least-member labels of a partition given by its classes."""
    labels = [None] * sum(map(len, classes))
    for cls in classes:
        for a in cls:
            labels[a] = min(cls)
    return tuple(labels)


def is_compatible_partition(A, classes):
    """Action-compatibility checked directly on the class map."""
    block = {}
    for i, cls in enumerate(classes):
        for a in cls:
            block[a] = i
    return all(
        block[A.action[cls[0]][s]] == block[A.action[a][s]]
        for cls in classes
        for a in cls[1:]
        for s in range(A.monoid.size)
    )


def brute_force_congruences(A):
    """All congruences by filtering every partition of the carrier."""
    return sorted(
        (canon_sorted(p) for p in all_partitions(A.size) if is_compatible_partition(A, p)),
    )


def canon_sorted(classes):
    return tuple(sorted((tuple(sorted(c)) for c in classes), key=lambda c: c[0]))


def chain_join_oracle(n, classes_a, classes_b):
    """Join via the chain characterization: two elements are joined iff
    some alternating chain of related pairs connects them, i.e. they are
    connected in the union graph of both partitions."""
    adj = [[] for _ in range(n)]
    for classes in (classes_a, classes_b):
        for cls in classes:
            for x, y in zip(cls, cls[1:]):
                adj[x].append(y)
                adj[y].append(x)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        while stack:
            x = stack.pop()
            if seen[x]:
                continue
            seen[x] = True
            comp.append(x)
            stack.extend(adj[x])
        components.append(tuple(sorted(comp)))
    return canon_sorted(components)


def longest_chain_oracle(partitions):
    """Number of partitions in a longest chain under refinement, by
    comparing every pair: O(|L|^2).  A strictly finer partition has more
    classes, so after a sort by class count, descending, every strict
    predecessor of a partition comes before it."""
    parts = sorted(partitions, key=len, reverse=True)
    longest = [1] * len(parts)
    for i, coarse in enumerate(parts):
        for j in range(i):
            if refines_oracle(parts[j], coarse):
                longest[i] = max(longest[i], longest[j] + 1)
    return max(longest)


def refines_oracle(fine, coarse):
    """True iff every class of `fine` maps into one block of `coarse`."""
    block = {a: k for k, cls in enumerate(coarse) for a in cls}
    return all(len({block[a] for a in cls}) == 1 for cls in fine)


def meet_oracle(classes_a, classes_b):
    """Classwise intersection: the non-empty intersections of a class of
    each partition."""
    pieces = (set(x) & set(y) for x in classes_a for y in classes_b)
    return canon_sorted(p for p in pieces if p)


def map_powers(mapping, count):
    """mapping^1 .. mapping^count as tuples."""
    powers = [tuple(mapping)]
    for _ in range(count - 1):
        powers.append(tuple(powers[-1][a] for a in mapping))
    return powers


def fibers(labels):
    """The kernel partition of a label sequence, in canonical form."""
    classes = {}
    for a, lab in enumerate(labels):
        classes.setdefault(lab, []).append(a)
    return canon_sorted(classes.values())


def image_classes(mapping):
    """The image congruence's classes: the image as one class, the
    other points as singletons."""
    image = set(mapping)
    return canon_sorted([sorted(image)] + [(a,) for a in range(len(mapping)) if a not in image])


def _chain(powers, family):
    return [fibers(p) if family == "kernel" else frozenset(p) for p in powers]


def chain_index_oracle(mapping, family):
    """Least n >= 1 with ker f^n = ker f^(n+1) (family "kernel") or
    im f^n = im f^(n+1) (family "image"), comparing partitions and
    image sets of the powers f^1 .. f^(|A|+1)."""
    size = len(mapping)
    chain = _chain(map_powers(mapping, size + 1), family)
    for n in range(1, size + 1):
        if chain[n - 1] == chain[n]:
            return n
    raise AssertionError("chain must stabilize within |A| steps")


def criterion_index_oracle(mapping, family, criterion):
    """The least n meeting criterion 1, 2 or 3 of the strongly Hopfian
    ("kernel") or co-Hopfian ("image") property for one endomorphism,
    or None.  Criterion 2 is the first adjacent equality; criterion 1
    also re-verifies the whole tail up to f^(2|A|); criterion 3 asks
    that ker f^n and im f^n meet in the diagonal (kernel) or join to the
    universal congruence (image), for n <= 2|A|.  Meet and join are
    computed on the partitions: the meet by pairs of labels, the join
    by connectivity."""
    size = len(mapping)
    powers = map_powers(mapping, 2 * size)
    if criterion in (1, 2):
        n = chain_index_oracle(mapping, family)
        chain = _chain(powers, family)
        if criterion == 1 and any(x != chain[n - 1] for x in chain[n:]):
            raise AssertionError("tail not constant after stabilization")
        return n
    for n, p in enumerate(powers, 1):
        image = set(p)
        if family == "kernel":
            # (kernel label, image label) pairs: one per point iff the meet is trivial
            if len({(p[a], a if a not in image else -1) for a in range(size)}) == size:
                return n
        elif chain_join_oracle(size, fibers(p), image_classes(p)) == (tuple(range(size)),):
            return n
    return None


def _settle(chain):
    """(n, tail) for a chain of kernels or images: the least n with
    chain[n-1] == chain[n], and whether every later entry equals
    chain[n-1] too."""
    n = next(n for n in range(1, len(chain)) if chain[n - 1] == chain[n])
    return n, all(x == chain[n - 1] for x in chain[n:])


def power_walk_oracle(mapping):
    """(k_index, i_index, k_tail, i_tail) of one endomorphism f, from a
    walk f, f^2, .. up to the first repeated power f^(c+p) = f^c:
    `k_index` (`i_index`) is the least n >= 1 with ker f^n = ker f^(n+1)
    (im f^n = im f^(n+1)), and `k_tail` (`i_tail`) says whether the
    kernel (image) stays the same from there through f^(c+p).  Every
    later power repeats one of f^c .. f^(c+p-1), so that stretch is the
    whole tail."""
    seen, kernels, images = set(), [], []
    cur = tuple(mapping)
    while True:
        kernels.append(fibers(cur))
        images.append(frozenset(cur))
        if cur in seen:
            break
        seen.add(cur)
        cur = tuple(cur[a] for a in mapping)
    (k, k_tail), (i, i_tail) = _settle(kernels), _settle(images)
    return k, i, k_tail, i_tail


def chain_report_oracle(mapping):
    """(k_index, i_index, kernel classes of f^k, image classes of f^i)."""
    k = chain_index_oracle(mapping, "kernel")
    i = chain_index_oracle(mapping, "image")
    powers = map_powers(mapping, max(k, i))
    return k, i, fibers(powers[k - 1]), image_classes(powers[i - 1])


def chain_reports_oracle(A):
    """The chain reports through tuple powers: f^n by `map_powers`, its
    kernel and image congruences labelled from the classes `fibers` and
    `image_classes` give.  The index n comes from the library's settle
    indices, as both k_index and i_index."""
    an = analyse(A)
    index = dict(zip(an.endos, an.profiles))
    reports = []
    for e, m in enumerate(identity_first(an.endos)):
        n = index[m]
        f_n = map_powers(m, n)[-1]
        kernel = Congruence(an.act, partition_labels(fibers(f_n)))
        image = Congruence(an.act, partition_labels(image_classes(f_n)))
        reports.append(ChainReport(e, tuple(m), n, n, kernel, image))
    return reports


def json_doc_oracle(doc):
    """The document as json's own encoder writes it, keys sorted, two
    spaces per level."""
    return json.dumps(doc, sort_keys=True, indent=2)


def bell_number(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def partition_number(n):
    """p(n), the number of partitions of n, by the coin-counting recurrence."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def componentwise_product_table(factor_tables):
    """Mixed-radix product table computed independently of the library:
    first factor most significant."""
    sizes = [len(t) for t in factor_tables]
    total = 1
    for s in sizes:
        total *= s

    def decode(idx):
        comps = []
        for s in reversed(sizes):
            idx, c = divmod(idx, s)
            comps.append(c)
        return list(reversed(comps))

    def encode(comps):
        idx = 0
        for s, c in zip(sizes, comps):
            idx = idx * s + c
        return idx

    comps = [decode(idx) for idx in range(total)]
    table = []
    for ca in comps:
        row = []
        for cb in comps:
            row.append(encode([t[x][y] for t, x, y in zip(factor_tables, ca, cb)]))
        table.append(row)
    return table


def minimal_generating_set_oracle(A):
    """The first generating subset in (size, lexicographic) order, by
    trying every subset of the carrier."""
    for k in range(1, A.size + 1):
        for xs in combinations(range(A.size), k):
            covered = set()
            for x in xs:
                covered.update(A.action[x])
            if len(covered) == A.size:
                return xs
    raise AssertionError("the whole carrier generates")


def quasi_injective_oracle(A):
    """(flag, counterexample) of quasi-injectivity, one proper subact B at
    a time: the set of whole restrictions of End(A) to B, then the first
    hom B -> A, in map order, outside it.  The homs and subacts come
    from the library; the comparison is on whole maps."""
    endos = homomorphisms(A, A)
    for B in enumerate_subacts(A)[:-1]:
        sub, members = subact_as_act(B)
        restrictions = {tuple(h[b] for b in members) for h in endos}
        for f in homomorphisms(sub, A):
            if f not in restrictions:
                return False, (B, f)
    return True, None


def quasi_projective_oracle(A):
    """(flag, counterexample) of quasi-projectivity, one congruence at a
    time: the set of whole maps p o g over End(A), then the first hom
    A -> A/rho, in map order, outside it.  The homs and the lattice come
    from the library; the comparison is on whole maps."""
    endos = homomorphisms(A, A)
    for rho in enumerate_congruences(A)[1:]:
        quotient, proj = quotient_by_congruence(A, rho)
        lifted = {tuple(proj[a] for a in g) for g in endos}
        for f in homomorphisms(A, quotient):
            if f not in lifted:
                return False, (rho, f)
    return True, None


def hom_maps(an, B):
    """The byte maps of the homs from the act of the analysis `an` into B,
    sorted: `an.endos` for B = an.act, else the library's search turned
    into bytes, kept on the analysis per B for the pair oracles."""
    if B == an.act:
        return an.endos
    homs = vars(an).setdefault("oracle_homs", {})
    key = (B.monoid.table, B.action)
    if key not in homs:
        homs[key] = list(map(bytes, homomorphisms(an.act, B)))
    return homs[key]


def retraction_oracle(an_b, A):
    """The first (gamma, pi) with pi o gamma = id_A, pi: B -> A taken in
    map order from B's analysis `an_b`'s hom list (`hom_maps`), or None.  A
    retraction pi is a surjection whose kernel an idempotent e of End(B)
    splits, and then gamma(pi(b)) = e(b), the one point of b's kernel
    class in im e."""
    for pi in hom_maps(an_b, A):
        if len(set(pi)) == A.size:
            e = an_b.split_kernels.get(tuple(map(pi.index, pi)))
            if e is not None:
                gamma = dict(zip(pi, e))
                return bytes(map(gamma.__getitem__, range(A.size))), pi
    return None


def t7_pair_oracle(pair):
    """The T7 check from the hom list B -> A: the pair is non-vacuous iff
    A has fewer points and `retraction_oracle` finds a retraction, whose
    maps name a failure.  `pair` is the suite's instance, the analyses
    (an_a, an_b) of A and B, and the flags come from `harness.flag`.
    Returns what the suite's check does: (nonvacuous, passed, witness,
    details)."""
    an_a, an_b = pair
    A, B = an_a.act, an_b.act
    found = retraction_oracle(an_b, A) if A.size < B.size else None
    hyp = found is not None and harness.flag(SH, [B])
    if not hyp or harness.flag(SH, [A]):
        return hyp, True, None, {}
    witness = {
        "theorem": "T7",
        "flags": {"retract_proper": True, "B_strongly_hopfian": True, "A_strongly_hopfian": False},
        "monoid": [list(row) for row in A.monoid.table],
        "act": [list(row) for row in A.action],
        "act_b": [list(row) for row in B.action],
        "gamma": list(found[0]),
        "pi": list(found[1]),
    }
    return True, False, witness, {}


def t8_pair_oracle(pair):
    """The T8 check from the hom list A -> B, in map order: each
    surjection h is counted, whether it induces all of End(B) is decided
    once per kernel by `induces_all_endomorphisms`, and it has a section
    iff its kernel is in A's split kernels; a failure stops at the first
    induced h.  `pair` is the suite's instance, the analyses (an_a,
    an_b) of A and B, and the flags come from `harness.flag`.  Returns
    what the suite's check does: (nonvacuous, passed, witness, details)."""
    an_a, an_b = pair
    A, B = an_a.act, an_b.act
    concl = harness.flag(SCH, [B])
    induces = {}
    induced = sections = 0
    for h in hom_maps(an_a, B):
        if len(set(h)) != B.size:
            continue
        kernel = tuple(map(h.index, h))
        if kernel not in induces:
            induces[kernel] = induces_all_endomorphisms(h, an_a.endos, an_b.endos)[0]
        if not induces[kernel] or not harness.flag(SCH, [A]):
            continue
        induced += 1
        sections += kernel in an_a.split_kernels
        if not concl:
            witness = {
                "theorem": "T8",
                "flags": {"A_strongly_co_hopfian": True, "B_strongly_co_hopfian": False},
                "monoid": [list(row) for row in A.monoid.table],
                "act": [list(row) for row in A.action],
                "act_b": [list(row) for row in B.action],
                "h": list(h),
            }
            return True, False, witness, {"induced_surjections": induced, "with_section": sections}
    return induced > 0, True, None, {"induced_surjections": induced, "with_section": sections}


def t8_oracle(pair):
    """The T8 check surjection by surjection, in map order: for each
    surjection h, the whole-map set {h o g : g in End(A)}, End(B) tested
    against it, and a search of the homs B -> A for a section; a failure
    stops at the first induced h.  The homs come from the analyses
    (an_a, an_b) in `pair`, the suite's instance, and the flags from
    `harness.flag`.  Returns what the suite's check does: (nonvacuous,
    passed, witness, details)."""
    an_a, an_b = pair
    A, B = an_a.act, an_b.act
    induced = sections = 0
    for hm in hom_maps(an_a, B):
        if len(set(hm)) != B.size:
            continue
        liftable = {tuple(hm[a] for a in g) for g in an_a.endos}
        if any(tuple(f[b] for b in hm) not in liftable for f in an_b.endos):
            continue
        if not harness.flag(SCH, [A]):
            continue
        induced += 1
        ident = tuple(range(B.size))
        sections += any(tuple(hm[a] for a in s) == ident for s in hom_maps(an_b, A))
        details = {"induced_surjections": induced, "with_section": sections}
        if not harness.flag(SCH, [B]):
            witness = {
                "theorem": "T8",
                "monoid": [list(row) for row in A.monoid.table],
                "flags": {"A_strongly_co_hopfian": True, "B_strongly_co_hopfian": False},
                "act": [list(row) for row in A.action],
                "act_b": [list(row) for row in B.action],
                "h": list(hm),
            }
            return True, False, witness, details
    return induced > 0, True, None, {"induced_surjections": induced, "with_section": sections}


def is_hopfian(A):
    """Every surjective endomorphism of A (an Act or its analysis) is
    injective, map by map."""
    return all(len(set(f)) == len(f) for f in analyse(A).endos
               if set(f) == set(range(len(f))))


def is_co_hopfian(A):
    """Every injective endomorphism of A is surjective, map by map."""
    return all(set(f) == set(range(len(f))) for f in analyse(A).endos
               if len(set(f)) == len(f))


def is_fully_invariant(B, endos):
    """True iff every endomorphism in `endos`, the maps of the
    endomorphisms of B's parent act, maps B into B."""
    members = set(B.members)
    return all(f[b] in members for f in endos for b in B.members)


@dataclass(frozen=True)
class EndMonoid:
    """End(A) under composition (f*g)(a) = f(g(a)).

    `elements[i]` is the map tuple of the endomorphism behind monoid
    index i; the identity sits at index 0 and the rest keep map order.
    """

    monoid: Monoid
    elements: tuple


def end_monoid(A, endos=None):
    """End(A) from `endos` (tuples or byte maps, in any order), or from
    the library's hom search when None.  Cell (i, j) is the index of
    elements[i] o elements[j], the tuple (f[g[0]], f[g[1]], ..) read
    point by point by one `itemgetter` per right factor g; nothing is
    revalidated."""
    maps = sorted(map(tuple, homomorphisms(A, A) if endos is None else endos))
    identity = tuple(range(A.size))
    elements = (identity, *(f for f in maps if f != identity))
    index = {f: i for i, f in enumerate(elements)}
    # an itemgetter of one point returns that point, not a 1-tuple
    gathers = [itemgetter(*g) if A.size > 1 else lambda f: (f[0],) for g in elements]
    table = tuple(tuple([index[gather(f)] for gather in gathers]) for f in elements)
    return EndMonoid(Monoid(len(elements), table), elements)


def is_commutative(E):
    """Whether End(A) `E` is commutative: its table equals its transpose."""
    table = E.monoid.table
    return table == tuple(zip(*table))


def is_strongly_pi_regular(E):
    """(flag, witnesses) for End(A) `E` from its composition table:
    witnesses[f] = first (n, g) with f^n = g*f^(n+1) = f^(n+1)*g,
    searching n ascending then g in canonical element order.  n <= |E|
    always suffices on a finite monoid, so a miss means False.
    """
    M = E.monoid
    table = M.table
    witnesses = []
    ok = True
    for f in range(M.size):
        found = None
        fn = f
        for n in range(1, M.size + 1):
            fn1 = table[fn][f]
            for g in range(M.size):
                if table[g][fn1] == fn == table[fn1][g]:
                    found = (n, g)
                    break
            if found:
                break
            fn = fn1
        if found is None:
            ok = False
        witnesses.append(found)
    return ok, tuple(witnesses)


def unlifted_hom_oracle(A, rho):
    """The first hom A -> A/rho, in map order, outside {p o g : g in
    End(A)}, each p o g by `compose_maps`, or None."""
    quotient, proj = quotient_by_congruence(A, rho)
    lifted = {compose_maps(proj, g) for g in homomorphisms(A, A)}
    return next((f for f in homomorphisms(A, quotient) if f not in lifted), None)


def induces_oracle(h, source_endos, target_endos):
    """Whether every f in End(B) has f o h = h o g for some g in End(A),
    both sides by `compose_maps`."""
    liftable = {compose_maps(h, g) for g in source_endos}
    return all(compose_maps(f, h) in liftable for f in target_endos)


def retract_oracle(into, back):
    """The first (gamma, pi), gamma then pi in list order, with
    pi o gamma the identity by `compose_maps`, or None."""
    for gamma in into:
        for pi in back:
            if compose_maps(pi, gamma) == tuple(range(len(gamma))):
                return gamma, pi
    return None


def section_oracle(h, back):
    """Whether h o s is the identity on B, by `compose_maps`, for some
    s in `back`, the homs B -> A."""
    return any(compose_maps(h, s) == tuple(range(len(s))) for s in back)
