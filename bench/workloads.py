"""The four benchmark workloads.

Each workload is built from a seed, which draws its inputs, and bound
to freshly imported `monact` modules (see `Workload`); it exposes
`items`: a list of (label, thunk) pairs, run one after another as a
closed loop.  A thunk makes the same public
calls as the CLI command it mirrors and returns that command's output.
`check(i, output)` compares the output of item i with the benchmark's
own reference computations (see `oracle`) and returns None or the
reason it is wrong.

Every call into the library goes through the module attribute at call
time (`lib.cli.main`, never a name bound at import), so the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import gen
import oracle


class OperationFailed(Exception):
    """The command exited with an error: a failed operation, not a wrong answer."""


def run_cli(lib, argv, accept=(0,)):
    """`monact ARGV` in-process; its standard output.  An exit code
    outside `accept` raises OperationFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    if code not in accept:
        raise OperationFailed(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def document(table, action):
    """Input text with a monoid block named M and an act block named A."""
    rows = "\n".join(" ".join(map(str, row)) for row in table)
    arows = "\n".join(" ".join(map(str, row)) for row in action)
    return f"monoid M {len(table)}\n{rows}\n\nact A over M {len(action)}\n{arows}\n"


DRAWS = 5000


def draw(rng, monoid_table, m, size_of, target):
    """A random act of size m for which `size_of(action, target)` returns
    evidence (not None), with that evidence.  The strata are chosen so
    that each matches at least one draw in ten; DRAWS misses raise."""
    for _ in range(DRAWS):
        action = gen.random_action(monoid_table, m, rng)
        evidence = size_of(action, target)
        if evidence is not None:
            return action, evidence
    raise RuntimeError(f"no act of size {m} with size {target} in {DRAWS} draws")


class Workload:
    """Subclasses are built from (seed, workdir): the benchmark's own part
    of the set-up, drawing the inputs and their reference answers, with
    input files collected in `files` (path -> text).  `bind(lib)` is the
    program's part: it takes freshly imported monact modules and builds
    whatever library objects the items need."""

    def __init__(self):
        self.lib = None
        self.items = []
        self.files = {}

    def bind(self, lib):
        self.lib = lib

    def check(self, i, output):
        raise NotImplementedError


def _properties_hold(props, size, max_k):
    """Invariants of every finite act; None or the first that fails."""
    for key in (
        "hopfian",
        "co_hopfian",
        "strongly_hopfian",
        "strongly_co_hopfian",
        "noetherian",
        "artinian",
        "end_strongly_pi_regular",
    ):
        if props[key] is not True:
            return f"{key} is {props[key]!r} on a finite act"
    for key in ("strongly_hopfian_index", "strongly_co_hopfian_index"):
        if not 1 <= props[key] <= size:
            return f"{key} = {props[key]} outside 1..{size}"
    if props["fitting"] != (props["strongly_hopfian"] and props["strongly_co_hopfian"]):
        return "fitting differs from strongly hopfian and strongly co-hopfian"
    if not 1 <= props["congruence_max_chain"] <= size:
        return f"longest congruence chain {props['congruence_max_chain']} exceeds |A|"
    if max_k is not None and props["strongly_hopfian_index"] != max_k:
        return f"strongly_hopfian_index {props['strongly_hopfian_index']} != {max_k}"
    return None


def _least_stable(mapping, key):
    """Least k >= 1 with key(f^k) == key(f^(k+1)), by direct powers."""
    k = 1
    cur = tuple(mapping)
    while True:
        nxt = tuple(mapping[x] for x in cur)
        if key(cur) == key(nxt):
            return k
        cur, k = nxt, k + 1


# -- suite ------------------------------------------------------------------

class Suite(Workload):
    """`monact suite --json` on the default corpus.  The corpus is the
    program's own exhaustive one, so the seed does not enter.  When a run
    makes more than one pass (the traced run always does), the JSON
    bytes of every pass are compared with the first.  Exit code 1 (a
    theorem failed) still writes the document, and the check reports
    the failed verdict as a wrong answer."""

    def __init__(self, seed, workdir, argv=("suite", "--json")):
        super().__init__()
        self.argv = list(argv)
        self.first = None
        self.items = [("suite", lambda: run_cli(self.lib, self.argv, accept=(0, 1)))]

    def check(self, i, output):
        if self.first is None:
            self.first = output
        elif output != self.first:
            return "suite JSON bytes differ between passes"
        doc = json.loads(output)
        failed = [v["theorem"] for v in doc["verdicts"] if not v["passed"]]
        if failed:
            return f"verdicts failed: {failed}"
        if [v["theorem"] for v in doc["verdicts"]] != [f"T{k}" for k in range(1, 15)]:
            return "verdicts are not T1..T14"
        return check_corpus(doc["reports"])


def check_corpus(reports):
    """Monoid and act counts of the suite's reports against closed forms,
    plus the act axioms, non-isomorphism and End(A) sizes."""
    monoids = {}
    acts = {}
    for rep in reports:
        table = tuple(map(tuple, rep["monoid_table"]))
        action = tuple(map(tuple, rep["action"]))
        monoids.setdefault(rep["monoid"], table)
        acts.setdefault((rep["monoid"], len(action)), []).append(action)
        if not oracle.is_act(table, action):
            return f"{rep['act']} breaks the act axioms"
        props = rep["properties"]
        if props["end_size"] != len(oracle.endomorphisms(action)):
            return f"{rep['act']}: end_size {props['end_size']} is not the count of endomorphisms"
        why = _properties_hold(props, len(action), None)
        if why:
            return f"{rep['act']}: {why}"
    by_size = {}
    for table in monoids.values():
        by_size[len(table)] = by_size.get(len(table), 0) + 1
    for n, count in by_size.items():
        if count != oracle.MONOID_COUNTS[n]:
            return f"{count} monoids of size {n}, expected {oracle.MONOID_COUNTS[n]}"
    if len({oracle.monoid_iso_key(t) for t in monoids.values()}) != len(monoids):
        return "two corpus monoids are isomorphic"
    for (label, m), found in acts.items():
        table = monoids[label]
        expected = oracle.closed_form_act_count(table, m)
        if expected is not None and len(found) != expected:
            return f"{len(found)} acts of size {m} over {label}, expected {expected}"
        if len({oracle.act_iso_key(a) for a in found}) != len(found):
            return f"two acts of size {m} over {label} are isomorphic"
    return None


# -- classify ---------------------------------------------------------------

# (monoid size, index in gen.small_monoids, act size, |End(A)|, acts per pass).
# Strata of exact End(A) sizes hold the make-up fixed across seeds, so a
# pass costs about the same on every seed; |End(A)| <= 90 keeps today's
# slowest item near a quarter of a second.  Every stratum matched at
# least one draw in ten when they were chosen.
CLASSIFY_STRATA = (
    (2, 0, 5, 25, 10),
    (2, 1, 5, 65, 4),
    (2, 1, 5, 75, 2),
    (3, 0, 5, 25, 8),
    (3, 0, 6, 36, 6),
    (3, 0, 6, 72, 3),
    (3, 1, 5, 20, 8),
    (3, 1, 6, 36, 4),
    (3, 1, 6, 90, 1),
    (3, 2, 5, 15, 6),
    (3, 2, 6, 36, 3),
    (3, 2, 6, 90, 1),
    (3, 3, 5, 8, 8),
    (3, 3, 6, 36, 4),
    (3, 4, 5, 10, 8),
    (3, 4, 6, 36, 4),
    (3, 4, 6, 40, 3),
    (3, 5, 5, 10, 8),
    (3, 5, 5, 30, 6),
    (3, 5, 6, 36, 4),
    (3, 6, 5, 20, 8),
    (3, 6, 6, 36, 6),
)


class Classify(Workload):
    """`monact classify FILE --act A --json` on seeded acts of size 5-6."""

    def __init__(self, seed, workdir, strata=CLASSIFY_STRATA):
        super().__init__()
        rng = random.Random(seed)
        monoids = {n: gen.small_monoids(n) for n in (2, 3)}
        self.expected = []
        for n, idx, m, end_size, count in strata:
            table = monoids[n][idx]
            for _ in range(count):
                action, endos = draw(rng, table, m, _endos_if, end_size)
                path = workdir / f"classify-{len(self.expected)}.txt"
                self.files[path] = document(table, action)
                self.expected.append((action, endos))
                argv = ["classify", str(path), "--act", "A", "--json"]
                self.items.append((f"classify-{n}.{idx}-{m}-{end_size}", self._thunk(argv)))

    def _thunk(self, argv):
        return lambda: run_cli(self.lib, argv)

    def check(self, i, output):
        action, endos = self.expected[i]
        entry = json.loads(output)["reports"][0]
        props = entry["properties"]
        if props["end_size"] != len(endos):
            return f"end_size {props['end_size']}, exhaustive count {len(endos)}"
        chains = entry["chains"]
        if sorted(tuple(c["map"]) for c in chains) != endos:
            return "chain reports do not cover exactly the endomorphisms"
        if props["congruence_count"] != len(oracle.congruences(action)):
            return "congruence_count differs from the partition filter"
        ks = []
        for c in chains:
            f = c["map"]
            k = _least_stable(f, oracle.kernel_classes)
            i_ = _least_stable(f, frozenset)
            ks.append(k)
            if c["k_index"] != k or c["i_index"] != i_:
                return f"chain indices of {f}: ({c['k_index']}, {c['i_index']}) != ({k}, {i_})"
            if tuple(map(tuple, c["kernel"])) != oracle.kernel_classes(oracle.compose_power(f, k)):
                return f"kernel of {f}^{k} differs from the direct computation"
            if tuple(map(tuple, c["image"])) != oracle.image_classes(oracle.compose_power(f, i_)):
                return f"image congruence of {f}^{i_} differs from the direct computation"
        return _properties_hold(props, len(action), max(ks))


def _endos_if(action, target):
    endos = oracle.endomorphisms(action)
    return endos if len(endos) == target else None


# -- lattice ----------------------------------------------------------------

# (monoid size, index, act size, number of congruences, acts per pass).
# Join-closure enumeration is quadratic in the lattice size and runs twice
# per item (the CLI, then chain_conditions): 30 congruences cost ~40 ms,
# 160 about 1.2 s, 500 about 13 s today.  Lattices above ~170 are left
# out so that one pass stays near five seconds.
LATTICE_STRATA = (
    (2, 0, 6, 31, 4),
    (3, 0, 6, 21, 4),
    (3, 1, 6, 23, 4),
    (3, 3, 6, 25, 4),
    (3, 4, 6, 40, 4),
    (3, 2, 6, 44, 4),
    (2, 1, 6, 60, 3),
    (3, 1, 7, 55, 3),
    (2, 0, 7, 59, 4),
    (2, 0, 7, 97, 1),
    (3, 2, 7, 92, 1),
    (3, 4, 7, 127, 1),
    (2, 0, 8, 164, 1),
)


class Lattice(Workload):
    """`monact congruences FILE --act A`, then `chain_conditions` on the
    parsed act, for seeded acts of size 6-8."""

    def __init__(self, seed, workdir, strata=LATTICE_STRATA):
        super().__init__()
        rng = random.Random(seed)
        monoids = {n: gen.small_monoids(n) for n in (2, 3)}
        self.expected = []
        self.acts = []
        for n, idx, m, n_congs, count in strata:
            table = monoids[n][idx]
            for _ in range(count):
                action, congs = draw(rng, table, m, _congruences_if, n_congs)
                path = workdir / f"lattice-{len(self.expected)}.txt"
                self.files[path] = document(table, action)
                argv = ["congruences", str(path), "--act", "A"]
                self.items.append((f"lattice-{n}.{idx}-{m}-{n_congs}",
                                   self._thunk(argv, len(self.expected))))
                self.expected.append((action, congs))

    def bind(self, lib):
        super().bind(lib)
        self.acts = [lib.textio.parse_input(text).acts["A"][1] for text in self.files.values()]

    def _thunk(self, argv, i):
        def item():
            return run_cli(self.lib, argv), self.lib.deciders.chain_conditions(self.acts[i])

        return item

    def check(self, i, output):
        text, (noetherian, artinian, count, longest) = output
        action, congs = self.expected[i]
        listed = [_parse_partition(line) for line in text.splitlines()[1:]]
        if len(set(listed)) != len(listed):
            return "a congruence is listed twice"
        if sorted(listed) != congs:
            missing = len(set(congs) - set(listed))
            extra = len(set(listed) - set(congs))
            return f"congruence list differs from the partition filter ({missing} missing, {extra} extra)"
        if not (noetherian and artinian):
            return "a finite act fails a chain condition"
        if count != len(congs):
            return f"chain_conditions counts {count} congruences, expected {len(congs)}"
        if not 1 <= longest <= len(action):
            return f"longest chain {longest} outside 1..{len(action)}"
        return None


def _congruences_if(action, target):
    congs = oracle.congruences(action, limit=target)
    return congs if congs is not None and len(congs) == target else None


def _parse_partition(line):
    """'  {{0,1}, {2}}' -> ((0, 1), (2,))"""
    inner = line.strip()[1:-1]
    return tuple(
        tuple(int(x) for x in cls.strip(" {}").split(","))
        for cls in inner.split("}, {")
    )


# -- construct --------------------------------------------------------------

MAX_ACT_SIZE = {1: 5, 2: 5, 3: 5, 4: 4}  # corpora up to 4/4 and 3/5
# harness.ACT_ENUM_WORK_CAP when this workload was fixed: enumerate_acts
# refuses the pairs with more candidates, so they are left out
ACT_WORK_CAP = 1 << 21
ZMOD_SIZES = (128, 256)
FAMILY36 = ((2, 4), (3, 3))


class Construct(Workload):
    """Building structures: monoid and act enumeration, parsing large
    tables, and the family36 product monoids."""

    def __init__(self, seed, workdir, max_act_size=MAX_ACT_SIZE,
                 zmod_sizes=ZMOD_SIZES, family=FAMILY36):
        super().__init__()
        rng = random.Random(seed)
        self.checks = []
        self.tables = []  # the input monoids, built by bind
        self.monoids = []
        sizes = sorted(max_act_size)
        for n in sizes:
            self._add(f"monoids-{n}", lambda n=n: self.lib.harness.enumerate_monoids(n),
                      lambda out, n=n: _check_monoids(out, n))
        for n in sizes:
            for idx, table in enumerate(gen.small_monoids(n)):
                # a seeded relabeling fixing the identity: an isomorphic input
                perm = (0,) + tuple(rng.sample(range(1, n), n - 1))
                table = gen.relabel(table, perm)
                j = len(self.tables)
                self.tables.append(table)
                k = oracle.generating_set_size(table)
                for m in range(1, max_act_size[n] + 1):
                    if (m ** (m * k) if k else 1) > ACT_WORK_CAP:
                        continue
                    self._add(
                        f"acts-{n}.{idx}-{m}",
                        lambda j=j, m=m: self.lib.harness.enumerate_acts(self.monoids[j], m),
                        lambda out, table=table, m=m: _check_acts(out, table, m),
                    )
        for size in zmod_sizes:
            text, labels = _zmod_document(size, rng)
            self._add(f"parse-Z{size}", lambda text=text: self.lib.textio.parse_input(text),
                      lambda out, text=text, labels=labels: self._check_parse(out, text, labels))
        for p, depth in family:
            argv = ["family36", "--p", str(p), "--max-n", str(depth)]
            self._add(f"family36-p{p}-n{depth}", lambda argv=argv: run_cli(self.lib, argv),
                      lambda out, depth=depth: _check_family(out, depth))

    def bind(self, lib):
        super().bind(lib)
        self.monoids = [lib.monoid.validate_monoid(len(t), t) for t in self.tables]

    def _add(self, label, thunk, check):
        self.items.append((label, thunk))
        self.checks.append(check)

    def check(self, i, output):
        return self.checks[i](output)

    def _check_parse(self, doc, text, labels):
        m = len(labels)
        table = doc.monoids["Z"].table
        action = doc.acts["R"][1].action
        pos = {r: i for i, r in enumerate(labels)}
        for i in range(m):
            row = table[i]
            for j in range(m):
                if row[j] != pos[labels[i] * labels[j] % m]:
                    return f"Z/{m}: entry ({i},{j}) is not the product of residues"
        if action != table:
            return f"Z/{m}: the regular act's table is not the monoid's"
        if self.lib.textio.serialize_document(doc).split() != text.split():
            return f"Z/{m}: serializing the parsed document does not give the input back"
        return None


def _check_monoids(monoids, n):
    if len(monoids) != oracle.MONOID_COUNTS[n]:
        return f"{len(monoids)} monoids of size {n}, expected {oracle.MONOID_COUNTS[n]}"
    tables = [M.table for M in monoids]
    if not all(len(t) == n and oracle.is_monoid(t) for t in tables):
        return f"a table of size {n} is not a monoid with identity 0"
    if len({oracle.monoid_iso_key(t) for t in tables}) != len(tables):
        return f"two monoids of size {n} are isomorphic"
    return None


def _check_acts(acts, table, m):
    expected = oracle.closed_form_act_count(table, m)
    if expected is not None and len(acts) != expected:
        return f"{len(acts)} acts of size {m}, expected {expected}"
    if not acts:
        return f"no act of size {m}"  # the trivial action always exists
    for A in acts:
        if A.monoid.table != table or A.size != m or not oracle.is_act(table, A.action):
            return f"an act of size {m} breaks the act axioms"
    if len({oracle.act_iso_key(A.action) for A in acts}) != len(acts):
        return f"two acts of size {m} are isomorphic"
    return None


def _zmod_document(m, rng):
    """The regular act of (Z/m, *) with the residues in a seeded order.

    labels[i] is the residue behind element i; the identity 1 comes
    first, as the input format requires.
    """
    rest = [r for r in range(m) if r != 1]
    rng.shuffle(rest)
    labels = [1] + rest
    pos = {r: i for i, r in enumerate(labels)}
    table = [[pos[a * b % m] for b in labels] for a in labels]
    rows = "\n".join(" ".join(map(str, row)) for row in table)
    text = f"monoid Z {m}\n{rows}\n\nact R over Z {m}\n{rows}\n"
    return text, labels


def _check_family(text, depth):
    pairs = [tuple(map(int, line.split())) for line in text.splitlines()[1:]]
    if pairs != [(n, n) for n in range(1, depth + 1)]:
        return f"chain indices {pairs}, expected index N at every depth N"
    return None


WORKLOADS = {
    "suite": Suite,
    "classify": Classify,
    "lattice": Lattice,
    "construct": Construct,
}
