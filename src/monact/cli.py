"""Command-line front end.

Subcommands: validate, classify, endos, congruences, suite, family36.
Exit codes: 0 success, 1 property/suite failure, 2 input error,
3 budget/cap exceeded.

JSON output is canonical: keys sorted, arrays in the module-defined
canonical orders, so identical inputs give byte-identical documents.
Every document is written by one emitter, `_dumps`, whose bytes equal
those of `json.dumps` with `sort_keys=True` and a two-space indent; it
skips the pure-Python encoder that json falls back to when indenting.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _quote

from .act import regular_act
from .congruence import CONGRUENCE_ENUM_CAP, enumerate_congruences
from .deciders import ActAnalysis, chain_reports, classify_act, r_chain_index
from .endo import endomorphisms, identity_first
from .errors import AlgebraError, BudgetError, CarrierTooLarge, InputError
from .harness import ALL_THEOREMS, CorpusSpec, run_suite
from .monoid import SIZE_CAP, prime_power_product, require_prime, zmod_mult_monoid
from .textio import parse_input

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


_INT = {int}


def _dumps(x) -> str:
    """x as `json.dumps` writes it with sorted keys and a two-space indent."""
    out = []
    _emit(x, "", out)
    return "".join(out)


def _emit(x, pad, out):
    """Append the text of x, nested at `pad`, to the list `out`: strings
    and keys through json's own C quoting (a key that is not a str raises
    TypeError there), a list or tuple of plain ints in one join, any other
    scalar by `json.dumps`.  Small chunks, one join at the end: no
    container's text is copied into its parent's."""
    t = type(x)
    if t is int:
        out.append(int.__repr__(x))
    elif t is str:
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, (list, tuple)):
        inner = pad + "  "
        if not x:
            out.append("[]")
        elif {*map(type, x)} == _INT:
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, x)) + "\n" + pad + "]")
        else:
            sep = ",\n" + inner
            out.append("[\n" + inner)
            for v in x:
                _emit(v, inner, out)
                out.append(sep)
            out[-1] = "\n" + pad + "]"
    elif isinstance(x, dict):
        inner = pad + "  "
        if not x:
            out.append("{}")
        else:
            sep = ",\n" + inner
            out.append("{\n" + inner)
            for k in sorted(x):
                out.append(_quote(k) + ": ")
                _emit(x[k], inner, out)
                out.append(sep)
            out[-1] = "\n" + pad + "}"
    else:
        out.append(json.dumps(x))


def _json_doc(input_digest, reports, verdicts) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input_digest": input_digest,
        "reports": reports,
        "verdicts": verdicts,
    }
    return _dumps(doc) + "\n"


def _load_document(path):
    """The parsed document and the digest of its text, with newlines
    read as text mode reads them.  A file that is not UTF-8 is an input
    error that names the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
    return parse_input(text), _digest(text.encode("utf-8"))


def _builtin_monoid(name, carrier_cap=SIZE_CAP):
    m = re.fullmatch(r"[Zz](\d+)", name)
    if not m:
        raise InputError(
            f"unknown builtin monoid {name!r} (expected Z<m> for residues mod m)"
        )
    modulus = int(m.group(1))
    if modulus < 1:
        raise InputError(f"builtin monoid {name!r} needs a modulus of at least 1")
    if carrier_cap < modulus <= SIZE_CAP:  # refuse the regular act before the table
        raise CarrierTooLarge(f"carrier size {modulus} exceeds cap {carrier_cap}")
    return zmod_mult_monoid(modulus)


def _partition_str(classes):
    return "{" + ", ".join("{" + ",".join(map(str, c)) + "}" for c in classes) + "}"


def _resolve_act(args, carrier_cap=SIZE_CAP):
    """(label, monoid_label, act, digest) for classify/endos/congruences."""
    if getattr(args, "regular", None):
        name = args.regular
        if args.file:
            doc, digest = _load_document(args.file)
            if name not in doc.monoids:
                raise InputError(f"monoid {name!r} not defined in {args.file}")
            M = doc.monoids[name]
        else:
            M = _builtin_monoid(name, carrier_cap)
            digest = _digest(f"regular:{name}:{M.table}".encode())
        return f"regular({name})", name, regular_act(M), digest
    if not args.file:
        raise InputError("an input file is required unless --regular names a builtin")
    doc, digest = _load_document(args.file)
    if args.act is None:
        raise InputError("--act NAME is required (or use --regular)")
    if args.act not in doc.acts:
        raise InputError(f"act {args.act!r} not defined in {args.file}")
    mname, A = doc.acts[args.act]
    return args.act, mname, A, digest


def cmd_validate(args):
    doc, _ = _load_document(args.file)
    for kind, name in doc.entries:
        if kind == "monoid":
            M = doc.monoids[name]
            print(f"monoid {name}: ok (size {M.size})")
        else:
            mname, A = doc.acts[name]
            print(f"act {name} over {mname}: ok (size {A.size})")
    return EXIT_OK


def _report_entry(label, mlabel, A, props, chains):
    entry = {
        "act": label,
        "monoid": mlabel,
        "act_size": A.size,
        "monoid_size": A.monoid.size,
        "properties": props.to_dict(),
    }
    if chains:
        entry["chains"] = [
            {
                "endo": c.endo,
                "map": c.mapping,
                "k_index": c.k_index,
                "i_index": c.i_index,
                "kernel": c.kernel.classes,
                "image": c.image.classes,
            }
            for c in chains
        ]
    return entry


def cmd_classify(args):
    label, mlabel, A, digest = _resolve_act(args, CONGRUENCE_ENUM_CAP)
    an = ActAnalysis(A)
    # the report first: its congruence cap and hom-list cap stop an
    # oversized act before any chain is computed
    props = classify_act(an)
    chains = chain_reports(an)
    entry = _report_entry(label, mlabel, A, props, chains)
    if args.json:
        sys.stdout.write(_json_doc(digest, [entry], []))
        return EXIT_OK
    props = entry["properties"]
    print(f"act {label} over {mlabel} (size {A.size}, monoid size {A.monoid.size})")
    for key in sorted(props):
        print(f"  {key:28} {props[key]}")
    print(f"endomorphisms ({len(chains)}):")
    print("  id  map              k  i  kernel / image")
    for c in chains:
        kern = _partition_str(c.kernel.classes)
        img = _partition_str(c.image.classes)
        print(f"  {c.endo:<3} {str(c.mapping):16} {c.k_index}  {c.i_index}  {kern} / {img}")
    return EXIT_OK


def cmd_endos(args):
    label, mlabel, A, _ = _resolve_act(args)
    endos = identity_first(endomorphisms(A))
    print(f"endomorphisms of {label} over {mlabel}: {len(endos)}")
    for i, f in enumerate(endos):
        print(f"  {i}: {f}")
    return EXIT_OK


def cmd_congruences(args):
    label, mlabel, A, _ = _resolve_act(args, CONGRUENCE_ENUM_CAP)
    congs = enumerate_congruences(A)
    print(f"congruences of {label} over {mlabel}: {len(congs)}")
    for c in congs:
        print(f"  {_partition_str(c.classes)}")
    return EXIT_OK


def suite_json(result) -> str:
    """The `suite --json` document of a run_suite result."""
    spec_blob = json.dumps(asdict(result.spec), sort_keys=True)
    verdicts = [v.to_dict() for v in result.verdicts]
    return _json_doc(_digest(spec_blob.encode()), result.reports, verdicts)


def cmd_suite(args):
    theorems = ALL_THEOREMS
    if args.theorems:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    spec = CorpusSpec(max_monoid_size=args.max_monoid, max_act_size=args.max_act,
                      theorems=theorems, seed=args.seed, samples=args.samples)
    result = run_suite(spec)
    failures = [v for v in result.verdicts if not v.passed]
    if args.json:
        sys.stdout.write(suite_json(result))
    else:
        n_acts = sum(len(per) for per in result.corpus.acts)
        print(
            f"corpus: {len(result.corpus.monoids)} monoids, {n_acts} acts "
            f"(max sizes {spec.max_monoid_size}/{spec.max_act_size})"
        )
        for v in result.verdicts:
            status = "pass" if v.passed else "FAIL"
            print(
                f"  {v.theorem:4} {status}  instances={v.instances} "
                f"nonvacuous={v.nonvacuous}  {v.title}"
            )
            if not v.passed:
                print(f"       witness: {json.dumps(v.witness, sort_keys=True)}")
        print("result:", "all passed" if not failures else f"{len(failures)} failed")
    return EXIT_OK if not failures else EXIT_FAILURE


def cmd_family36(args):
    if args.max_n < 1:
        raise InputError("--max-n must be at least 1")
    require_prime(args.p)
    print(f"p={args.p}: truncation depth N vs chain index of the distinguished element")
    for n in range(1, args.max_n + 1):
        S, x = prime_power_product(args.p, n)
        print(f"  {n} {r_chain_index(S, x)}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argparse parser, built once per process: parsing leaves it
    unchanged, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="monact",
        description="Finite monoid actions: validation, Hopfian-type "
        "classification, and an exhaustive theorem-checking suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate an input file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="full property report for one act")
    p.add_argument("file", nargs="?")
    p.add_argument("--act", help="act name from the input file")
    p.add_argument("--regular", help="classify the regular act of a monoid "
                   "(file name, or builtin Z<m>)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("endos", help="list the endomorphisms of an act")
    p.add_argument("file", nargs="?")
    p.add_argument("--act")
    p.add_argument("--regular")
    p.set_defaults(fn=cmd_endos)

    p = sub.add_parser("congruences", help="list the congruences of an act")
    p.add_argument("file", nargs="?")
    p.add_argument("--act")
    p.add_argument("--regular")
    p.set_defaults(fn=cmd_congruences)

    p = sub.add_parser("suite", help="run the theorem suite over the corpus")
    p.add_argument("--max-monoid", type=int, default=3)
    p.add_argument("--max-act", type=int, default=4)
    p.add_argument("--theorems", help="comma-separated ids, e.g. T1,T4")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("family36", help="chain-index growth family: truncated "
                       "products of prime-power residue monoids")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(fn=cmd_family36)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
