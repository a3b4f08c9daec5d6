"""The oracles stay independent of the code they check.  `oracles.py`
recomputes results from first principles, so every library name it
imports is pinned here with the reason it may be read: a data
constructor, or one of the exceptions the module docstring names,
where an oracle takes its inputs from the library and redoes only the
step under test.  A new import from `monact` fails until it is listed."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

ALLOWED = {
    "monact.act.enumerate_subacts":
        "the quasi-injectivity oracle takes the subacts and redoes the extending",
    "monact.act.quotient_by_congruence":
        "the lift oracles take the factor act and projection and redo the lifting",
    "monact.act.subact_as_act":
        "the quasi-injectivity oracle reads a subact as an act to search homs out of it",
    "monact.congruence.Congruence":
        "data constructor for the chain-report oracle's congruences",
    "monact.congruence.enumerate_congruences":
        "the quasi-projectivity oracle takes the lattice and redoes the lifting",
    "monact.deciders.ChainReport":
        "data constructor for the chain-report oracle",
    "monact.deciders.analyse":
        "the endomorphisms and settle indices the chain-report and literal Hopfian oracles start from",
    "monact.endo.homomorphisms":
        "the hom lists the extending, lifting and pair oracles redo the check on (`hom_maps`)",
    "monact.endo.induces_all_endomorphisms":
        "the T8 pair oracle decides each kernel's lift test with it and redoes the counting",
    "monact.endo.identity_first":
        "the canonical End(A) order the chain reports are listed in",
    "monact.errors.SourceTargetMismatch":
        "the error type the equivariance check raises for acts over different monoids",
    "monact.harness":
        "`harness.flag`, which the T7 and T8 oracles read so that a forced flag reaches them",
    "monact.harness.SCH":
        "the flag name the T8 oracle hands to `harness.flag`",
    "monact.harness.SH":
        "the flag name the T7 oracle hands to `harness.flag`",
    "monact.monoid.Monoid":
        "data constructor for the End(A) table oracle's monoid",
    "monact.monoid.monoid_generators":
        "the generating set the brute-force act search fills columns for",
}


def library_imports(source):
    """The dotted `monact` names `source` imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] == "monact")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "monact":
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def test_oracles_import_only_the_listed_library_names():
    assert library_imports(ORACLES.read_text()) == set(ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_a_new_library_import_is_caught():
    source = ("import json\nimport monact.relation\nfrom monact.endo import homomorphisms\n\n"
              "def f():\n    from monact.congruence import join\n")
    assert library_imports(source) - set(ALLOWED) == {"monact.relation", "monact.congruence.join"}
