"""Finite monoids, their right acts, and Hopfian-type structure theory.

The library represents everything as explicit finite tables: monoids as
multiplication tables, acts as action tables, congruences as
least-member label tuples.  On top of that it enumerates endomorphisms, decides
the Hopfian / co-Hopfian family of properties with exact chain indices,
and checks the structural theorems over an exhaustively generated
corpus of small instances.
"""

from .act import (
    Act,
    Subact,
    minimal_generating_set,
    quotient_by_congruence,
    regular_act,
    subact,
    subact_as_act,
    subact_generated,
    validate_act,
)
from .congruence import (
    Congruence,
    congruence_closure,
    diagonal,
    enumerate_congruences,
    image_congruence,
    join,
    kernel_congruence,
    meet,
    rees_congruence,
    universal,
)
from .deciders import (
    ActAnalysis,
    ChainReport,
    PropertyReport,
    chain_reports,
    classify_act,
    is_quasi_injective,
    is_quasi_projective,
    is_strongly_co_hopfian,
    is_strongly_hopfian,
    monoid_hopf_properties,
)
from .endo import endomorphisms, homomorphisms
from .harness import (
    CorpusSpec,
    Verdict,
    check_theorem,
    enumerate_acts,
    enumerate_monoids,
    run_suite,
)
from .monoid import (
    Monoid,
    direct_product,
    element_power,
    prime_power_product,
    validate_monoid,
    zmod_mult_monoid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
