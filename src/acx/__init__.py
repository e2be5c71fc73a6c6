"""Exact nondeterministic automatic complexity with verifiable witnesses.

A_N(w) is the least number of states of a nondeterministic finite
automaton that accepts w along exactly one path of length |w|.  This
package computes it exactly, emits machine-checkable witnesses and
exhaustion certificates, and carries the surrounding machinery:
combinatorics on words, modular low-complexity constructions, and
multilinear GF(2) polynomials.
"""

from .complexity import (
    ComplexityResult,
    PowerBound,
    SearchCertificate,
    an_exact,
    complexity_exceeds,
    cyclic_witness,
    full_enumeration_minima,
    hyde_bound,
    is_an_simple,
    power_bound_implication_holds,
    power_upper_bound,
)
from .gf2poly import (
    MultilinearPoly,
    anf_from_truth_table,
    constant_indicator_poly,
    degree,
    evaluate,
    format_poly,
    is_zero_function,
    or_poly,
    parse_poly,
    truth_table,
)
from .modular import (
    ModularWitness,
    ModulusSearch,
    PositionConstraint,
    avg_gap_check,
    build_low_complexity_word,
    chebyshev_theta,
    find_modulus,
    format_table,
    primorial,
    residues,
    rosser_sweep,
    table_best_bound,
    theoretical_bound,
)
from .nfa import (
    Nfa,
    to_dot,
    uniquely_accepts,
)
from .words import (
    Morphism,
    Occurrence,
    PowerSpec,
    Word,
    apply_morphism,
    brandenburg,
    contains_alpha_power,
    contains_square,
    enumerate_squarefree,
    is_overlap_free,
    is_square,
    power,
    shuffle,
    shuffle_family,
)

__version__ = "0.1.0"
