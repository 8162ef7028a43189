"""Exact generation and verification of quantum-integrable rational
potentials of the one-dimensional Schroedinger equation, with closed-form
discrete spectra."""

from .algebra import (
    E,
    ESeries,
    SYMBOLS,
    differentiate,
    eval_nu,
    normalize,
    nu,
    rat_equal,
    series_log_derivative,
    z,
)
from .errors import NON_ELEMENTARY, SpecpotError
from .families import (
    LogPolyPair,
    PotentialResult,
    gen_family1,
    gen_family2,
    gen_family3_log,
    gen_family3_poly,
    gen_family4,
    result_at_nu,
    singular_potential,
)
from .gauge import (
    CASES,
    GaugeCase,
    H_of,
    M_INFINITY,
    V_of,
    certify,
    check_H_structure,
    ode_residual_generic,
)
from .interp import DegreeSpec, InterpNode, pade_from_series, rat_interpolate
from .seeds import (
    HyperexpSeed,
    NodeSpec1,
    NodeSpec2,
    f1f1_poly,
    gamma_sum_check,
    hyperexp_integrate,
    residue_pairing,
    seed_case1,
    seed_case2,
)
from .spectrum import (
    CandidateSet,
    EigenPair,
    enumerate_candidates,
    liouvillian_eigenfunction,
    spectrum_table,
    square_integrable,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
