"""Exact Floer groups of separating-twist mapping tori, two independent ways.

The oracle pipeline (`knot_model`) enumerates the region of a model knot
complex and runs its page differentials with exact integer linear algebra;
the closed form (`closed_form`) evaluates the answer directly.  `cli.verify`
sweeps both over a parameter grid and reports any disagreement.
"""

from .closed_form import (
    corollary_answer,
    degree_shift,
    degree_shift_argmax,
    surface_complement_cohomology,
    surface_rel_cohomology,
    theorem_answer,
    x_homology_formula,
)
from .errors import (
    BadGenus,
    BadParams,
    GateFailure,
    GenusMismatch,
    MtfloerError,
    NotAComplex,
    TorsionUnsupported,
    UnknownTable,
    ZeroTwist,
)
from .exterior import (
    ExtVector,
    XBasisElement,
    build_X,
    e_half,
    x_ranks,
)
from .graded import (
    GradedGroup,
    ShiftReport,
    circles_cohomology,
    torsion_chain,
)
from .homology import (
    FreeComplex,
    IntMatrix,
    check_smith_form,
    smith_normal_form,
)
from .knot_model import (
    CIRCLES,
    SURFACE,
    E2Page,
    FilteredGroup,
    HomologyResult,
    build_e1_region,
    build_e2_symbolic,
    build_x_complex,
    collapse_hfk,
    hfk_M,
    oracle_hfplus,
    reference_tables,
    run_d1,
    run_d2,
)
from .params import Params

__version__ = "0.1.0"

__all__ = [
    "BadGenus",
    "BadParams",
    "CIRCLES",
    "E2Page",
    "ExtVector",
    "FilteredGroup",
    "FreeComplex",
    "GateFailure",
    "GenusMismatch",
    "GradedGroup",
    "HomologyResult",
    "IntMatrix",
    "MtfloerError",
    "NotAComplex",
    "Params",
    "SURFACE",
    "ShiftReport",
    "TorsionUnsupported",
    "UnknownTable",
    "XBasisElement",
    "ZeroTwist",
    "build_e1_region",
    "build_e2_symbolic",
    "build_X",
    "build_x_complex",
    "check_smith_form",
    "circles_cohomology",
    "collapse_hfk",
    "corollary_answer",
    "degree_shift",
    "degree_shift_argmax",
    "e_half",
    "hfk_M",
    "oracle_hfplus",
    "reference_tables",
    "run_d1",
    "run_d2",
    "smith_normal_form",
    "surface_complement_cohomology",
    "surface_rel_cohomology",
    "theorem_answer",
    "torsion_chain",
    "x_homology_formula",
    "x_ranks",
]
