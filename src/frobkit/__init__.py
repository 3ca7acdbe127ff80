"""frobkit: exact construction and verification of (non-counital) Frobenius
structures on finite-dimensional algebras and weak Hopf algebras.

Everything is computed over arbitrary-precision rationals; there is no
floating point anywhere, so every verified identity is an exact theorem
about the concrete instance.
"""

from .errors import (
    ConstructionError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
)
from .exactlin import (
    Mat,
    Scalar,
    Vec,
    inverse,
    is_invertible,
)
from .finalg import (
    AlgebraData,
    CasimirElement,
    Classification,
    ComultData,
    VerificationReport,
    Witness,
    casimir_comult,
    check_algebra,
    check_bimodule,
    check_casimir,
    check_coassoc,
    classify,
    classify_report,
    solve_counit,
)

__version__ = "0.1.0"
