"""The public names of the package root, of ``exactlin`` and of ``nsy``, pinned.

A name that only tests call does not belong in ``src/``; pinning the
surface makes adding one, or dropping one a command uses, a visible edit
of this file.  ``whopf.__all__`` is pinned in ``test_whopf``."""

from types import ModuleType

import frobkit
from frobkit import exactlin, nsy

FROBKIT_NAMES = {
    "AlgebraData", "CasimirElement", "Classification", "ComultData", "ConstructionError",
    "InputError", "InternalConsistencyError", "Mat", "PreconditionError", "Scalar", "Vec",
    "VerificationReport", "Witness", "casimir_comult", "check_algebra", "check_bimodule",
    "check_casimir", "check_coassoc", "classify", "classify_report", "inverse",
    "is_invertible", "solve_counit",
}

# what exactlin imports rather than defines
EXACTLIN_IMPORTS = {"annotations", "Fraction", "Iterable", "Union", "InputError"}

EXACTLIN_NAMES = {
    "LinearSystem", "Mat", "ONE", "Scalar", "Vec", "ZERO", "add_entry", "addto", "inverse",
    "is_invertible", "rank_raising", "scalar_from_str", "scalar_to_str",
}

EXACTLIN_MEMBERS = {
    "Vec": {
        "adopt", "basis", "dim", "dot", "get", "is_zero", "items", "scale", "support",
        "tensor", "terms",
    },
    "Mat": {
        "adopt", "col", "col_terms", "from_columns", "is_zero", "items", "matvec", "ncols",
        "nrows", "rows_items", "scale",
    },
    "LinearSystem": {"add", "add_matrix", "free_columns", "kernel", "rank", "solution"},
}

NSY_ALL = [
    "NSYParams", "basis_label", "nsy_dimension", "is_frobenius", "nsy_build", "nsy_delta",
    "counit_candidate", "nsy_epsilon", "sweep_params",
]

# what nsy imports rather than defines
NSY_IMPORTS = {
    "annotations", "itertools", "dataclass", "Iterator", "InputError", "Mat", "ONE", "Vec",
    "AlgebraData", "ComultData",
}


def public(namespace) -> set[str]:
    return {n for n in namespace if not n.startswith("_")}


def test_frobkit_top_level_names():
    names = {n for n in public(vars(frobkit)) if not isinstance(getattr(frobkit, n), ModuleType)}
    assert names == FROBKIT_NAMES


def test_exactlin_public_names():
    assert public(vars(exactlin)) - EXACTLIN_IMPORTS == EXACTLIN_NAMES


def test_exactlin_public_members():
    for cls, members in EXACTLIN_MEMBERS.items():
        assert public(vars(getattr(exactlin, cls))) == members, cls


def test_exactlin_mat_has_no_dense_algebra():
    assert not hasattr(exactlin.Mat, "__add__")
    assert not hasattr(exactlin.Mat, "__matmul__")


def test_nsy_public_names():
    assert nsy.__all__ == NSY_ALL
    assert public(vars(nsy)) - NSY_IMPORTS == set(NSY_ALL)
