"""Finite-dimensional algebras with comultiplications, and their axiom checkers.

An algebra is given by structure constants on a chosen basis.  A candidate
comultiplication is a linear map into the tensor square (stored as a matrix
with row-major pair flattening) plus an optional counit functional.  Nothing
is assumed about supplied data: the check_* operations verify associativity,
unitality, coassociativity, the bimodule compatibility

    (id (x) m)(Delta (x) id) = Delta m = (m (x) id)(id (x) Delta),

and the Casimir property of a candidate Delta(1).  A comultiplication can be
built from any Casimir element, and counits are found by exact linear
solving, so the layer works for arbitrary user-supplied data.

Over a unital associative algebra a bimodule map Delta is fixed by Delta(1):
Delta(x) = Delta(1) x = x Delta(1).  So the bimodule and coassociativity
checks first test, once per ComultData, that check_algebra passes and that
Delta(e_j) = Delta(1) e_j = e_j Delta(1) for every column j: O(d) column
products instead of O(d^2) basis pairs.  When that holds, both bimodule
equalities and coassociativity hold (see check_coassoc).  Otherwise the
pairwise scans run as the only witness path, so every failure is reported at
the same first basis index.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PreconditionError
from .exactlin import (
    Mat,
    ONE,
    Vec,
    ZERO,
    LinearSystem,
    addto,
    scalar_from_str,
    scalar_to_str,
)

__all__ = [
    "AlgebraData",
    "ComultData",
    "CasimirElement",
    "Witness",
    "CheckResult",
    "VerificationReport",
    "Classification",
    "ClassifyOutcome",
    "check_algebra",
    "check_coassoc",
    "check_bimodule",
    "check_casimir",
    "casimir_comult",
    "solve_counit",
    "solve_counit_full",
    "eps_tensor_id",
    "id_tensor_eps",
    "classify",
    "classify_report",
    "permute_basis",
    "tensor_power_mul",
    "comult_to_json",
    "comult_from_json",
    "comult_to_json_str",
]


class AlgebraData:
    """A unital algebra by structure constants.

    ``mult`` maps a basis pair (i, j) to the product vector e_i * e_j; absent
    keys mean the product is zero.  Associativity and unitality are not
    assumed; run :func:`check_algebra`.  Fields are never reassigned after
    construction: the monomial table and the check_algebra report are derived
    from them and kept here.
    """

    def __init__(self, dim: int, labels: list[str], mult: dict, unit: Vec):
        if dim < 1:
            raise InputError("algebra dimension must be >= 1")
        if len(labels) != dim:
            raise InputError(f"expected {dim} labels, got {len(labels)}")
        if unit.dim != dim:
            raise InputError("unit vector dimension mismatch")
        clean: dict[tuple[int, int], Vec] = {}
        for (i, j), vec in mult.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"structure constant index ({i}, {j}) out of range")
            if vec.dim != dim:
                raise InputError(f"product vector for ({i}, {j}) has wrong dimension")
            if not vec.is_zero():
                clean[(i, j)] = vec
        self.dim = dim
        self.labels = list(labels)
        self.mult = clean
        self.unit = unit
        self._zero = Vec(dim)
        self._monomial_table: list[list[int]] | None | bool = False  # False = unknown
        self._report: VerificationReport | None = None

    def basis_product(self, i: int, j: int) -> Vec:
        return self.mult.get((i, j), self._zero)

    def mul(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the structure constants."""
        acc: dict[int, Fraction] = {}
        mult = self.mult
        for i, a in x.terms():
            for j, b in y.terms():
                prod = mult.get((i, j))
                if prod is not None:
                    addto(acc, a * b, prod.terms())
        return Vec.adopt(self.dim, acc)

    def left_mult_matrix(self, x: Vec) -> Mat:
        cols = [self.mul(x, Vec.basis(self.dim, j)) for j in range(self.dim)]
        return Mat.from_columns(self.dim, cols)

    def right_mult_matrix(self, x: Vec) -> Mat:
        cols = [self.mul(Vec.basis(self.dim, j), x) for j in range(self.dim)]
        return Mat.from_columns(self.dim, cols)

    def monomial_table(self) -> list[list[int]] | None:
        """Product table as indices when every basis product is 0 or a single
        basis element with coefficient 1; None otherwise."""
        if self._monomial_table is not False:
            return self._monomial_table
        table: list[list[int]] = [[-1] * self.dim for _ in range(self.dim)]
        ok = True
        for (i, j), vec in self.mult.items():
            items = vec.items()
            if len(items) != 1 or items[0][1] != ONE:
                ok = False
                break
            table[i][j] = items[0][0]
        self._monomial_table = table if ok else None
        return self._monomial_table


class ComultData:
    """A candidate comultiplication (and optional counit) on an algebra.

    ``delta`` is a (dim^2 x dim) matrix whose column j is Delta(e_j) under
    row-major flattening of pairs: flat = p * dim + q for e_p (x) e_q.
    Fields are never reassigned after construction: the column cache and the
    Delta(1) flag of the bimodule and coassociativity checks derive from them.
    """

    def __init__(self, algebra: AlgebraData, delta: Mat, counit: Vec | None = None):
        d = algebra.dim
        if (delta.nrows, delta.ncols) != (d * d, d):
            raise InputError(
                f"delta must be {d * d}x{d}, got {delta.nrows}x{delta.ncols}"
            )
        if counit is not None and counit.dim != d:
            raise InputError("counit dimension mismatch")
        self.algebra = algebra
        self.delta = delta
        self.counit = counit
        self._cols: list[list[tuple[int, int, Fraction]]] | None = None
        self._from_delta_one: bool | None = None

    def delta_of(self, x: Vec) -> Vec:
        return self.delta.matvec(x)

    def delta_pairs(self, j: int) -> list[tuple[int, int, Fraction]]:
        """Column j of delta as (p, q, coeff) tensor terms."""
        if self._cols is None:
            d = self.algebra.dim
            self._cols = [
                [(t // d, t % d, v) for t, v in self.delta.col_terms(k)]
                for k in range(d)
            ]
        return self._cols[j]


@dataclass(frozen=True)
class CasimirElement:
    """Candidate Casimir tensor sum_i a_i (x) b_i, stored over dim^2."""

    algebra: AlgebraData
    element: Vec

    def __post_init__(self):
        d = self.algebra.dim
        if self.element.dim != d * d:
            raise InputError("Casimir element must live in the tensor square")


@dataclass(frozen=True)
class Witness:
    """Both sides of a failed identity at a specific basis multi-index."""

    indices: tuple[int, ...]
    lhs: Vec
    rhs: Vec
    note: str = ""

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "lhs": [[k, scalar_to_str(v)] for k, v in self.lhs.items()],
            "rhs": [[k, scalar_to_str(v)] for k, v in self.rhs.items()],
            "note": self.note,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            state = "PASS" if c.passed else "FAIL"
            line = f"[{state}] {c.name}"
            if c.witness is not None:
                line += f"  at {c.witness.indices}"
                if c.witness.note:
                    line += f" ({c.witness.note})"
            out.append(line)
        return out

    def to_json(self) -> list[dict]:
        return [
            {
                "check": c.name,
                "passed": c.passed,
                "witness": c.witness.to_json() if c.witness else None,
            }
            for c in self.checks
        ]


class Classification(enum.Enum):
    FROBENIUS = "Frobenius"
    NON_COUNITAL_ONLY = "NonCounitalOnly"
    NOT_FROBENIUS_STRUCTURE = "NotFrobeniusStructure"


def _scalar_witness(indices, lhs: Fraction, rhs: Fraction, note="") -> Witness:
    return Witness(tuple(indices), Vec(1, {0: lhs}), Vec(1, {0: rhs}), note)


def check_algebra(a: AlgebraData) -> VerificationReport:
    """Associativity over all basis triples and two-sided unitality.
    The report is kept on ``a``: later calls return the same object."""
    if a._report is None:
        a._report = _algebra_report(a)
    return a._report


def _algebra_report(a: AlgebraData) -> VerificationReport:
    d = a.dim
    checks = []

    assoc_witness = None
    table = a.monomial_table()
    if table is not None:
        for i in range(d):
            ti = table[i]
            for j in range(d):
                ij = ti[j]
                tj = table[j]
                row_ij = table[ij] if ij >= 0 else None
                for k in range(d):
                    lhs = row_ij[k] if row_ij is not None else -1
                    jk = tj[k]
                    rhs = ti[jk] if jk >= 0 else -1
                    if lhs != rhs:
                        assoc_witness = Witness(
                            (i, j, k),
                            a.mul(a.basis_product(i, j), Vec.basis(d, k)),
                            a.mul(Vec.basis(d, i), a.basis_product(j, k)),
                            "(e_i e_j) e_k != e_i (e_j e_k)",
                        )
                        break
                if assoc_witness:
                    break
            if assoc_witness:
                break
    else:
        basis = [Vec.basis(d, k) for k in range(d)]
        for i in range(d):
            for j in range(d):
                pij = a.basis_product(i, j)
                for k in range(d):
                    lhs = a.mul(pij, basis[k])
                    rhs = a.mul(basis[i], a.basis_product(j, k))
                    if lhs != rhs:
                        assoc_witness = Witness(
                            (i, j, k), lhs, rhs, "(e_i e_j) e_k != e_i (e_j e_k)"
                        )
                        break
                if assoc_witness:
                    break
            if assoc_witness:
                break
    checks.append(CheckResult("associativity", assoc_witness is None, assoc_witness))

    left_witness = None
    right_witness = None
    for k in range(d):
        ek = Vec.basis(d, k)
        lhs = a.mul(a.unit, ek)
        if left_witness is None and lhs != ek:
            left_witness = Witness((k,), lhs, ek, "1 * e_k != e_k")
        rhs = a.mul(ek, a.unit)
        if right_witness is None and rhs != ek:
            right_witness = Witness((k,), rhs, ek, "e_k * 1 != e_k")
    checks.append(CheckResult("unit_left", left_witness is None, left_witness))
    checks.append(CheckResult("unit_right", right_witness is None, right_witness))
    return VerificationReport(tuple(checks))


def check_coassoc(c: ComultData) -> VerificationReport:
    """Compare (Delta (x) id) Delta with (id (x) Delta) Delta exactly.

    No scan is needed when Delta is determined by Delta(1) = sum_i a_i (x) b_i
    over a unital associative algebra (see :func:`_from_delta_one`):
    Delta(x) = Delta(1) x and the Casimir property y Delta(1) = Delta(1) y
    turn both (Delta (x) id)Delta(x) and (id (x) Delta)Delta(x) into
    (sum_{i,j} a_i (x) b_i a_j (x) b_j) x.  So every bimodule Delta over a
    unital associative algebra is coassociative.
    """
    if _from_delta_one(c):
        return VerificationReport((CheckResult("coassociativity", True),))
    d = c.algebra.dim
    delta = c.delta
    witness = None
    for j in range(d):
        lhs: dict[int, Fraction] = {}
        rhs: dict[int, Fraction] = {}
        for p, q, v in c.delta_pairs(j):
            addto(lhs, v, delta.col_terms(p), q, d)  # (x*d + y)*d + q
            addto(rhs, v, delta.col_terms(q), p * d * d)  # (p*d + x)*d + y
        if lhs != rhs:
            n = d * d * d
            witness = Witness(
                (j,),
                Vec.adopt(n, lhs),
                Vec.adopt(n, rhs),
                "(Delta(x)id)Delta != (id(x)Delta)Delta",
            )
            break
    return VerificationReport(
        (CheckResult("coassociativity", witness is None, witness),)
    )


def check_bimodule(c: ComultData) -> VerificationReport:
    """Both bimodule equalities:

    right: (id (x) m)(Delta (x) id)(x (x) y) = Delta(xy)
    left:  (m (x) id)(id (x) Delta)(x (x) y) = Delta(xy)

    Both hold without a scan when Delta(x) = Delta(1) x = x Delta(1) over an
    associative algebra (see :func:`_from_delta_one`): then
    Delta(x) y = Delta(1) xy and x Delta(y) = xy Delta(1).
    """
    if _from_delta_one(c):
        return VerificationReport(
            (CheckResult("bimodule_right", True), CheckResult("bimodule_left", True))
        )
    a = c.algebra
    d = a.dim
    right_witness = None
    left_witness = None
    for i in range(d):
        pairs_i = c.delta_pairs(i)
        for j in range(d):
            target = c.delta_of(a.basis_product(i, j))
            if right_witness is None:
                acc: dict[int, Fraction] = {}
                for p, q, v in pairs_i:
                    addto(acc, v, a.basis_product(q, j).terms(), p * d)
                lhs = Vec.adopt(d * d, acc)
                if lhs != target:
                    right_witness = Witness(
                        (i, j), lhs, target, "(id(x)m)(Delta(x)id) != Delta m"
                    )
            if left_witness is None:
                acc = {}
                for p, q, v in c.delta_pairs(j):
                    addto(acc, v, a.basis_product(i, p).terms(), q, d)
                lhs = Vec.adopt(d * d, acc)
                if lhs != target:
                    left_witness = Witness(
                        (i, j), lhs, target, "(m(x)id)(id(x)Delta) != Delta m"
                    )
            if right_witness is not None and left_witness is not None:
                break
        if right_witness is not None and left_witness is not None:
            break
    return VerificationReport(
        (
            CheckResult("bimodule_right", right_witness is None, right_witness),
            CheckResult("bimodule_left", left_witness is None, left_witness),
        )
    )


def check_casimir(cas: CasimirElement) -> VerificationReport:
    """Verify sum_i a_i (x) b_i x = sum_i x a_i (x) b_i for every basis x."""
    a = cas.algebra
    d = a.dim
    terms = _tensor_terms(cas)
    witness = None
    for x in range(d):
        lhs = _casimir_times(a, terms, x)
        rhs = _times_casimir(a, terms, x)
        if lhs != rhs:
            witness = Witness(
                (x,),
                Vec.adopt(d * d, lhs),
                Vec.adopt(d * d, rhs),
                "a_i (x) b_i x != x a_i (x) b_i",
            )
            break
    return VerificationReport((CheckResult("casimir", witness is None, witness),))


def _tensor_terms(cas: CasimirElement) -> list[tuple[int, int, Fraction]]:
    d = cas.algebra.dim
    return [(t // d, t % d, v) for t, v in cas.element.terms()]


def _casimir_times(a: AlgebraData, terms, x: int) -> dict[int, Fraction]:
    """sum_i a_i (x) b_i e_x over the tensor square."""
    acc: dict[int, Fraction] = {}
    for p, q, v in terms:
        addto(acc, v, a.basis_product(q, x).terms(), p * a.dim)
    return acc


def _times_casimir(a: AlgebraData, terms, x: int) -> dict[int, Fraction]:
    """sum_i e_x a_i (x) b_i over the tensor square."""
    acc: dict[int, Fraction] = {}
    for p, q, v in terms:
        addto(acc, v, a.basis_product(x, p).terms(), q, a.dim)
    return acc


def _from_delta_one(c: ComultData) -> bool:
    """True iff check_algebra passes and Delta(e_j) = Delta(1) e_j =
    e_j Delta(1) for every j, i.e. Delta is the bimodule map of the Casimir
    element Delta(1).  Stops at the first column that differs; the answer is
    kept on ``c``."""
    if c._from_delta_one is None:
        a = c.algebra
        ok = check_algebra(a).passed
        if ok:
            terms = _tensor_terms(CasimirElement(a, c.delta_of(a.unit)))
            for j in range(a.dim):
                col = dict(c.delta.col_terms(j))
                if _casimir_times(a, terms, j) != col or _times_casimir(a, terms, j) != col:
                    ok = False
                    break
        c._from_delta_one = ok
    return c._from_delta_one


def casimir_comult(cas: CasimirElement) -> ComultData:
    """Comultiplication Delta(x) = sum_i a_i (x) b_i x from a Casimir element.

    Raises PreconditionError (carrying the witness) when the Casimir identity
    fails, since the construction is only coassociative and bimodule-linear
    for genuine Casimir elements.
    """
    report = check_casimir(cas)
    if not report.passed:
        raise PreconditionError(
            "element fails the Casimir identity", report.failures()[0].witness
        )
    a = cas.algebra
    d = a.dim
    terms = _tensor_terms(cas)
    cols = [Vec.adopt(d * d, _casimir_times(a, terms, j)) for j in range(d)]
    return ComultData(a, Mat.from_columns(d * d, cols))


def _counit_system(c: ComultData) -> LinearSystem:
    d = c.algebra.dim
    sys_ = LinearSystem(d)
    # (eps (x) id) Delta(e_j) = e_j: for each output coordinate q,
    # sum_p delta[(p,q), j] eps_p = [q == j]
    # each (p, q) occurs once per column, so the rows need no summing
    for j in range(d):
        by_q: dict[int, dict[int, Fraction]] = {}
        by_p: dict[int, dict[int, Fraction]] = {}
        for p, q, v in c.delta_pairs(j):
            by_q.setdefault(q, {})[p] = v
            by_p.setdefault(p, {})[q] = v
        for q in range(d):
            coeffs = by_q.get(q, {})
            rhs = ONE if q == j else ZERO
            if coeffs or rhs:
                sys_.add(coeffs, rhs, tag=("left", j, q))
        for p in range(d):
            coeffs = by_p.get(p, {})
            rhs = ONE if p == j else ZERO
            if coeffs or rhs:
                sys_.add(coeffs, rhs, tag=("right", j, p))
    return sys_


@dataclass(frozen=True)
class CounitSolution:
    epsilon: Vec | None
    unique: bool
    witness: Witness | None


def eps_tensor_id(c: ComultData, eps: Vec) -> Mat:
    """Matrix of x -> (eps (x) id) Delta(x); equals the identity iff eps is a
    left counit."""
    d = c.algebra.dim
    entries = []
    for j in range(d):
        for p, q, v in c.delta_pairs(j):
            w = eps.get(p)
            if w:
                entries.append((q, j, v * w))
    return Mat(d, d, entries)


def id_tensor_eps(c: ComultData, eps: Vec) -> Mat:
    d = c.algebra.dim
    entries = []
    for j in range(d):
        for p, q, v in c.delta_pairs(j):
            w = eps.get(q)
            if w:
                entries.append((p, j, v * w))
    return Mat(d, d, entries)


def solve_counit_full(c: ComultData) -> CounitSolution:
    """Solve both counit identities as one exact linear system.

    Returns the unique solution when it exists; for a consistent but
    underdetermined system returns the free-variables-zero solution with
    ``unique=False``.  When no counit exists, the witness reports the first
    basis element where the best-effort candidate fails either identity.
    """
    sys_ = _counit_system(c)
    if sys_.consistent:
        eps = sys_.partial_solution()
        unique = sys_.rank == c.algebra.dim
        return CounitSolution(eps, unique, None)
    cand = sys_.partial_solution()
    d = c.algebra.dim
    left = eps_tensor_id(c, cand)
    right = id_tensor_eps(c, cand)
    witness = None
    for j in range(d):
        ej = Vec.basis(d, j)
        lcol = left.col(j)
        if lcol != ej:
            witness = Witness((j,), lcol, ej, "(eps(x)id)Delta(e_j) != e_j for best candidate")
            break
        rcol = right.col(j)
        if rcol != ej:
            witness = Witness((j,), rcol, ej, "(id(x)eps)Delta(e_j) != e_j for best candidate")
            break
    return CounitSolution(None, False, witness)


def solve_counit(c: ComultData) -> Vec | None:
    """Counit functional for Delta, or None when none exists."""
    return solve_counit_full(c).epsilon


@dataclass(frozen=True)
class ClassifyOutcome:
    classification: Classification
    report: VerificationReport
    counit: Vec | None
    counit_unique: bool
    counit_witness: Witness | None


def classify_report(c: ComultData) -> ClassifyOutcome:
    """Full classification with the axiom report and counit information.

    The report carries only structural axiom checks; absence of a counit is
    conveyed through the classification, not as a failed check.
    """
    report = (
        check_algebra(c.algebra)
        .merged(check_coassoc(c))
        .merged(check_bimodule(c))
    )
    structural = all(
        r.passed
        for r in report.checks
        if r.name in ("coassociativity", "bimodule_right", "bimodule_left")
    )
    if not structural:
        return ClassifyOutcome(
            Classification.NOT_FROBENIUS_STRUCTURE, report, None, False, None
        )
    sol = solve_counit_full(c)
    cls = (
        Classification.FROBENIUS
        if sol.epsilon is not None
        else Classification.NON_COUNITAL_ONLY
    )
    return ClassifyOutcome(cls, report, sol.epsilon, sol.unique, sol.witness)


def classify(c: ComultData) -> Classification:
    return classify_report(c).classification


def tensor_power_mul(a: AlgebraData, u: Vec, v: Vec, factors: int) -> Vec:
    """Componentwise product in the tensor power algebra A^{(x) factors}."""
    d = a.dim
    size = d**factors
    if u.dim != size or v.dim != size:
        raise InputError("tensor power dimension mismatch")

    def split(flat):
        out = []
        for _ in range(factors):
            flat, r = divmod(flat, d)
            out.append(r)
        return tuple(reversed(out))

    acc: dict[int, Fraction] = {}
    for fu, cu in u.terms():
        iu = split(fu)
        for fv, cv in v.terms():
            iv = split(fv)
            # e_{iu} e_{iv} factor by factor; distinct prefixes never collide
            term = {0: cu * cv}
            for t in range(factors):
                comp = a.basis_product(iu[t], iv[t]).terms()
                nxt: dict[int, Fraction] = {}
                for flat, c in term.items():
                    addto(nxt, c, comp, flat * d)
                term = nxt
            addto(acc, ONE, term.items())
    return Vec.adopt(size, acc)


def permute_basis(c: ComultData, perm: list[int]) -> ComultData:
    """Relabel the basis: new position k holds old basis element perm[k].

    All structure data (products, unit, delta, counit) is conjugated by the
    permutation, so the result is the same algebra with a reordered basis.
    """
    a = c.algebra
    d = a.dim
    if sorted(perm) != list(range(d)):
        raise InputError("perm must be a permutation of the basis indices")
    ipos = [0] * d
    for new, old in enumerate(perm):
        ipos[old] = new

    def relabel(vec: Vec) -> Vec:
        return Vec(d, {ipos[k]: v for k, v in vec.items()})

    new_mult = {}
    for (i, j), vec in a.mult.items():
        new_mult[(ipos[i], ipos[j])] = relabel(vec)
    new_alg = AlgebraData(
        d, [a.labels[old] for old in perm], new_mult, relabel(a.unit)
    )
    entries = []
    for k in range(d):
        for p, q, v in c.delta_pairs(perm[k]):
            entries.append((ipos[p] * d + ipos[q], k, v))
    new_delta = Mat(d * d, d, entries)
    new_counit = None
    if c.counit is not None:
        new_counit = Vec(d, {ipos[k]: v for k, v in c.counit.items()})
    return ComultData(new_alg, new_delta, new_counit)


# JSON exchange format:
# {"dim": n, "labels": [...], "mult": [[i, j, k, "p/q"], ...],
#  "unit": [[k, "p/q"], ...], "delta": [[i, t, "p/q"], ...],
#  "counit": [[k, "p/q"], ...]}
# where t is a row-major flattened pair index and counit is optional.
# Matrix entries are [column, row, "p/q"].  Every entry is parsed by
# _entries_from_json, so any malformed entry is an InputError; repeated
# entries add up in every field.


def _field(payload, name: str):
    try:
        return payload[name]
    except (KeyError, TypeError):
        raise InputError(f"missing or malformed field: {name!r}") from None


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _entries_from_json(raw, arity: int, field: str) -> list[tuple]:
    """Entries [i_1, ..., i_{arity-1}, "p/q"] as (int, ..., Fraction) tuples."""
    if not isinstance(raw, list):
        raise InputError(f"field {field!r} must be a list")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != arity:
            raise InputError(f"bad {field} entry {entry!r}: expected {arity} items")
        *idx, v = entry
        if not all(_is_index(i) for i in idx):
            raise InputError(f"bad {field} entry {entry!r}: indices must be integers")
        out.append((*idx, scalar_from_str(v)))
    return out


def _vec_to_json(v: Vec) -> list:
    return [[k, scalar_to_str(x)] for k, x in v.items()]


def _vec_from_json(raw, dim: int, field: str) -> Vec:
    return Vec(dim, _entries_from_json(raw, 2, field))


def _mat_to_json(m: Mat) -> list:
    return sorted([c, r, scalar_to_str(v)] for r, c, v in m.items())


def _mat_from_json(raw, nrows: int, ncols: int, field: str) -> Mat:
    entries = _entries_from_json(raw, 3, field)
    return Mat(nrows, ncols, [(r, c, v) for c, r, v in entries])


def _algebra_to_json(a: AlgebraData) -> dict:
    """The "dim", "labels", "mult" and "unit" fields."""
    return {
        "dim": a.dim,
        "labels": list(a.labels),
        "mult": [
            [i, j, k, scalar_to_str(v)]
            for (i, j) in sorted(a.mult)
            for k, v in a.mult[(i, j)].items()
        ],
        "unit": _vec_to_json(a.unit),
    }


def _algebra_from_json(payload) -> AlgebraData:
    dim, labels = _field(payload, "dim"), _field(payload, "labels")
    if not _is_index(dim) or not isinstance(labels, list):
        raise InputError("fields 'dim' and 'labels' must be an integer and a list")
    mult: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i, j, k, v in _entries_from_json(_field(payload, "mult"), 4, "mult"):
        mult.setdefault((i, j), []).append((k, v))
    return AlgebraData(
        dim,
        [str(x) for x in labels],
        {key: Vec(dim, e) for key, e in mult.items()},
        _vec_from_json(_field(payload, "unit"), dim, "unit"),
    )


def comult_to_json(c: ComultData) -> dict:
    payload = _algebra_to_json(c.algebra)
    payload["delta"] = _mat_to_json(c.delta)
    if c.counit is not None:
        payload["counit"] = _vec_to_json(c.counit)
    return payload


def comult_to_json_str(c: ComultData) -> str:
    return json.dumps(comult_to_json(c), indent=2, sort_keys=True) + "\n"


def comult_from_json(payload: dict) -> ComultData:
    algebra = _algebra_from_json(payload)
    d = algebra.dim
    delta = _mat_from_json(_field(payload, "delta"), d * d, d, "delta")
    counit = None
    if payload.get("counit") is not None:
        counit = _vec_from_json(payload["counit"], d, "counit")
    return ComultData(algebra, delta, counit)
