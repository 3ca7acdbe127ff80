"""Finite-dimensional algebras with comultiplications, and their axiom checkers.

An algebra is given by structure constants on a chosen basis: AlgebraData
keeps each nonzero product e_i e_j as its term tuple ((k, c), ...), admitted
once, and indexes the products in the same pass.  A candidate
comultiplication is a linear map into the tensor square (stored as a matrix
with row-major pair flattening) plus an optional counit functional.  Nothing
is assumed about supplied data: the check_* operations verify associativity,
unitality, coassociativity, the bimodule compatibility

    (id (x) m)(Delta (x) id) = Delta m = (m (x) id)(id (x) Delta),

and the Casimir property of a candidate Delta(1).  A comultiplication can be
built from any Casimir element, and counits are found by exact linear
solving, so the layer works for arbitrary user-supplied data.

Over a unital associative algebra a bimodule map Delta is fixed by
X = Delta(1): Delta(x) = X x = x X.  So the bimodule, coassociativity and
counit checks read one record per ComultData, kept by _delta_one: X, the
nonzero residuals R_j = Delta(e_j) - X e_j, and whether X passes the
Casimir identity, from O(d) column products instead of O(d^2) basis pairs.
With no residual and a Casimir X, both bimodule equalities and
coassociativity hold (see check_coassoc).  Otherwise the witness loops run
on the residuals and visit only the rows (check_bimodule) and columns
(check_coassoc) that these touch, in ascending order, so every failure is
reported at the first basis index of a scan over all of them.  When
check_algebra fails or Delta(1) is not Casimir, the record keeps X = 0
instead, whose residuals are the columns of Delta: the scans then visit
every row and column on which Delta can fail.

The Casimir identity X e_x = e_x X is evaluated in one routine,
_casimir_columns, which yields both sides column by column: check_casimir,
casimir_comult and the Delta(1) record above all read it.  The first two
stop at the first column that differs; the record reads every column of a
Casimir X, since each residual is needed.  Once check_algebra passes, e_x X
is summed for x in the generating set S of AlgebraData.generators only:
{a : aX = Xa} is a subspace that holds 1 and is closed under products,
(ab)X = a(Xb) = (Xa)b = X(ab), so S in it gives A.  A failed generator runs
the full pass.

Associativity of a monomial table is decided by Light's test (Clifford and
Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2): the g
with (xg)y = x(gy) for all x, y form a subspace that holds 1 by the unit
laws and is closed under products, (x(gh))y = ((xg)h)y = (xg)(hy) =
x(g(hy)) = x((gh)y).  Neither fact, nor S for a table whose unit laws hold,
assumes associativity, so the middle factors in S decide it.

Most structure constants of the NSY algebras are zero, so the checkers walk
only nonzero basis products, listed by factor in AlgebraData.by_right/by_left:
the associativity check of a monomial table, the products X e_x and e_x X
of _casimir_columns, and the bimodule loop, which joins the products e_i e_p
with the terms of the residuals R of left factor p.  The associativity walk
only decides; when it fails, the full triple scan runs and gives the
witness.  The unit laws are read off the same index: 1 e_k and e_k 1 for
every k come from one pass over the products with a factor in the unit's
support, and are compared in ascending k, so the first witness of each law
is the one a scan over k would give.  On a monomial table a product is the
one index table[i][j]: these walks (and the weak-Hopf rows of whopf.core)
add each term at its flat key in place, and the bimodule rows with a
product in supp R are read off the table's rows.  Any other table streams
each product's term tuple through addto.

The counit is solved from X = Delta(1) too.  For a bimodule Delta,
(eps (x) id)Delta(e_j) = ((eps (x) id)X) e_j and (id (x) eps)Delta(e_j) =
e_j (id (x) eps)X, so eps is a counit iff (eps (x) id)X = 1 = (id (x) eps)X,
and the first d rows already imply the second (proof in solve_counit): d
rows, not 2d^2.  A counit is unique when it exists, for any linear Delta:
eps'(x) = (eps (x) eps')Delta(x) = eps(x).
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PreconditionError
from .exactlin import (
    Mat,
    ONE,
    Vec,
    LinearSystem,
    Scalar,
    _scalar,
    add_entry,
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
    "counit_failures",
    "classify",
    "classify_report",
    "comult_to_json",
    "comult_from_json",
    "comult_to_json_str",
    "dump_json",
]


class AlgebraData:
    """A unital algebra by structure constants.

    ``mult`` maps a basis pair (i, j) to the term tuple ``((k, c), ...)`` of
    e_i e_j = sum c e_k; absent keys mean the product is zero.  The
    constructor copies ``mult`` whole and admits each term once (i, j and k
    in range, c through ``_scalar``, no k twice in a product); only products
    other than ``((k, c),)`` with a nonzero ``int`` c are rewritten in place,
    zero terms dropped, or deleted when they cancel to empty.  The same pass
    fills ``monomial_table`` (``{i: {j: k}}`` when every product is
    ``((k, 1),)``, else None; :meth:`generators` indexes other one-term
    products ``((k, c),)`` itself), ``by_right[x]`` (the q with e_q e_x != 0)
    and ``by_left[x]`` (the p with e_x e_p != 0).
    Associativity and unitality are not assumed; run :func:`check_algebra`.
    Fields are never reassigned: the generating set of :meth:`generators`,
    the unit-law checks and the check_algebra report derive from them.
    """

    def __init__(self, dim: int, labels: list[str], mult: dict, unit: Vec):
        if dim < 1:
            raise InputError("algebra dimension must be >= 1")
        if len(labels) != dim:
            raise InputError(f"expected {dim} labels, got {len(labels)}")
        if unit.dim != dim:
            raise InputError("unit vector dimension mismatch")
        clean: dict[tuple[int, int], tuple] = dict(mult)
        table: dict[int, dict[int, int]] | None = {}
        by_right, by_left = [[] for _ in range(dim)], [[] for _ in range(dim)]
        for key, terms in mult.items():
            i, j = key
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"structure constant index ({i}, {j}) out of range")
            k, c = terms[0] if type(terms) is tuple and len(terms) == 1 else (-1, None)
            if type(c) is not int or not c or not 0 <= k < dim:
                # anything but an admitted one-term tuple is admitted term by term
                kept: dict[int, Scalar] = {}
                for k, c in terms:
                    if not 0 <= k < dim:
                        raise InputError(f"index {k} out of range for dimension {dim}")
                    if k in kept:
                        raise InputError(f"product ({i}, {j}) lists index {k} more than once")
                    kept[k] = _scalar(c)
                terms = tuple((k, c) for k, c in kept.items() if c)
                if not terms:
                    del clean[key]
                    continue
                clean[key] = terms
                k, c = terms[0] if len(terms) == 1 else (-1, None)
            by_right[j].append(i)
            by_left[i].append(j)
            if table is not None and c == ONE:
                table.setdefault(i, {})[j] = k
            else:
                table = None
        self.dim, self.labels, self.unit, self.mult = dim, list(labels), unit, clean
        self.monomial_table, self.by_right, self.by_left = table, by_right, by_left
        self._generators: list[int] | None = None
        self._generator_set: frozenset[int] = frozenset()
        self._units: tuple[CheckResult, CheckResult] | None = None
        self._report: VerificationReport | None = None

    def basis_product(self, i: int, j: int) -> Vec:
        return Vec.adopt(self.dim, dict(self.mult.get((i, j), ())))

    def mul(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the structure constants."""
        acc: dict[int, Fraction] = {}
        mult = self.mult
        for i, a in x.terms():
            for j, b in y.terms():
                prod = mult.get((i, j))
                if prod is not None:
                    addto(acc, a * b, prod)
        return Vec.adopt(self.dim, acc)

    def generators(self) -> list[int]:
        """Indices g of a generating set, kept on the algebra.  The basis is
        walked in order, and e_k is kept when it lies outside the span W of
        1 and the right-nested words e_g1 (e_g2 (... e_gm)) in the
        generators kept so far.  1 and the words span A; no associativity
        is assumed, so check_algebra can read the generators.

        When the unit laws hold and every product is 0 or a nonzero multiple
        of one basis element, so is every word (e_g 1 = e_g), and W =
        span(1, e_R) for the set R of indices of nonzero words, closed under
        r -> k for e_g e_r = c e_k, g in by_right[r].  Then e_k lies in W iff
        k is in R, or k is in the unit's support and the rest of that support
        lies in R: a combination a 1 + sum_R b_r e_r equal to e_k with k
        outside R needs a != 0 and no unit term outside R u {k}.  The walk
        reads monomial_table or the index {i: {j: k}} of mult.  Any other
        table keeps the whole basis: no decision reads S when the unit laws
        fail, and on a multi-term table the decisions only visit more rows."""
        if self._generators is None:
            table, mult = self.monomial_table, self.mult
            if table is None and all(len(terms) == 1 for terms in mult.values()):
                table = {}
                for (i, j), ((k, _),) in mult.items():
                    table.setdefault(i, {})[j] = k
            walk = table is not None and all(c.passed for c in _unit_checks(self))
            gens = self._monomial_generators(table) if walk else list(range(self.dim))
            self._generators, self._generator_set = gens, frozenset(gens)
        return self._generators

    def _monomial_generators(self, table: dict[int, dict[int, int]]) -> list[int]:
        by_right = self.by_right
        unit = set(self.unit.support())
        words: set[int] = set()  # R
        gens: set[int] = set()
        for k in range(self.dim):
            if k in words or (k in unit and unit - {k} <= words):
                continue
            gens.add(k)
            pending = [k, *(kr for r, kr in table.get(k, {}).items() if r in words)]
            while pending:  # R += pending, closed under the e_g
                r = pending.pop()
                if r not in words:
                    words.add(r)
                    pending += [table[g][r] for g in by_right[r] if g in gens]
        return sorted(gens)


class ComultData:
    """A candidate comultiplication (and optional counit) on an algebra.

    ``delta`` is a (dim^2 x dim) matrix whose column j is Delta(e_j) under
    row-major flattening of pairs: flat = p * dim + q for e_p (x) e_q.
    Fields are never reassigned after construction: the column caches and the
    :func:`_delta_one` record read by the bimodule, coassociativity and
    counit checks derive from them (:func:`casimir_comult` records it when it
    builds Delta).
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
        self._by_left: list[list[tuple[int, int, Fraction]]] | None = None
        self._delta_one: _DeltaOne | None = None

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

    def _terms_by_left(self) -> list[list[tuple[int, int, Fraction]]]:
        """The transpose of :meth:`delta_pairs`: entry p lists the (j, q, coeff)
        of every term coeff e_p (x) e_q of Delta(e_j), in ascending j."""
        if self._by_left is None:
            self._by_left = [[] for _ in range(self.algebra.dim)]
            for j in range(self.algebra.dim):
                for p, q, v in self.delta_pairs(j):
                    self._by_left[p].append((j, q, v))
        return self._by_left


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
            "lhs": _vec_to_json(self.lhs),
            "rhs": _vec_to_json(self.rhs),
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
    """Associativity over all basis triples (module docstring) and two-sided
    unitality.  The report is kept on ``a``: later calls return the same object."""
    if a._report is None:
        a._report = _algebra_report(a)
    return a._report


def _algebra_report(a: AlgebraData) -> VerificationReport:
    d = a.dim
    units = _unit_checks(a)
    assoc_witness = None
    table = a.monomial_table
    # a monomial table is decided by the O(nnz) walk over the middles in S (all
    # when a unit law fails); on one that fails it, the d^3 scan gives the witness
    if table is None or not _monomial_associative(a, table, a.generators()):
        basis = [Vec.basis(d, k) for k in range(d)]
        zero, prods = Vec(d), {key: Vec.adopt(d, dict(terms)) for key, terms in a.mult.items()}
        for i, j, k in itertools.product(range(d), repeat=3):
            lhs = a.mul(prods.get((i, j), zero), basis[k])
            rhs = a.mul(basis[i], prods.get((j, k), zero))
            if lhs != rhs:
                assoc_witness = Witness((i, j, k), lhs, rhs, "(e_i e_j) e_k != e_i (e_j e_k)")
                break
    assoc = CheckResult("associativity", assoc_witness is None, assoc_witness)
    return VerificationReport((assoc, *units))


def _unit_checks(a: AlgebraData) -> tuple[CheckResult, CheckResult]:
    """The unit_left and unit_right checks, kept on ``a``."""
    if a._units is None:
        d, by_right, by_left, table = a.dim, a.by_right, a.by_left, a.monomial_table
        left: dict[int, dict] = {}  # k -> 1 e_k, and right: k -> e_k 1
        right: dict[int, dict] = {}
        for q, u in a.unit.terms():
            for k in by_left[q]:
                if table is None:
                    addto(left.setdefault(k, {}), u, a.mult[q, k])
                else:
                    add_entry(left.setdefault(k, {}), table[q][k], u)
            for k in by_right[q]:
                if table is None:
                    addto(right.setdefault(k, {}), u, a.mult[k, q])
                else:
                    add_entry(right.setdefault(k, {}), table[k][q], u)
        checks = []
        for name, sums, note in (("unit_left", left, "1 * e_k != e_k"),
                                 ("unit_right", right, "e_k * 1 != e_k")):
            k = next((k for k in range(d) if sums.get(k, {}) != {k: ONE}), None)
            w = None if k is None else Witness((k,), Vec(d, sums.get(k)), Vec.basis(d, k), note)
            checks.append(CheckResult(name, w is None, w))
        a._units = tuple(checks)
    return a._units


def _monomial_associative(a: AlgebraData, table: dict[int, dict[int, int]], middles) -> bool:
    """Whether (e_i e_g) e_k = e_i (e_g e_k) for all i, k and every g in
    ``middles``, on a monomial table, walking only nonzero products.

    For one g, let L_g be the set of pairs (i, k) with (e_i e_g) e_k != 0 and
    R_g the set with e_i (e_g e_k) != 0.  The walk visits L_g (i in
    by_right[g], k with e_{ig} e_k != 0) and checks that e_i (e_g e_k) is the
    same basis element.  If no pair differs, L_g lies in R_g, and |L_g| =
    |R_g| gives L_g = R_g: every other pair reads 0 = 0.  An associative g
    has L_g = R_g.  So g passes iff no pair differs and |L_g| = |R_g|, the
    sum over k in table[g] of the number of i with e_i e_{gk} != 0.
    """
    by_right = a.by_right
    try:  # a missing row or entry is a zero product where (e_i e_g) e_k != 0
        for g in middles:
            tg = table.get(g, {})
            walked = 0
            for i in by_right[g]:
                ti = table[i]
                tig = table.get(ti[g])
                if tig:
                    for k, igk in tig.items():
                        if ti[tg[k]] != igk:
                            return False
                    walked += len(tig)
            if walked != sum(len(by_right[gk]) for gk in tg.values()):
                return False
    except KeyError:
        return False
    return True


def check_coassoc(c: ComultData) -> VerificationReport:
    """Compare (Delta (x) id) Delta with (id (x) Delta) Delta exactly, column
    by column in ascending j.

    Over a unital associative algebra the map C(x) = X x of a Casimir
    element X = sum_i a_i (x) b_i is coassociative: C(x) = X x and the
    Casimir property y X = X y turn both (C (x) id)C(x) and (id (x) C)C(x)
    into (sum_{i,j} a_i (x) b_i a_j (x) b_j) x.  So every bimodule Delta over
    a unital associative algebra is coassociative.

    When X = Delta(1) is Casimir there (:func:`_delta_one`), write Delta =
    C + R with the residuals R_j = Delta(e_j) - X e_j.  Take a column j with
    R_j = 0, so Delta(e_j) = C(e_j), and no leg of its terms v e_p (x) e_q in
    supp R = {k : R_k != 0}, so Delta(e_p) = C(e_p) and Delta(e_q) = C(e_q).
    Then (Delta (x) id)Delta(e_j) = sum v C(e_p) (x) e_q = (C (x) id)C(e_j)
    and (id (x) Delta)Delta(e_j) = (id (x) C)C(e_j), which are equal.  So
    only the columns with R_j != 0 or a leg in supp R are summed, none when
    Delta is the bimodule map of X; without a Casimir X every column is.
    """
    d, rec = c.algebra.dim, _delta_one(c)
    columns = range(d)
    if rec.casimir:
        supp = rec.residuals.keys()
        legs = {t for k in supp for y in range(d) for t in (k * d + y, y * d + k)}
        columns = (
            j for j in columns
            if j in supp or not legs.isdisjoint(t for t, _ in c.delta.col_terms(j))
        ) if supp else ()
    # Not delta_pairs: its cache of all d columns doubles this loop when few are visited.
    for j in columns:
        lhs, rhs = _coassoc_sides(c, [(t // d, t % d, v) for t, v in c.delta.col_terms(j)])
        if lhs != rhs:
            note = "(Delta(x)id)Delta != (id(x)Delta)Delta"
            witness = Witness((j,), Vec.adopt(d**3, lhs), Vec.adopt(d**3, rhs), note)
            return VerificationReport((CheckResult("coassociativity", False, witness),))
    return VerificationReport((CheckResult("coassociativity", True),))


def _coassoc_sides(c: ComultData, pairs) -> tuple[dict, dict]:
    """(Delta (x) id)T and (id (x) Delta)T over d^3, T with the terms ``pairs``."""
    d, delta = c.algebra.dim, c.delta
    lhs: dict[int, Fraction] = {}
    rhs: dict[int, Fraction] = {}
    for p, q, v in pairs:
        addto(lhs, v, delta.col_terms(p), q, d)  # (x*d + y)*d + q
        addto(rhs, v, delta.col_terms(q), p * d * d)  # (p*d + x)*d + y
    return lhs, rhs


def check_bimodule(c: ComultData) -> VerificationReport:
    """Both bimodule equalities:

    right: (id (x) m)(Delta (x) id)(x (x) y) = Delta(xy)
    left:  (m (x) id)(id (x) Delta)(x (x) y) = Delta(xy)

    They are compared on the residuals R_j = Delta(e_j) - X e_j of the
    :func:`_delta_one` record, whose X is Delta(1) when that is Casimir over
    a unital associative algebra and 0 otherwise.  Over an associative
    algebra (X e_i) e_j = X (e_i e_j) and e_i (e_j X) = (e_i e_j) X, and
    e_j X = X e_j for a Casimir X, so

        Delta(e_i) e_j - Delta(e_i e_j) = R_i e_j - R(e_i e_j),
        e_i Delta(e_j) - Delta(e_i e_j) = e_i R_j - R(e_i e_j);

    with X = 0, R = Delta and both hold on any algebra.  So a row i can fail
    only when R_i != 0, when e_i e_p != 0 for a left factor p of some R_j,
    or when some e_i e_j has a term in supp R = {k : R_k != 0}.  Only those
    rows are visited, in ascending i: none when Delta is the bimodule map of
    X, and with X = 0 every row that a scan of Delta can fail on.

    Each row is summed for all j at once from the nonzero products: R_i e_j
    pairs R_i with the e_q e_j != 0, e_i R_j the e_i e_p != 0 with the terms
    of R of left factor p, and R(e_i e_j) needs e_i e_j != 0.
    Every other pair reads 0 = 0, and j ascends, so the first witnesses are
    those of a scan over all pairs (i, j).  The full sides of Delta are
    summed at the two witness pairs only.
    """
    a, rec = c.algebra, _delta_one(c)
    d = a.dim
    mult, by_left = a.mult, a.by_left
    residuals = rec.residuals
    by_p: dict[int, list] = {}  # p -> (j, q, v) of the terms v e_p (x) e_q of R_j
    for j, res in residuals.items():
        for t, v in res.items():
            p, q = divmod(t, d)
            by_p.setdefault(p, []).append((j, q, v))

    found: list[tuple[int, int] | None] = [None, None]  # right, left
    for i in _bimodule_rows(a, residuals, by_p):
        right, left, target = {}, {}, {}  # j -> R_i e_j, e_i R_j and R(e_i e_j)
        if found[0] is None:
            for t, v in residuals.get(i, {}).items():
                p, q = divmod(t, d)
                for j in by_left[q]:
                    addto(right.setdefault(j, {}), v, mult[q, j], p * d)
        if found[1] is None:
            for p in by_left[i]:
                if p in by_p:
                    prod = mult[i, p]
                    for j, q, v in by_p[p]:
                        addto(left.setdefault(j, {}), v, prod, q, d)
        for j in by_left[i]:
            for k, u in mult[i, j]:
                if k in residuals:
                    addto(target.setdefault(j, {}), u, residuals[k].items())
        for j in sorted(right.keys() | left.keys() | target.keys()):
            for side, sums in enumerate((right, left)):
                if found[side] is None and sums.get(j, {}) != target.get(j, {}):
                    found[side] = (i, j)
        if None not in found:
            break
    checks = []
    for side, (name, pair) in enumerate(zip(("bimodule_right", "bimodule_left"), found)):
        witness = None if pair is None else _bimodule_witness(c, side, *pair)
        checks.append(CheckResult(name, witness is None, witness))
    return VerificationReport(tuple(checks))


def _bimodule_rows(a: AlgebraData, residuals: dict, left_factors) -> list[int]:
    """The rows i where check_bimodule can fail, ascending: R_i != 0,
    e_i e_p != 0 for p in ``left_factors`` (the left factors of R), or some
    e_i e_j with a term in supp R."""
    by_right, table = a.by_right, a.monomial_table
    rows = {*residuals, *(i for p in left_factors for i in by_right[p])}
    if residuals and table is not None:
        rows.update(i for i, row in table.items() if not residuals.keys().isdisjoint(row.values()))
    elif residuals:
        rows.update(i for (i, _), prod in a.mult.items() for k, _ in prod if k in residuals)
    return sorted(rows)


def _bimodule_witness(c: ComultData, side: int, i: int, j: int) -> Witness:
    """Delta(e_i) e_j (side 0, right) or e_i Delta(e_j) (side 1, left)
    against Delta(e_i e_j)."""
    a = c.algebra
    d, mult = a.dim, a.mult
    lhs: dict[int, Fraction] = {}
    for t, v in c.delta.col_terms(j if side else i):
        p, q = divmod(t, d)
        if side == 0 and (q, j) in mult:
            addto(lhs, v, mult[q, j], p * d)
        elif side == 1 and (i, p) in mult:
            addto(lhs, v, mult[i, p], q, d)
    note = ("(id(x)m)(Delta(x)id) != Delta m", "(m(x)id)(id(x)Delta) != Delta m")[side]
    return Witness((i, j), Vec.adopt(d * d, lhs), c.delta_of(a.basis_product(i, j)), note)


def check_casimir_of_delta(c: ComultData) -> VerificationReport:
    """check_casimir on X = Delta(1).  No second pass is needed when
    :func:`_delta_one` found X e_s = e_s X on the rows of :func:`_casimir_rows`:
    those decide the identity (module docstring)."""
    if _delta_one(c).casimir:
        return VerificationReport((CheckResult("casimir", True),))
    return check_casimir(CasimirElement(c.algebra, c.delta_of(c.algebra.unit)))


def check_casimir(cas: CasimirElement) -> VerificationReport:
    """Verify sum_i a_i (x) b_i x = sum_i x a_i (x) b_i for every basis x,
    on the x of :func:`_casimir_rows`; when one fails, the pass over every x
    gives the witness."""
    a, d, witness = cas.algebra, cas.algebra.dim, None
    if any(lhs != rhs for _, lhs, rhs in _casimir_columns(a, cas.element, _casimir_rows(a))):
        x, lhs, rhs = next(c for c in _casimir_columns(a, cas.element, range(d)) if c[1] != c[2])
        note = "a_i (x) b_i x != x a_i (x) b_i"
        witness = Witness((x,), Vec.adopt(d * d, lhs), Vec.adopt(d * d, rhs), note)
    return VerificationReport((CheckResult("casimir", witness is None, witness),))


def _casimir_rows(a: AlgebraData):
    """The x whose e_x X decide the Casimir identity: the generators once
    check_algebra passes (module docstring), else every x."""
    if not check_algebra(a).passed:
        return range(a.dim)
    a.generators()
    return a._generator_set


def _casimir_columns(a: AlgebraData, element: Vec, right):
    """Yield ``(x, X e_x, e_x X)`` for x = 0, 1, ..., d-1, both sides as
    dicts over the tensor square, for X = ``element``; e_x X is summed for
    the x in ``right`` only, and the others, decided by those, repeat X e_x.
    The terms v e_p (x) e_q of X are grouped once by the factor that
    multiplies, and each side is summed from the products e_q e_x and e_x e_p
    listed in by_right and by_left only.  The one evaluator of the Casimir identity
    X e_x = e_x X."""
    d = a.dim
    by_q: dict[int, list] = {}  # q -> the (p*d, v), and by_p: p -> the (q, v)
    by_p: dict[int, list] = {}
    for t, v in element.terms():
        p, q = divmod(t, d)
        by_q.setdefault(q, []).append((t - q, v))
        by_p.setdefault(p, []).append((q, v))
    mult, by_right, by_left, table = a.mult, a.by_right, a.by_left, a.monomial_table
    for x in range(d):
        lhs: dict[int, Fraction] = {}
        for q in by_right[x]:
            if q in by_q:
                if table is not None:
                    k = table[q][x]
                    for pd, v in by_q[q]:
                        t = pd + k
                        if t in lhs:
                            v += lhs[t]
                            if not v:
                                del lhs[t]
                                continue
                        lhs[t] = v
                    continue
                prod = mult[q, x]
                for pd, v in by_q[q]:
                    addto(lhs, v, prod, pd)
        rhs: dict[int, Fraction] = {} if x in right else lhs
        for p in by_left[x] if x in right else ():
            if p in by_p:
                if table is not None:
                    kd = table[x][p] * d
                    for q, v in by_p[p]:
                        t = kd + q
                        if t in rhs:
                            v += rhs[t]
                            if not v:
                                del rhs[t]
                                continue
                        rhs[t] = v
                    continue
                prod = mult[x, p]
                for q, v in by_p[p]:
                    addto(rhs, v, prod, q, d)
        yield x, lhs, rhs


@dataclass(frozen=True)
class _DeltaOne:
    """What Delta(1) decides about a ComultData (:func:`_delta_one`):
    ``casimir`` is whether check_algebra passes and Delta(1) e_s =
    e_s Delta(1) holds on :func:`_casimir_rows`, so for every s; ``x`` is
    X = Delta(1) when it does and 0 otherwise; and ``residuals`` maps each j
    with R_j = Delta(e_j) - X e_j != 0 to R_j, a dict over the tensor
    square: the nonzero columns of Delta when X = 0."""

    x: Vec
    residuals: dict[int, dict[int, Scalar]]
    casimir: bool


def _delta_one(c: ComultData) -> _DeltaOne:
    """The Delta(1) record of ``c``, kept on it: once check_algebra passes,
    one pass of :func:`_casimir_columns` for X = Delta(1) over every column.
    When check_algebra fails or X e_s != e_s X for some s, X = 0 instead, so
    that the residuals are the columns of Delta."""
    if c._delta_one is None:
        a = c.algebra
        x, residuals, casimir = c.delta_of(a.unit), {}, check_algebra(a).passed
        for j, lhs, rhs in _casimir_columns(a, x, _casimir_rows(a)) if casimir else ():
            if rhs is not lhs and lhs != rhs:
                casimir = False
                break
            _add_residual(residuals, c, j, lhs)
        if not casimir:
            x, residuals = Vec(a.dim * a.dim), {}
            for j in range(a.dim):
                _add_residual(residuals, c, j, {})
        c._delta_one = _DeltaOne(x, residuals, casimir)
    return c._delta_one


def _add_residual(residuals: dict, c: ComultData, j: int, side: dict) -> None:
    """residuals[j] = Delta(e_j) - ``side`` when that is nonzero."""
    terms = c.delta.col_terms(j)
    if terms != side.items():
        residuals[j] = addto(dict(terms), -1, side.items())


def casimir_comult(cas: CasimirElement) -> ComultData:
    """The Frobenius structure Delta(x) = X x of a Casimir element
    X = sum_i a_i (x) b_i, with its counit from the d rows of
    :func:`solve_counit` (None when there is none or check_algebra fails).

    The columns X e_x are decided against e_x X in one pass, on the x of
    :func:`_casimir_rows`; PreconditionError carries the witness of
    :func:`check_casimir`.  When check_algebra passes, the result records
    its :func:`_delta_one`: X, no residual, and the Casimir identity, since
    Delta(1) = X 1 = X by the unit law, Delta(e_j) = X e_j by construction,
    and X e_j = e_j X was just decided.
    """
    a = cas.algebra
    d = a.dim
    cols = []
    for _, lhs, rhs in _casimir_columns(a, cas.element, _casimir_rows(a)):  # X e_x = Delta(e_x)
        if lhs != rhs:
            witness = check_casimir(cas).checks[0].witness
            raise PreconditionError("element fails the Casimir identity", witness)
        cols.append(Vec.adopt(d * d, lhs))
    decided = check_algebra(a).passed
    counit = _counit_rows(a, cas.element) if decided else None
    c = ComultData(a, Mat.from_columns(d * d, cols), counit)
    if decided:
        c._delta_one = _DeltaOne(cas.element, {}, True)
    return c


def counit_failures(c: ComultData, eps: Vec):
    """Yield ``(j, left, right)`` for each basis element e_j where eps fails a
    counit identity, in ascending j: ``left = (eps (x) id) Delta(e_j)`` and
    ``right = (id (x) eps) Delta(e_j)``, at least one of them != e_j."""
    d = c.algebra.dim
    for j in range(d):
        left, right = {}, {}  # (eps (x) id)Delta(e_j) and (id (x) eps)Delta(e_j)
        for p, q, v in c.delta_pairs(j):
            if ep := eps.get(p):
                add_entry(left, q, _scalar(v * ep))
            if eq := eps.get(q):
                add_entry(right, p, _scalar(v * eq))
        if left != {j: ONE} or right != {j: ONE}:
            yield j, Vec.adopt(d, left), Vec.adopt(d, right)


def solve_counit(c: ComultData) -> Vec | None:
    """The counit of a bimodule Delta, or None when it has none.

    For X = Delta(1) = sum x_i (x) y_i, (eps (x) id)Delta(e_j) = w e_j with
    w = (eps (x) id)X, and w e_j = e_j for all j iff w = w 1 = 1.  Likewise
    (id (x) eps)Delta(e_j) = e_j z with z = (id (x) eps)X.  So eps is a
    counit iff w = 1 = z, and the d rows w = 1 alone already force z = 1:
    (eps (x) id)(a X) = sum eps(a x_i) y_i equals (eps (x) id)(X a) = w a = a,
    so eps(a b) = 0 for all b only when a = 0, and the form (a, b) -> eps(a b)
    is non-degenerate (A is finite-dimensional).  Then eps(a z) =
    eps(sum eps(a x_i) y_i) = eps(a) for every a, hence z = 1.  A counit is
    unique when it exists, for any linear Delta: eps'(x) = (eps (x) eps')
    Delta(x) = eps(x), so a consistent system has rank d.  A row that
    contradicts the rows before it decides "no counit": adding the later
    rows cannot make the system consistent again.  Raises
    PreconditionError unless check_algebra passes and Delta is the bimodule
    map of X: the :func:`_delta_one` record is Casimir with no residual.
    """
    rec = _delta_one(c)
    if not rec.casimir or rec.residuals:
        raise PreconditionError("Delta is not a bimodule map over a unital associative algebra")
    return _counit_rows(c.algebra, rec.x)


def _counit_rows(a: AlgebraData, element: Vec) -> Vec | None:
    """The solution of (eps (x) id)X = 1 for X = ``element``, or None: d rows,
    row k with the coefficient of e_p (x) e_k in X at column p; see
    :func:`solve_counit`.  The first row that makes the system inconsistent
    certifies that there is no solution, so the rows after it are not fed."""
    d = a.dim
    rows: dict[int, dict] = {}
    for t, v in element.terms():
        p, k = divmod(t, d)
        rows.setdefault(k, {})[p] = v
    system = LinearSystem(d)
    for k in range(d):
        coeffs, rhs = rows.get(k, {}), a.unit.get(k)
        if (coeffs or rhs) and not system.add(coeffs, rhs):
            return None
    return system.solution()


# bench/tracer.py times the solve under this name
solve_counit_full = solve_counit


@dataclass(frozen=True)
class ClassifyOutcome:
    classification: Classification
    report: VerificationReport
    counit: Vec | None


def classify_report(c: ComultData) -> ClassifyOutcome:
    """Full classification with the axiom report and the counit.

    The report carries only structural axiom checks; absence of a counit is
    conveyed through the classification, not as a failed check.
    """
    report = (
        check_algebra(c.algebra)
        .merged(check_coassoc(c))
        .merged(check_bimodule(c))
    )
    cls = classify_checks(report, None)
    if cls is Classification.NOT_FROBENIUS_STRUCTURE:
        return ClassifyOutcome(cls, report, None)
    eps = solve_counit(c)
    return ClassifyOutcome(classify_checks(report, eps), report, eps)


def classify_checks(report: VerificationReport, counit: Vec | None) -> Classification:
    """NotFrobeniusStructure when a check in ``report`` failed; otherwise
    Frobenius when there is a counit and NonCounitalOnly when there is none.
    Callers pass the structural checks only: the algebra checks (when not
    already decided), coassociativity and the two bimodule identities.

    When these pass, Delta(x) = Delta(1) x = x Delta(1) (take y = 1 in
    either bimodule identity), which is what :func:`solve_counit` needs."""
    if not report.passed:
        return Classification.NOT_FROBENIUS_STRUCTURE
    if counit is None:
        return Classification.NON_COUNITAL_ONLY
    return Classification.FROBENIUS


def classify(c: ComultData) -> Classification:
    return classify_report(c).classification


# JSON exchange format:
# {"dim": n, "labels": [...], "mult": [[i, j, k, "p/q"], ...],
#  "unit": [[k, "p/q"], ...], "delta": [[i, t, "p/q"], ...],
#  "counit": [[k, "p/q"], ...]}
# where t is a row-major flattened pair index and counit is optional.
# Matrix entries are [column, row, "p/q"].  A "mult" or matrix field in the
# shape the encoders write (see _dumped: int indices in range, nonzero str
# literals, no key listed twice, and for "mult" no pair (i, j) listed twice)
# is tested whole and then built in bulk: a product as the one-term tuple
# ((k, c),), a matrix column by setdefault, wrapped by Mat.adopt.  Any other
# field, and every vector field, is parsed whole by _entries_from_json,
# which raises InputError at the first malformed entry, and then goes to the
# Vec and Mat constructors (for "mult", one Vec per pair in order of first
# listing), which raise at the first range fault, drop zero values and add
# up repeated entries.  scalar_from_str parses each distinct string literal
# once per decode call.  The encoders build each field in one pass in sorted
# order (matrices by column, then row), converting each distinct scalar once
# per call through _ScalarTexts.

_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
# The C encoder runs only without indent; NUL as its item separator marks
# every separator, since encode_basestring_ascii escapes NUL in strings.
_NUL = "\0"
_encode_flat = json.JSONEncoder(separators=(_NUL, ": ")).encode


def dump_json(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, the one
    JSON writer of frobkit, with lists of scalars and lists of non-empty
    rows of scalars encoded by the C encoder.

    The text is re-indented with ``str.replace``.  That is exact: a raw NUL
    is a separator, and ``]`` NUL ``[`` a row boundary, because a scalar's
    text never ends in ``]``.  Other shapes (tuples, empty containers, dicts
    with a non-``str`` key) are written by ``json.dumps`` and shifted to
    their indent; every raw newline in its output is structural.
    """

    def node(x, nl: str) -> str:
        # x as indented JSON whose lines after the first start with nl
        inner = nl + "  "
        t = type(x)
        if t in _SCALAR_TYPES:
            return _encode_flat(x)
        if t is dict and x and all(type(k) is str for k in x):
            items = (f"{_encode_flat(k)}: {node(v, inner)}" for k, v in sorted(x.items()))
            return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
        if t is list and x:
            if _SCALAR_TYPES.issuperset(map(type, x)):
                return f"[{inner}{_encode_flat(x)[1:-1].replace(_NUL, ',' + inner)}{nl}]"
            cell = inner + "  "
            if (
                set(map(type, x)) == {list}
                and all(x)
                and _SCALAR_TYPES.issuperset(map(type, itertools.chain.from_iterable(x)))
            ):
                rows = _encode_flat(x)[2:-2].replace(f"]{_NUL}[", f"{inner}],{inner}[{cell}")
                return f"[{inner}[{cell}{rows.replace(_NUL, ',' + cell)}{inner}]{nl}]"
            return f"[{inner}{(',' + inner).join(node(v, inner) for v in x)}{nl}]"
        return json.dumps(x, indent=2, sort_keys=True).replace("\n", nl)

    return node(payload, "\n") + "\n"


class _ScalarTexts(dict):
    """scalar -> scalar_to_str(scalar), converting each distinct scalar once.
    Equal scalars have equal texts, so keying by value is exact."""

    def __missing__(self, v: Scalar) -> str:
        text = self[v] = scalar_to_str(v)
        return text


def _field(payload, name: str):
    try:
        return payload[name]
    except (KeyError, TypeError):
        raise InputError(f"missing or malformed field: {name!r}") from None


def _entries_from_json(raw, arity: int, field: str, literals: dict):
    """Yield each entry [i_1, ..., i_{arity-1}, "p/q"] of a field as
    (entry, scalar), raising InputError at the first malformed one.

    ``literals`` maps each string literal met in one decode call to its
    value.  Only ``str`` keys go in: ``True``, ``1`` and ``1.0`` are equal
    dict keys, so every other value is admitted by scalar_from_str itself.
    """
    if not isinstance(raw, list):
        raise InputError(f"field {field!r} must be a list")
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != arity:
            raise InputError(f"bad {field} entry {entry!r}: expected {arity} items")
        for i in entry[:-1]:
            if type(i) is not int:
                raise InputError(f"bad {field} entry {entry!r}: indices must be integers")
        v = entry[-1]
        if type(v) is not str:
            yield entry, scalar_from_str(v)
        elif v in literals:
            yield entry, literals[v]
        else:
            yield entry, literals.setdefault(v, scalar_from_str(v))


def _vec_to_json(v: Vec) -> list:
    return [[k, scalar_to_str(x)] for k, x in v.items()]


def _dumped(raw, arity: int, literals: dict) -> bool:
    """Whether ``raw`` is a list of lists of ``arity`` items, each ending in a
    str literal that parses to a nonzero scalar, as the encoders write it.
    Each new literal is parsed once into ``literals``; a bad one sends the
    field to _entries_from_json, which raises for it in file order.  Callers
    test the indices and count the keys after the build."""
    if type(raw) is not list or not all(
        type(e) is list and len(e) == arity and type(e[-1]) is str for e in raw
    ):
        return False
    texts = {e[-1] for e in raw}
    try:
        for text in texts.difference(literals):
            literals[text] = scalar_from_str(text)
    except InputError:
        return False
    return all(literals[text] for text in texts)


def _vec_from_json(raw, dim: int, field: str, literals: dict) -> Vec:
    return Vec(dim, [(k, v) for (k, _), v in _entries_from_json(raw, 2, field, literals)])


def _mat_to_json(m: Mat) -> list:
    texts = _ScalarTexts()
    return [[c, r, texts[v]] for c in range(m.ncols) for r, v in sorted(m.col_terms(c))]


def _mat_from_json(raw, nrows: int, ncols: int, field: str, literals: dict) -> Mat:
    if _dumped(raw, 3, literals) and all(
        type(c) is int and type(r) is int and 0 <= c < ncols and 0 <= r < nrows
        for c, r, _ in raw
    ):
        cols: dict[int, dict[int, Scalar]] = {}
        for c, r, v in raw:
            cols.setdefault(c, {})[r] = literals[v]
        if sum(map(len, cols.values())) == len(raw):  # no entry listed twice
            return Mat.adopt(nrows, ncols, cols)
    entries = _entries_from_json(raw, 3, field, literals)
    return Mat(nrows, ncols, [(r, c, v) for (c, r, _), v in entries])


def _algebra_to_json(a: AlgebraData) -> dict:
    """The "dim", "labels", "mult" and "unit" fields."""
    texts = _ScalarTexts()
    return {
        "dim": a.dim,
        "labels": list(a.labels),
        "mult": [
            [i, j, k, texts[v]]
            for (i, j), prod in sorted(a.mult.items())
            for k, v in sorted(prod)
        ],
        "unit": _vec_to_json(a.unit),
    }


def _algebra_from_json(payload, literals: dict) -> AlgebraData:
    dim, labels = _field(payload, "dim"), _field(payload, "labels")
    if type(dim) is not int or not isinstance(labels, list):
        raise InputError("fields 'dim' and 'labels' must be an integer and a list")
    raw = _field(payload, "mult")
    products = None
    if _dumped(raw, 4, literals) and all(
        type(i) is int and type(j) is int and type(k) is int
        and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim
        for i, j, k, _ in raw
    ):
        products = {(i, j): ((k, literals[v]),) for i, j, k, v in raw}
    if products is None or len(products) < len(raw):  # a pair listed twice
        mult: dict[tuple[int, int], list[tuple[int, Scalar]]] = {}
        for (i, j, k, _), v in _entries_from_json(raw, 4, "mult", literals):
            mult.setdefault((i, j), []).append((k, v))
        # product vectors are admitted pair by pair, in order of first listing
        products = {key: tuple(Vec(dim, e).terms()) for key, e in mult.items()}
    return AlgebraData(
        dim,
        [str(x) for x in labels],
        products,
        _vec_from_json(_field(payload, "unit"), dim, "unit", literals),
    )


def comult_to_json(c: ComultData) -> dict:
    payload = _algebra_to_json(c.algebra)
    payload["delta"] = _mat_to_json(c.delta)
    if c.counit is not None:
        payload["counit"] = _vec_to_json(c.counit)
    return payload


def comult_to_json_str(c: ComultData) -> str:
    return dump_json(comult_to_json(c))


def comult_from_json(payload: dict) -> ComultData:
    literals: dict = {}
    algebra = _algebra_from_json(payload, literals)
    d = algebra.dim
    delta = _mat_from_json(_field(payload, "delta"), d * d, d, "delta", literals)
    counit = None
    if payload.get("counit") is not None:
        counit = _vec_from_json(payload["counit"], d, "counit", literals)
    return ComultData(algebra, delta, counit)
