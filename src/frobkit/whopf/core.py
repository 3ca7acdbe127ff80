"""Weak Hopf algebra engine.

A weak Hopf algebra is an algebra that is also a coalgebra, with the weak
bialgebra compatibilities

    Delta(ab) = Delta(a) Delta(b),
    eps(abc) = eps(a b_1) eps(b_2 c) = eps(a b_2) eps(b_1 c),
    Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1),

and an antipode S with S(h_1) h_2 = eps_s(h), h_1 S(h_2) = eps_t(h) and
S(h_1) h_2 S(h_3) = S(h).  Nothing is assumed about supplied data; run
:func:`check_weak_hopf`.

A left integral L satisfies h L = eps_t(h) L; it is non-degenerate when
Psi_L : phi -> L_1 phi(L_2) is bijective.  From any left integral the map
Delta(h) = L_1 (x) S(L_2) h is a non-counital Frobenius comultiplication,
counital exactly when Psi_L is invertible.

The identities that multiply Delta terms are decided in integers whenever
the data is integral apart from Delta.  Let n be the least common multiple
of the denominators of ``delta_wk`` (1 for integer data); n Delta has
integer terms, and both sides of an identity are scaled to one power of n:
n for the counit identities (eps (x) id)Delta(h) = h = (id (x) eps)Delta(h),
for eps(abc) and for S(h_1) h_2 = eps_s(h), h_1 S(h_2) = eps_t(h); n^2
for (n Delta)(a) (n Delta)(b) = n (n Delta)(ab), for coassociativity, for
Delta^2(1) and for S(h_1) h_2 S(h_3) = S(h).  As n > 0, the scaled sides
are equal exactly when the unscaled ones are, so every pass/fail and every
first witness index is unchanged; a witness's sides are divided back by n^k.

Over an associative algebra, Delta(ab) = Delta(a) Delta(b) is decided on
a in {1} u S, S the generating set of AlgebraData.generators, and every
basis b.  M = {x : Delta(xb) = Delta(x) Delta(b) for all b} is a subspace,
and a, a' in M give aa' in M: Delta(aa'b) = Delta(a) Delta(a'b) =
Delta(a) Delta(a') Delta(b), and b = 1 gives Delta(aa') = Delta(a) Delta(a').
So 1 in M and S in M give M = A (the a = 1 row is not automatic).  When the
algebra check or one of those rows fails, the scan over all basis pairs
gives the witness.

Coassociativity is then decided on the same rows.  Delta (x) id and
id (x) Delta are multiplicative with Delta, so F = (Delta (x) id)Delta and
G = (id (x) Delta)Delta are too, and C = {x : F(x) = G(x)} is a subspace
closed under products, F(xy) = F(x)F(y) = G(x)G(y) = G(xy): 1 and S in C
give C = A.  Otherwise check_coassoc scans every column for the witness.

eps(abc) = eps(a b_1) eps(b_2 c) and its mirror are decided on d r^2 cells.
For each b, T_b[a, c] = n eps((e_a e_b) e_c) - n eps(e_a b_1) eps(b_2 e_c) is
a sum of rows of E[m, c] = eps(e_m e_c), T_b = L_b E, so a row of T_b is 0 iff
it is 0 on columns C spanning E's column space.  Only where (e_a e_b) e_c =
e_a (e_b e_c) is T_b also a sum of columns, T_b = E K_b, each row the same
combination of the rows R as in E, for R spanning E's row space; so T_b = 0
iff T_b[R, C] = 0, R and C the rows and columns raising rank E = r in order.
One elimination of E's rows gives both: C is its pivot set, since row
operations keep the linear relations among columns and a column of the
reduced echelon form (leftmost pivots) is new exactly when it holds a pivot.
If check_algebra fails or a cell differs, the (b, a) scan gives the witnesses.

Grouplike data (:func:`grouplike`: Delta(e_j) = e_j (x) e_j, eps(e_j) = 1,
n = 1, a monomial table passing check_algebra; groupoid and group algebras)
passes the coalgebra axioms by shape: Delta(e_i) Delta(e_j) and
Delta(e_i e_j) are both e_k (x) e_k or both 0, each side of coassociativity
is e_j (x) e_j (x) e_j, and the counit identities read eps(e_j) e_j = e_j.
A basis product is 0 or one e_k, so both forms of eps(abc) read [abc != 0] =
[ab != 0][bc != 0], both 0 where ab = 0.  If e_a e_b = e_k, e_k e_c =
e_a (e_b e_c) != 0 needs e_b e_c != 0, so by_left[k] lies in by_left[b] and
the identity fails exactly at the c of by_left[b] outside it: it holds iff
len(by_left[k]) = len(by_left[b]) for every product, else the (b, a) scan
gives the witnesses.  With eps 1 on any monomial table, E[m, c] =
[e_m e_c != 0]: every reader of E takes its rows and columns from by_left
and by_right.

Once check_weak_hopf passes, the left integrals are solved from the rows of
h L = eps_t(h) L for h = e_s b only, s in S and b in a basis of A_t, using
eps_t(x eps_t(y)) = eps_t(xy) (Boehm-Nill-Szlachanyi, Weak Hopf algebras I,
J. Algebra 221 (1999), section 2).  Let T = {h : h L = eps_t(h) L for every L
solving those rows}, a subspace with 1 in T.  If h in T and s in S, put
z = eps_t(h) in A_t; s z lies in the span of the rows' elements s b, so
s h L = s z L = eps_t(s z) L = eps_t(s eps_t(h)) L = eps_t(s h) L.  So T is
closed under left multiplication by S, and the words in S span A: T = A.
The right integrals are the mirror, L h = L eps_s(h) for h = b e_s, b in a
basis of A_s, by eps_s(eps_s(x) y) = eps_s(xy).  Equal solution spaces give
the same reduced echelon form, so the kernel basis is the all-basis one.
Data that fails the check keeps the rows of every basis h.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ..errors import InputError, InternalConsistencyError, PreconditionError
from ..exactlin import (
    LinearSystem,
    Mat,
    ONE,
    Vec,
    ZERO,
    add_entry,
    addto,
    is_invertible,
    rank_raising,
)
from ..finalg import (
    AlgebraData,
    CasimirElement,
    CheckResult,
    ComultData,
    VerificationReport,
    Witness,
    _algebra_from_json,
    _algebra_to_json,
    _coassoc_sides,
    _field,
    _mat_from_json,
    _mat_to_json,
    _scalar_witness,
    _vec_from_json,
    _vec_to_json,
    casimir_comult,
    check_algebra,
    check_coassoc,
)

__all__ = [
    "DEFAULT_INTEGRAL_SEED",
    "WeakHopfData",
    "check_weak_hopf",
    "epsilon_s",
    "epsilon_t",
    "find_nondegenerate_integral",
    "frobenius_from_integral",
    "integral_space",
    "is_hopf",
    "iterated_comult",
    "psi_map",
    "target_subalgebra_basis",
    "weak_hopf_from_json",
    "weak_hopf_to_json",
]

# Seed of the draws in the non-degenerate-integral search, after the basis
# integrals and their sum; echoed in CLI reports so runs are reproducible.
DEFAULT_INTEGRAL_SEED = 271828


class WeakHopfData:
    """Algebra + weak comultiplication, weak counit, and antipode.

    ``delta_wk`` is (dim^2 x dim) with row-major pair flattening,
    ``epsilon_wk`` is a functional stored over the same basis, and
    ``antipode`` is (dim x dim) with column j the image S(e_j).

    ``denom`` is n, the least common multiple of the denominators of
    ``delta_wk``; ``scaled.delta_pairs(j)`` gives the (p, q, coeff) terms of
    n Delta(e_j), integers for integral data, and ``scaled_unit_pairs``
    those of n Delta(1).  Fields must not be reassigned after construction:
    the scaled terms, :func:`_counital_terms` and the :func:`check_weak_hopf`
    report derive from them.
    """

    def __init__(self, algebra: AlgebraData, delta_wk: Mat, epsilon_wk: Vec, antipode: Mat):
        d = algebra.dim
        if (delta_wk.nrows, delta_wk.ncols) != (d * d, d):
            raise InputError("delta_wk must be dim^2 x dim")
        if epsilon_wk.dim != d:
            raise InputError("epsilon_wk dimension mismatch")
        if (antipode.nrows, antipode.ncols) != (d, d):
            raise InputError("antipode must be dim x dim")
        self.algebra = algebra
        self.delta_wk = delta_wk
        self.epsilon_wk = epsilon_wk
        self.antipode = antipode
        self.coalgebra = ComultData(algebra, delta_wk)
        denominators = (v.denominator for j in range(d) for _, _, v in self.coalgebra.delta_pairs(j))
        self.denom = n = math.lcm(*denominators)
        self.scaled = self.coalgebra if n == 1 else ComultData(algebra, delta_wk.scale(n))
        self.scaled_unit_pairs = [
            (t // d, t % d, v) for t, v in self.scaled.delta_of(algebra.unit).terms()
        ]
        self._counital: tuple[list[dict], ...] | None = None
        self._report: VerificationReport | None = None

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def unit(self) -> Vec:
        return self.algebra.unit


def epsilon_s(h: WeakHopfData, x: Vec) -> Vec:
    """Source counital map eps_s(x) = 1_1 eps(x 1_2)."""
    return _counital_map(h, x, 2)


def epsilon_t(h: WeakHopfData, x: Vec) -> Vec:
    """Target counital map eps_t(x) = eps(1_1 x) 1_2."""
    return _counital_map(h, x, 3)


def _counital_map(h: WeakHopfData, x: Vec, which: int) -> Vec:
    acc: dict[int, Fraction] = {}
    for j, c in x.terms():
        addto(acc, c, _counital_terms(h)[which][j].items())
    return Vec.adopt(h.dim, acc).scale(Fraction(1, h.denom))


def target_subalgebra_basis(h: WeakHopfData) -> list[Vec]:
    return [Vec.adopt(h.dim, c).scale(Fraction(1, h.denom)) for c in _counital_basis(h, 3)]


def _counital_basis(h: WeakHopfData, which: int) -> list[dict]:
    """The columns n eps_s(e_j) (``which`` 2) or n eps_t(e_j) (3) of
    :func:`_counital_terms` that raise the rank, scanned in ascending j:
    n times a basis of A_s (A_t)."""
    eps = _counital_terms(h)[which]
    return [eps[j] for j in rank_raising(h.dim, eps)[0]]


def iterated_comult(h: WeakHopfData, x: Vec, factors: int) -> dict[tuple[int, ...], Fraction]:
    """Sweedler components of Delta^{factors-1}(x) as a sparse dict over
    basis tuples, expanding the first tensor slot each step
    ((Delta (x) id (x) ... ) convention)."""
    if factors < 1:
        raise InputError("factors must be >= 1")
    acc = {(k,): v for k, v in x.terms()}
    for _ in range(factors - 1):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for (k, *rest), v in acc.items():
            for t, w in h.delta_wk.col_terms(k):  # t = p*d + q for e_p (x) e_q
                add_entry(nxt, (*divmod(t, h.dim), *rest), v * w)
        acc = nxt
    return acc


def check_weak_hopf(h: WeakHopfData) -> VerificationReport:
    """All axioms: algebra, coalgebra, the three weak-bialgebra
    compatibilities, the three antipode identities, and invertibility of the
    antipode (a theorem for finite dimension, so it doubles as a data check).
    The report is kept on ``h``: later calls return the same object."""
    if h._report is None:
        h._report = _weak_hopf_report(h)
    return h._report


def grouplike(h: WeakHopfData) -> bool:
    """Delta(e_j) = e_j (x) e_j, eps(e_j) = 1 and check_algebra on a monomial table."""
    pairs = h.coalgebra.delta_pairs
    shaped = all(pairs(j) == [(j, j, ONE)] for j in range(h.dim)) and _counit_is_one(h)
    return shaped and check_algebra(h.algebra).passed


def _counit_is_one(h: WeakHopfData) -> bool:
    """Whether the table is monomial and eps is 1 on every basis element."""
    ones = dict.fromkeys(range(h.dim), ONE)
    return h.algebra.monomial_table is not None and dict(h.epsilon_wk.terms()) == ones


def _weak_hopf_report(h: WeakHopfData) -> VerificationReport:
    a, d, n, scaled = h.algebra, h.dim, h.denom, h.scaled
    checks = list(check_algebra(a).checks)
    basis = [Vec.basis(d, k) for k in range(d)]

    # Delta(ab) = Delta(a) Delta(b), by shape if grouplike, else decided on the
    # rows a in {1} u S (module docstring); the all-pairs scan gives the witness
    shape = grouplike(h)
    decided = check_algebra(a).passed
    if decided and not shape:
        rows = [(h.scaled_unit_pairs, a.unit)]
        rows += [(scaled.delta_pairs(g), basis[g]) for g in a.generators()]
        decided = not any(_mult_row(h, *row, scaled._terms_by_left()) for row in rows)
    mult_w = None
    if not decided:
        for i in range(d):
            bad = _mult_row(h, scaled.delta_pairs(i), basis[i], scaled._terms_by_left())
            if bad:
                j, acc, rhs = bad
                mult_w = _scaled_witness(
                    h, (i, j), acc, rhs, d * d, 2, "Delta(a)Delta(b) != Delta(ab)"
                )
                break

    # coassociativity, by shape if grouplike, else on the same rows once Delta
    # is multiplicative (module docstring); check_coassoc gives the witness.
    # The unit row's lhs (Delta (x) id)Delta(1) is also the unit checks' Delta^2(1).
    lhs, unit_rhs = _coassoc_sides(scaled, h.scaled_unit_pairs)
    coassoc = CheckResult("coassociativity_wk", True)
    if not shape and (not decided or lhs != unit_rhs or any(
        x != y for x, y in (_coassoc_sides(scaled, p) for p, _ in rows[1:])
    )):
        (coassoc,) = check_coassoc(scaled).checks
    w = coassoc.witness
    if w is not None:
        w = _scaled_witness(h, w.indices, dict(w.lhs.terms()), dict(w.rhs.terms()), d**3, 2, w.note)
    checks.append(CheckResult("coassociativity_wk", coassoc.passed, w))

    # (eps (x) id)(n Delta)(e_j) = n e_j = (id (x) eps)(n Delta)(e_j)
    eps, left_w, right_w = dict(h.epsilon_wk.terms()), None, None
    for j in range(0 if shape else d):  # grouplike: eps(e_j) e_j = e_j
        left, right, rhs = {}, {}, {j: n}
        for p, q, v in scaled.delta_pairs(j):
            addto(left, eps.get(p, ZERO), ((q, v),))
            addto(right, eps.get(q, ZERO), ((p, v),))
        if left_w is None and left != rhs:
            left_w = _scaled_witness(h, (j,), left, rhs, d, 1, "(eps(x)id)Delta != id")
        if right_w is None and right != rhs:
            right_w = _scaled_witness(h, (j,), right, rhs, d, 1, "(id(x)eps)Delta != id")
    checks.append(CheckResult("counit_wk_left", left_w is None, left_w))
    checks.append(CheckResult("counit_wk_right", right_w is None, right_w))
    checks.append(CheckResult("delta_wk_multiplicative", mult_w is None, mult_w))

    # eps(abc) = eps(a b_1) eps(b_2 c) = eps(a b_2) eps(b_1 c): one count per product if
    # grouplike, else the cells (R, b, C) (module docstring); the (b, a) scan gives witnesses
    if shape:
        by_left, table = a.by_left, a.monomial_table.values()
        on_basis = all(len(by_left[k]) == len(by_left[b]) for r in table for b, k in r.items())
    else:
        cells = _weak_mult_rows(h, on_basis=True)
        on_basis = check_algebra(a).passed and all(x == y == z for _, x, y, z in cells)
    weak_a, weak_b = (None, None) if on_basis else _weak_mult_scan(h)
    checks.append(CheckResult("epsilon_wk_weak_mult_a", weak_a is None, weak_a))
    checks.append(CheckResult("epsilon_wk_weak_mult_b", weak_b is None, weak_b))

    # Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1);
    # a product joins e_p (x) e_q with the nonzero e_q e_r (e_r e_q) and the
    # e_r (x) e_s by left factor, middle slot k at flat (p*d + k)*d + s
    acc_a: dict[int, Fraction] = {}
    acc_b: dict[int, Fraction] = {}
    unit_by_left: dict[int, list] = {}
    for r, s, w in h.scaled_unit_pairs:
        unit_by_left.setdefault(r, []).append((s, w))
    mult, by_right, by_left = a.mult, a.by_right, a.by_left
    for p, q, v in h.scaled_unit_pairs:
        for r in by_left[q]:
            for s, w in unit_by_left.get(r, ()):
                addto(acc_a, v * w, mult[q, r], p * d * d + s, d)
        for r in by_right[q]:
            for s, w in unit_by_left.get(r, ()):
                addto(acc_b, v * w, mult[r, q], p * d * d + s, d)
    wa = None if lhs == acc_a else _scaled_witness(
        h, (), lhs, acc_a, d * d * d, 2, "Delta^2(1) != (Delta(1)(x)1)(1(x)Delta(1))"
    )
    wb = None if lhs == acc_b else _scaled_witness(
        h, (), lhs, acc_b, d * d * d, 2, "Delta^2(1) != (1(x)Delta(1))(Delta(1)(x)1)"
    )
    checks.append(CheckResult("delta_wk_unit_a", wa is None, wa))
    checks.append(CheckResult("delta_wk_unit_b", wb is None, wb))

    # antipode identities; n^2 S(h_1) h_2 S(h_3) at h = e_j is the sum over the
    # terms (p0, r, v) of n Delta(e_j) of v (n S(x_1) x_2 at x = e_p0) S(e_r)
    eps_src, eps_tgt = _counital_terms(h)[2:]
    convs = [_convolutions(h, j) for j in range(d)]
    src_w = tgt_w = sand_w = None
    for j, (lhs_src, lhs_tgt) in enumerate(convs):
        if src_w is None and lhs_src != eps_src[j]:
            src_w = _scaled_witness(h, (j,), lhs_src, eps_src[j], d, 1, "S(h_1) h_2 != eps_s(h)")
        if tgt_w is None and lhs_tgt != eps_tgt[j]:
            tgt_w = _scaled_witness(h, (j,), lhs_tgt, eps_tgt[j], d, 1, "h_1 S(h_2) != eps_t(h)")
        if sand_w is None:
            acc = {}
            for p0, r, v in scaled.delta_pairs(j):
                for m, u in h.antipode.col_terms(r):
                    for k, c in convs[p0][0].items():
                        addto(acc, v * c * u, mult.get((k, m), ()))
            rhs = addto({}, n * n, h.antipode.col_terms(j))
            if acc != rhs:
                sand_w = _scaled_witness(h, (j,), acc, rhs, d, 2, "S(h_1) h_2 S(h_3) != S(h)")
    checks.append(CheckResult("antipode_source", src_w is None, src_w))
    checks.append(CheckResult("antipode_target", tgt_w is None, tgt_w))
    checks.append(CheckResult("antipode_sandwich", sand_w is None, sand_w))

    inv_ok = is_invertible(h.antipode)
    inv_w = None if inv_ok else Witness((), Vec(1), Vec(1), "antipode matrix is singular")
    checks.append(CheckResult("antipode_invertible", inv_ok, inv_w))
    return VerificationReport(tuple(checks))


def _mult_row(h: WeakHopfData, x_pairs, x: Vec, terms_by_left: list[list]):
    """The first j with (n Delta)(x) (n Delta)(e_j) != n (n Delta)(x e_j) and both
    sides over d^2, or None.  ``x_pairs``: the terms of (n Delta)(x);
    ``terms_by_left``: those of n Delta by left factor.  Both sides are summed
    for every j in one pass over the nonzero products, then compared in
    ascending j."""
    a, d, n = h.algebra, h.dim, h.denom
    mult, by_left, table = a.mult, a.by_left, a.monomial_table
    lhs: dict[int, dict] = {}
    for p, q, v in x_pairs:
        if table is not None:
            row_q = table.get(q, {})
            for p2 in by_left[p]:
                kd = table[p][p2] * d
                for j, q2, v2 in terms_by_left[p2]:
                    kr = row_q.get(q2)
                    if kr is not None:
                        acc, t, w = lhs.setdefault(j, {}), kd + kr, v * v2
                        if t in acc:
                            w += acc[t]
                            if not w:
                                del acc[t]
                                continue
                        acc[t] = w
            continue
        for p2 in by_left[p]:
            left_terms = mult[p, p2]
            for j, q2, v2 in terms_by_left[p2]:
                right = mult.get((q, q2))
                if right is not None:
                    for kl, vl in left_terms:
                        addto(lhs.setdefault(j, {}), v * v2 * vl, right, kl * d)
    rhs: dict[int, dict] = {}
    for k, c in x.terms():
        for j in by_left[k]:
            for m, u in mult[k, j]:
                addto(rhs.setdefault(j, {}), n * c * u, h.scaled.delta.col_terms(m))
    for j in sorted(lhs.keys() | rhs.keys()):
        if lhs.get(j, {}) != rhs.get(j, {}):
            return j, lhs.get(j, {}), rhs.get(j, {})
    return None


def _scaled_witness(
    h: WeakHopfData, indices, lhs: dict, rhs: dict, dim: int, k: int, note: str
) -> Witness:
    """Witness of an identity decided with both sides scaled by n^k, divided back."""
    f = Fraction(1, h.denom**k)
    return Witness(indices, Vec.adopt(dim, lhs).scale(f), Vec.adopt(dim, rhs).scale(f), note)


def _row_witness(prefix: tuple[int, int], lhs: dict, rhs: dict, n: int, note: str) -> Witness:
    """Scalar witness at the first index where two unequal sparse rows,
    both scaled by n, differ."""
    k = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    f = Fraction(1, n)
    return _scalar_witness((*prefix, k), lhs.get(k, ZERO) * f, rhs.get(k, ZERO) * f, note)


def _counital_terms(h: WeakHopfData) -> tuple[list[dict], ...]:
    """``(eps_row, eps_col, src, tgt)``: the rows {c: eps(e_m e_c)} and columns
    {m: eps(e_m e_c)} of E from the nonzero products, and src[j] = n eps_s(e_j),
    tgt[j] = n eps_t(e_j) as dicts from the terms of n Delta(1).  Kept on ``h``."""
    if h._counital is None:
        a, d, eps = h.algebra, h.dim, dict(h.epsilon_wk.terms())
        ones = _counit_is_one(h)  # then E[m, c] = [e_m e_c != 0] (module docstring)
        eps_row = [dict.fromkeys(row, ONE) if ones else {} for row in a.by_left]
        eps_col = [dict.fromkeys(col, ONE) if ones else {} for col in a.by_right]
        for (m, c), prod in () if ones else a.mult.items():
            v = ZERO
            for k, x in prod:  # eps(e_m e_c), summed over the product's terms
                if k in eps:
                    v += x * eps[k]
            if v:
                eps_row[m][c] = eps_col[c][m] = v
        src, tgt = [{} for _ in range(d)], [{} for _ in range(d)]
        for p, q, v in h.scaled_unit_pairs:
            for j, c in eps_col[q].items():  # eps_s(e_j) = 1_1 eps(e_j 1_2)
                addto(src[j], v * c, ((p, ONE),))
            for j, c in eps_row[p].items():  # eps_t(e_j) = eps(1_1 e_j) 1_2
                addto(tgt[j], v * c, ((q, ONE),))
        h._counital = (eps_row, eps_col, src, tgt)
    return h._counital


def _weak_mult_rows(h: WeakHopfData, on_basis: bool):
    """(a, b), n eps((e_a e_b) e_c), n eps(e_a b_1) eps(b_2 e_c), n eps(e_a b_2) eps(b_1 e_c)
    over c, for each b then a: all a and c, or a in R and c in C (``on_basis``)."""
    eps_row, n = _counital_terms(h)[0], h.denom
    indices, cols = rank_raising(h.dim, eps_row) if on_basis else (range(h.dim),) * 2
    cols = set(cols)
    rows = [[(c, v) for c, v in row.items() if c in cols] for row in eps_row]
    for b in range(h.dim):
        dpairs = h.scaled.delta_pairs(b)
        for i in indices:
            row_i, direct, split_a, split_b = eps_row[i], {}, {}, {}
            for m, c in h.algebra.mult.get((i, b), ()):
                addto(direct, n * c, rows[m])
            for p, q, v in dpairs:  # addto skips a zero coefficient
                addto(split_a, v * row_i.get(p, ZERO), rows[q])
                addto(split_b, v * row_i.get(q, ZERO), rows[p])
            yield (i, b), direct, split_a, split_b


def _weak_mult_scan(h: WeakHopfData) -> tuple[Witness | None, Witness | None]:
    """First witness of each identity, for one (b, a) at a time over all c."""
    weak_a = weak_b = None
    for ib, direct, split_a, split_b in _weak_mult_rows(h, on_basis=False):
        if weak_a is None and direct != split_a:
            weak_a = _row_witness(ib, direct, split_a, h.denom, "eps(abc) != eps(a b_1) eps(b_2 c)")
        if weak_b is None and direct != split_b:
            weak_b = _row_witness(ib, direct, split_b, h.denom, "eps(abc) != eps(a b_2) eps(b_1 c)")
        if weak_a is not None and weak_b is not None:
            break
    return weak_a, weak_b


def _convolutions(h: WeakHopfData, j: int) -> tuple[dict, dict]:
    """n S(h_1) h_2 and n h_1 S(h_2) for h = e_j, as dicts."""
    mult, s = h.algebra.mult, h.antipode
    src: dict[int, Fraction] = {}
    tgt: dict[int, Fraction] = {}
    for p, q, v in h.scaled.delta_pairs(j):
        for k, c in s.col_terms(p):
            addto(src, v * c, mult.get((k, q), ()))
        for k, c in s.col_terms(q):
            addto(tgt, v * c, mult.get((p, k), ()))
    return src, tgt


def is_hopf(h: WeakHopfData) -> bool:
    """True iff Delta(1) = 1 (x) 1; the equivalent characterizations
    (multiplicative counit, antipode convolution identities) are re-checked
    and any disagreement raises InternalConsistencyError."""
    if h.coalgebra.delta_of(h.unit) != h.unit.tensor(h.unit):
        return False
    d = h.dim
    eps, eps_row = h.epsilon_wk, _counital_terms(h)[0]
    if any(eps_row[x].get(y, ZERO) != eps.get(x) * eps.get(y) for x in range(d) for y in range(d)):
        raise InternalConsistencyError("Delta(1) = 1(x)1 but eps is not multiplicative")
    for j in range(d):
        expected = addto({}, h.denom * eps.get(j), h.unit.terms())
        if any(conv != expected for conv in _convolutions(h, j)):
            raise InternalConsistencyError(
                "Delta(1) = 1(x)1 but the antipode convolution identities fail"
            )
    return True


def integral_space(h: WeakHopfData, side: str) -> list[Vec]:
    """Kernel basis of the solution space of h L = eps_t(h) L (left) or
    L h = L eps_s(h) (right) over all h, from the rows of x L = 0 (L x = 0) for
    the x of :func:`_integral_annihilators`.  Nonempty for every
    finite-dimensional weak Hopf algebra; emptiness signals corrupt data.
    Every row set with the same solution space has the same reduced echelon
    form, so the kernel basis does not depend on which x are used or on
    their scale."""
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    a, d, left = h.algebra, h.dim, side == "left"
    by_factor = a.by_left if left else a.by_right
    sys_ = LinearSystem(d)
    for x in _integral_annihilators(h, left):
        rows: dict[int, dict[int, Fraction]] = {}
        for m, y in x.items():
            for c in by_factor[m]:
                for r, v in a.mult[(m, c) if left else (c, m)]:
                    addto(rows.setdefault(r, {}), y, ((c, v),))
        for r in sorted(rows):
            if rows[r]:
                sys_.add(rows[r])
    basis = sys_.kernel()
    if not basis:
        raise InternalConsistencyError(
            f"{side} integral space is zero; data is not a weak Hopf algebra"
        )
    return basis


def _integral_annihilators(h: WeakHopfData, left: bool) -> list[dict[int, Fraction]]:
    """The x = n y - n eps_t(y) (left) or n y - n eps_s(y) (right) such that
    the left integrals are the L with x L = 0 (right: L x = 0) for all of
    them.  When check_weak_hopf passes, y = e_s b (right: b e_s) for s in
    the generators and b in n times a basis of A_t (A_s), from
    :func:`_counital_basis` (proof in the module docstring); otherwise
    y = e_k for every basis index k."""
    a, n, which = h.algebra, h.denom, 3 if left else 2
    eps = _counital_terms(h)[which]
    if check_weak_hopf(h).passed:
        ys, basis = [], _counital_basis(h, which)
        for s in a.generators():
            for b in basis:
                y: dict[int, Fraction] = {}
                for m, c in b.items():
                    addto(y, c, a.mult.get((s, m) if left else (m, s), ()))
                if y:
                    ys.append(y)
    else:
        ys = [{k: ONE} for k in range(h.dim)]
    out = []
    for y in ys:
        x = addto({}, n, y.items())
        for k, c in y.items():
            addto(x, -c, eps[k].items())
        if x:
            out.append(x)
    return out


def psi_map(h: WeakHopfData, lam: Vec) -> Mat:
    """Matrix of Psi_L : H* -> H, phi -> L_1 phi(L_2), columns indexed by the
    dual basis."""
    d = h.dim
    return Mat(d, d, [(*divmod(t, d), v) for t, v in h.coalgebra.delta_of(lam).terms()])


def _l1_s_l2(h: WeakHopfData, lam: Vec) -> dict[int, Fraction]:
    """L_1 (x) S(L_2) for L = lam, as a dict over flat indices p*d + k."""
    d = h.dim
    acc: dict[int, Fraction] = {}
    for t, v in h.coalgebra.delta_of(lam).terms():
        p, q = divmod(t, d)
        addto(acc, v, h.antipode.col_terms(q), p * d)
    return acc


def find_nondegenerate_integral(
    h: WeakHopfData, seed: int = DEFAULT_INTEGRAL_SEED
) -> tuple[Vec, Vec]:
    """A non-degenerate left integral L and the lam with Psi_L(lam) = 1.

    Tries each kernel basis vector of I^L, then their plain sum (for a
    groupoid algebra, the sum of all morphisms), then seeded integer
    combinations with coefficients in [-d, d], until Psi_L is invertible.
    Every answer is certified by the exact solve of Psi_L(lam) = 1.

    The search ends.  A finite-dimensional weak Hopf algebra has a
    non-degenerate left integral (Boehm-Nill-Szlachanyi, Weak Hopf algebras I,
    J. Algebra 221 (1999), section 3), so the data must pass check_weak_hopf;
    otherwise PreconditionError.  Psi_L is linear in L, so det Psi_L is a
    polynomial of degree <= d in the coefficients, and it is not identically
    zero because a non-degenerate L lies in their span.  By Schwartz-Zippel
    (J. ACM 27, 1980) a draw from [-d, d] fails with probability at most
    d/(2d+1) < 1/2.
    """
    if not check_weak_hopf(h).passed:
        raise PreconditionError("the integral search needs data that passes check_weak_hopf")
    basis, d = integral_space(h, "left"), h.dim

    def combination(coeffs) -> Vec:
        acc: dict[int, Fraction] = {}
        for c, b in zip(coeffs, basis):
            addto(acc, c, b.terms())
        return Vec.adopt(d, acc)

    def candidates():
        yield from basis
        yield combination([ONE] * len(basis))
        rng = random.Random(seed)
        while True:
            yield combination([rng.randint(-d, d) for _ in basis])

    for candidate in candidates():
        lam = _psi_solve(h, candidate)
        if lam is not None:
            return candidate, lam


def _psi_solve(h: WeakHopfData, candidate: Vec) -> Vec | None:
    """The lam with Psi_L(lam) = 1 for L = candidate, or None when Psi_L is
    singular (rank below dim)."""
    sys_ = LinearSystem(h.dim)
    sys_.add_matrix(psi_map(h, candidate), h.unit)
    if sys_.rank < h.dim:
        return None
    return sys_.solution()


def frobenius_from_integral(h: WeakHopfData, lam: Vec) -> ComultData:
    """Comultiplication Delta(x) = L_1 (x) S(L_2) x from a left integral L,
    with its counit, which exists iff Psi_L is invertible.

    The tensor L_1 (x) S(L_2) is a Casimir element precisely when L is a left
    integral, so the construction goes through :func:`casimir_comult`, which
    raises PreconditionError with a witness otherwise; so does a failed
    check_algebra.
    """
    d = h.dim
    comult = casimir_comult(CasimirElement(h.algebra, Vec.adopt(d * d, _l1_s_l2(h, lam))))
    if not check_algebra(h.algebra).passed:
        raise PreconditionError("Delta is not a bimodule map over a unital associative algebra")
    return comult


# JSON: the finalg algebra fields plus "delta_wk", "epsilon_wk", "antipode";
# all matrix entries serialize as [source_index, target_index, "p/q"].


def weak_hopf_to_json(h: WeakHopfData) -> dict:
    payload = _algebra_to_json(h.algebra)
    payload["delta_wk"] = _mat_to_json(h.delta_wk)
    payload["epsilon_wk"] = _vec_to_json(h.epsilon_wk)
    payload["antipode"] = _mat_to_json(h.antipode)
    return payload


def weak_hopf_from_json(payload: dict) -> WeakHopfData:
    literals: dict = {}
    algebra = _algebra_from_json(payload, literals)
    d = algebra.dim
    return WeakHopfData(
        algebra,
        _mat_from_json(_field(payload, "delta_wk"), d * d, d, "delta_wk", literals),
        _vec_from_json(_field(payload, "epsilon_wk"), d, "epsilon_wk", literals),
        _mat_from_json(_field(payload, "antipode"), d, d, "antipode", literals),
    )
