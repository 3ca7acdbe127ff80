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
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InputError, InternalConsistencyError
from ..exactlin import (
    LinearSystem,
    Mat,
    ONE,
    TensorIndex,
    Vec,
    ZERO,
    addto,
    is_invertible,
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
    _field,
    _mat_from_json,
    _mat_to_json,
    _scalar_witness,
    _vec_from_json,
    _vec_to_json,
    casimir_comult,
    check_algebra,
    check_coassoc,
    counit_failures,
    solve_counit,
)

# Seed for the pseudorandom part of the non-degenerate-integral search;
# echoed in CLI reports so runs are reproducible.
DEFAULT_INTEGRAL_SEED = 271828


class WeakHopfData:
    """Algebra + weak comultiplication, weak counit, and antipode.

    ``delta_wk`` is (dim^2 x dim) with row-major pair flattening,
    ``epsilon_wk`` is a functional stored over the same basis, and
    ``antipode`` is (dim x dim) with column j the image S(e_j).

    Fields must not be reassigned after construction: ``unit_pairs`` (Delta(1)
    as (p, q, coeff) terms) and the :func:`check_weak_hopf` report derive from them.
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
        self.unit_pairs = self.comult_pairs_of(algebra.unit)
        self._report: VerificationReport | None = None

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def unit(self) -> Vec:
        return self.algebra.unit

    def comult(self, x: Vec) -> Vec:
        return self.delta_wk.matvec(x)

    def comult_pairs(self, j: int) -> list[tuple[int, int, Fraction]]:
        return self.coalgebra.delta_pairs(j)

    def comult_pairs_of(self, x: Vec) -> list[tuple[int, int, Fraction]]:
        d = self.dim
        return [(t // d, t % d, v) for t, v in self.comult(x).terms()]

    def counit_value(self, x: Vec) -> Fraction:
        return self.epsilon_wk.dot(x)

    def antipode_of(self, x: Vec) -> Vec:
        return self.antipode.matvec(x)


def epsilon_s(h: WeakHopfData, x: Vec) -> Vec:
    """Source counital map eps_s(x) = 1_1 eps(x 1_2)."""
    acc: dict[int, Fraction] = {}
    for p, q, v in h.unit_pairs:
        c = h.counit_value(h.algebra.mul(x, Vec.basis(h.dim, q)))
        addto(acc, c, ((p, v),))
    return Vec.adopt(h.dim, acc)


def epsilon_t(h: WeakHopfData, x: Vec) -> Vec:
    """Target counital map eps_t(x) = eps(1_1 x) 1_2."""
    acc: dict[int, Fraction] = {}
    for p, q, v in h.unit_pairs:
        c = h.counit_value(h.algebra.mul(Vec.basis(h.dim, p), x))
        addto(acc, c, ((q, v),))
    return Vec.adopt(h.dim, acc)


def epsilon_s_matrix(h: WeakHopfData) -> Mat:
    return Mat.from_columns(
        h.dim, [epsilon_s(h, Vec.basis(h.dim, j)) for j in range(h.dim)]
    )


def epsilon_t_matrix(h: WeakHopfData) -> Mat:
    return Mat.from_columns(
        h.dim, [epsilon_t(h, Vec.basis(h.dim, j)) for j in range(h.dim)]
    )


def _column_space_basis(m: Mat) -> list[Vec]:
    """Deterministic basis of the column space: the columns, scanned in
    ascending order, that increase the rank."""
    sys_ = LinearSystem(m.nrows)
    out = []
    for j in range(m.ncols):
        col = m.col(j)
        if col.is_zero():
            continue
        before = sys_.rank
        sys_.add({k: v for k, v in col.items()})
        if sys_.rank > before:
            out.append(col)
    return out


def source_subalgebra_basis(h: WeakHopfData) -> list[Vec]:
    return _column_space_basis(epsilon_s_matrix(h))


def target_subalgebra_basis(h: WeakHopfData) -> list[Vec]:
    return _column_space_basis(epsilon_t_matrix(h))


def iterated_comult(h: WeakHopfData, x: Vec, factors: int) -> dict[tuple[int, ...], Fraction]:
    """Sweedler components of Delta^{factors-1}(x) as a sparse dict over
    basis tuples, expanding the first tensor slot each step
    ((Delta (x) id (x) ... ) convention)."""
    if factors < 1:
        raise InputError("factors must be >= 1")
    # flat = k * stride + rest, with k the first slot; expanding k to the
    # pair index t = p*d + q gives t * stride + rest
    acc = dict(x.terms())
    stride = 1
    for _ in range(factors - 1):
        nxt: dict[int, Fraction] = {}
        for flat, v in acc.items():
            k, rest = divmod(flat, stride)
            addto(nxt, v, h.delta_wk.col_terms(k), rest, stride)
        acc = nxt
        stride *= h.dim
    ti = TensorIndex((h.dim,) * factors)
    return {ti.unflatten(flat): v for flat, v in acc.items()}


def check_weak_hopf(h: WeakHopfData) -> VerificationReport:
    """All axioms: algebra, coalgebra, the three weak-bialgebra
    compatibilities, the three antipode identities, and invertibility of the
    antipode (a theorem for finite dimension, so it doubles as a data check).
    The report is kept on ``h``: later calls return the same object."""
    if h._report is None:
        h._report = _weak_hopf_report(h)
    return h._report


def _weak_hopf_report(h: WeakHopfData) -> VerificationReport:
    a = h.algebra
    d = h.dim
    checks = list(check_algebra(a).checks)
    (coassoc,) = check_coassoc(h.coalgebra).checks
    checks.append(CheckResult("coassociativity_wk", coassoc.passed, coassoc.witness))

    basis = [Vec.basis(d, k) for k in range(d)]
    left_w = None
    right_w = None
    for j, lvec, rvec in counit_failures(h.coalgebra, h.epsilon_wk):
        if left_w is None and lvec != basis[j]:
            left_w = Witness((j,), lvec, basis[j], "(eps(x)id)Delta != id")
        if right_w is None and rvec != basis[j]:
            right_w = Witness((j,), rvec, basis[j], "(id(x)eps)Delta != id")
    checks.append(CheckResult("counit_wk_left", left_w is None, left_w))
    checks.append(CheckResult("counit_wk_right", right_w is None, right_w))

    # Delta(ab) = Delta(a) Delta(b) on all basis pairs
    mult_w = None
    for i in range(d):
        pairs_i = h.comult_pairs(i)
        for j in range(d):
            acc: dict[int, Fraction] = {}
            for p, q, v in pairs_i:
                for p2, q2, v2 in h.comult_pairs(j):
                    right_terms = a.basis_product(q, q2).terms()
                    for kl, vl in a.basis_product(p, p2).terms():
                        addto(acc, v * v2 * vl, right_terms, kl * d)
            lhs = Vec.adopt(d * d, acc)
            rhs = h.comult(a.basis_product(i, j))
            if lhs != rhs:
                mult_w = Witness((i, j), lhs, rhs, "Delta(a)Delta(b) != Delta(ab)")
                break
        if mult_w:
            break
    checks.append(CheckResult("delta_wk_multiplicative", mult_w is None, mult_w))

    # eps(abc) = eps(a b_1) eps(b_2 c) = eps(a b_2) eps(b_1 c), for one (b, a)
    # at a time over all c, from the rows eps_row[m] = {c: eps(e_m e_c)}
    eps_row = [
        {k: c for k in range(d) if (c := h.counit_value(a.basis_product(m, k)))}
        for m in range(d)
    ]
    weak_a = None
    weak_b = None
    for b_mid in range(d):
        dpairs = h.comult_pairs(b_mid)
        for i in range(d):
            row_i = eps_row[i]
            direct: dict[int, Fraction] = {}
            for m, c in a.basis_product(i, b_mid).terms():
                addto(direct, c, eps_row[m].items())
            split_a: dict[int, Fraction] = {}
            split_b: dict[int, Fraction] = {}
            for p, q, v in dpairs:
                if p in row_i:
                    addto(split_a, v * row_i[p], eps_row[q].items())
                if q in row_i:
                    addto(split_b, v * row_i[q], eps_row[p].items())
            if weak_a is None and direct != split_a:
                weak_a = _row_witness((i, b_mid), direct, split_a, "eps(abc) != eps(a b_1) eps(b_2 c)")
            if weak_b is None and direct != split_b:
                weak_b = _row_witness((i, b_mid), direct, split_b, "eps(abc) != eps(a b_2) eps(b_1 c)")
            if weak_a is not None and weak_b is not None:
                break
        if weak_a is not None and weak_b is not None:
            break
    checks.append(CheckResult("epsilon_wk_weak_mult_a", weak_a is None, weak_a))
    checks.append(CheckResult("epsilon_wk_weak_mult_b", weak_b is None, weak_b))

    # Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1)
    lhs_vec = Vec(
        d * d * d,
        [((p * d + q) * d + r, v) for (p, q, r), v in iterated_comult(h, h.unit, 3).items()],
    )
    acc_a: dict[int, Fraction] = {}
    acc_b: dict[int, Fraction] = {}
    for p, q, v in h.unit_pairs:  # Delta(1) (x) 1: slots 1, 2
        for r, s, w in h.unit_pairs:  # 1 (x) Delta(1): slots 2, 3
            # middle slot k of the product: flat (p*d + k)*d + s
            addto(acc_a, v * w, a.basis_product(q, r).terms(), p * d * d + s, d)
            addto(acc_b, v * w, a.basis_product(r, q).terms(), p * d * d + s, d)
    rhs_a = Vec.adopt(d * d * d, acc_a)
    rhs_b = Vec.adopt(d * d * d, acc_b)
    wa = None if lhs_vec == rhs_a else Witness(
        (), lhs_vec, rhs_a, "Delta^2(1) != (Delta(1)(x)1)(1(x)Delta(1))"
    )
    wb = None if lhs_vec == rhs_b else Witness(
        (), lhs_vec, rhs_b, "Delta^2(1) != (1(x)Delta(1))(Delta(1)(x)1)"
    )
    checks.append(CheckResult("delta_wk_unit_a", wa is None, wa))
    checks.append(CheckResult("delta_wk_unit_b", wb is None, wb))

    # antipode identities
    s_cols = [h.antipode.col(j) for j in range(d)]
    src_w = None
    tgt_w = None
    sand_w = None
    for j in range(d):
        lhs_src, lhs_tgt = _convolutions(h, j)
        es = epsilon_s(h, basis[j])
        et = epsilon_t(h, basis[j])
        if src_w is None and lhs_src != es:
            src_w = Witness((j,), lhs_src, es, "S(h_1) h_2 != eps_s(h)")
        if tgt_w is None and lhs_tgt != et:
            tgt_w = Witness((j,), lhs_tgt, et, "h_1 S(h_2) != eps_t(h)")
        if sand_w is None:
            acc = {}
            for (p, q, r), v in iterated_comult(h, basis[j], 3).items():
                term = a.mul(a.mul(s_cols[p], basis[q]), s_cols[r])
                addto(acc, v, term.terms())
            lhs_sand = Vec.adopt(d, acc)
            if lhs_sand != s_cols[j]:
                sand_w = Witness(
                    (j,), lhs_sand, s_cols[j], "S(h_1) h_2 S(h_3) != S(h)"
                )
    checks.append(CheckResult("antipode_source", src_w is None, src_w))
    checks.append(CheckResult("antipode_target", tgt_w is None, tgt_w))
    checks.append(CheckResult("antipode_sandwich", sand_w is None, sand_w))

    inv_ok = is_invertible(h.antipode)
    checks.append(
        CheckResult(
            "antipode_invertible",
            inv_ok,
            None
            if inv_ok
            else Witness((), Vec(1), Vec(1), "antipode matrix is singular"),
        )
    )
    return VerificationReport(tuple(checks))


def _row_witness(prefix: tuple[int, int], lhs: dict, rhs: dict, note: str) -> Witness:
    """Scalar witness at the first index where two unequal sparse rows differ."""
    k = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    return _scalar_witness((*prefix, k), lhs.get(k, ZERO), rhs.get(k, ZERO), note)


def _convolutions(h: WeakHopfData, j: int) -> tuple[Vec, Vec]:
    """S(h_1) h_2 and h_1 S(h_2) for h = e_j."""
    a, s = h.algebra, h.antipode
    src: dict[int, Fraction] = {}
    tgt: dict[int, Fraction] = {}
    for p, q, v in h.comult_pairs(j):
        for k, c in s.col_terms(p):
            addto(src, v * c, a.basis_product(k, q).terms())
        for k, c in s.col_terms(q):
            addto(tgt, v * c, a.basis_product(p, k).terms())
    return Vec.adopt(h.dim, src), Vec.adopt(h.dim, tgt)


def is_hopf(h: WeakHopfData) -> bool:
    """True iff Delta(1) = 1 (x) 1; the equivalent characterizations
    (multiplicative counit, antipode convolution identities) are re-checked
    and any disagreement raises InternalConsistencyError."""
    hopf = h.comult(h.unit) == h.unit.tensor(h.unit)
    if not hopf:
        return False
    a = h.algebra
    d = h.dim
    eps = h.epsilon_wk
    for x in range(d):
        for y in range(d):
            if h.counit_value(a.basis_product(x, y)) != eps.get(x) * eps.get(y):
                raise InternalConsistencyError(
                    "Delta(1) = 1(x)1 but eps is not multiplicative"
                )
    for j in range(d):
        expected = h.unit.scale(eps.get(j))
        if any(conv != expected for conv in _convolutions(h, j)):
            raise InternalConsistencyError(
                "Delta(1) = 1(x)1 but the antipode convolution identities fail"
            )
    return True


@dataclass(frozen=True)
class IntegralSpace:
    side: str  # "left" or "right"
    basis: list[Vec]


def integral_space(h: WeakHopfData, side: str) -> IntegralSpace:
    """Exact solution space of h L = eps_t(h) L (left) or L h = L eps_s(h)
    (right) over all basis h.  Nonempty for every finite-dimensional weak
    Hopf algebra; emptiness signals corrupt data."""
    if side not in ("left", "right"):
        raise InputError("side must be 'left' or 'right'")
    d = h.dim
    sys_ = LinearSystem(d)
    for k in range(d):
        ek = Vec.basis(d, k)
        if side == "left":
            m = h.algebra.left_mult_matrix(ek - epsilon_t(h, ek))
        else:
            m = h.algebra.right_mult_matrix(ek - epsilon_s(h, ek))
        sys_.add_matrix(m)
    basis = sys_.kernel()
    if not basis:
        raise InternalConsistencyError(
            f"{side} integral space is zero; data is not a weak Hopf algebra"
        )
    return IntegralSpace(side, basis)


def psi_map(h: WeakHopfData, lam: Vec) -> Mat:
    """Matrix of Psi_L : H* -> H, phi -> L_1 phi(L_2), columns indexed by the
    dual basis."""
    d = h.dim
    return Mat(d, d, [(p, q, v) for p, q, v in h.comult_pairs_of(lam)])


def phi_map(h: WeakHopfData, lam: Vec) -> Mat:
    """Matrix of Phi_L : phi -> phi(L_1) S(L_2)."""
    d = h.dim
    cols: list[dict[int, Fraction]] = [{} for _ in range(d)]
    for p, q, v in h.comult_pairs_of(lam):
        addto(cols[p], v, h.antipode.col_terms(q))
    return Mat.from_columns(d, [Vec.adopt(d, c) for c in cols])


def phi_prime_map(h: WeakHopfData, lam: Vec) -> Mat:
    """Matrix of Phi'_L : phi -> L_1 phi(S(L_2))."""
    d = h.dim
    entries = []
    for p, q, v in h.comult_pairs_of(lam):
        for k, w in h.antipode.col(q).items():
            entries.append((p, k, v * w))
    return Mat(d, d, entries)


def find_nondegenerate_integral(
    h: WeakHopfData,
    seed: int = DEFAULT_INTEGRAL_SEED,
    attempts: int = 64,
) -> tuple[Vec, Vec] | None:
    """Search the left integral space for a non-degenerate element.

    Tries each kernel basis vector, then their plain sum (the canonical
    candidate; for a groupoid algebra it is the sum of all morphisms), then
    seeded pseudorandom integer combinations with coefficients in [-3, 3].
    On success returns (L, lam) with Psi_L(lam) = 1.  A None result is
    probabilistic evidence only, not a proof that no non-degenerate integral
    exists.
    """
    basis = integral_space(h, "left").basis

    def attempt(candidate: Vec):
        if candidate.is_zero():
            return None
        lam = _psi_solve(h, candidate)
        return None if lam is None else (candidate, lam)

    total: dict[int, Fraction] = {}
    for lam in basis:
        addto(total, ONE, lam.terms())
        found = attempt(lam)
        if found:
            return found
    found = attempt(Vec.adopt(h.dim, total))
    if found:
        return found
    rng = random.Random(seed)
    for _ in range(attempts):
        combo: dict[int, Fraction] = {}
        for b in basis:
            addto(combo, rng.randint(-3, 3), b.terms())
        found = attempt(Vec.adopt(h.dim, combo))
        if found:
            return found
    return None


def _psi_solve(h: WeakHopfData, candidate: Vec) -> Vec | None:
    """The lam with Psi_L(lam) = 1 for L = candidate, or None when Psi_L is
    singular (rank below dim)."""
    sys_ = LinearSystem(h.dim)
    sys_.add_matrix(psi_map(h, candidate), h.unit)
    if sys_.rank < h.dim:
        return None
    return sys_.solution()


def frobenius_from_integral(h: WeakHopfData, lam: Vec) -> ComultData:
    """Comultiplication Delta(x) = L_1 (x) S(L_2) x from a left integral L.

    The tensor L_1 (x) S(L_2) is a Casimir element precisely when L is a left
    integral, so the construction goes through the generic Casimir builder
    (raising PreconditionError with a witness otherwise).  The counit slot is
    filled by exact solving; it exists iff Psi_L is invertible.
    """
    d = h.dim
    cas_entries: dict[int, Fraction] = {}
    for p, q, v in h.comult_pairs_of(lam):
        addto(cas_entries, v, h.antipode.col_terms(q), p * d)
    cas = CasimirElement(h.algebra, Vec.adopt(d * d, cas_entries))
    comult = casimir_comult(cas)
    eps = solve_counit(comult)
    return ComultData(h.algebra, comult.delta, eps)


# JSON: the finalg algebra fields plus "delta_wk", "epsilon_wk", "antipode";
# all matrix entries serialize as [source_index, target_index, "p/q"].


def weak_hopf_to_json(h: WeakHopfData) -> dict:
    payload = _algebra_to_json(h.algebra)
    payload["delta_wk"] = _mat_to_json(h.delta_wk)
    payload["epsilon_wk"] = _vec_to_json(h.epsilon_wk)
    payload["antipode"] = _mat_to_json(h.antipode)
    return payload


def weak_hopf_to_json_str(h: WeakHopfData) -> str:
    return json.dumps(weak_hopf_to_json(h), indent=2, sort_keys=True) + "\n"


def weak_hopf_from_json(payload: dict) -> WeakHopfData:
    algebra = _algebra_from_json(payload)
    d = algebra.dim
    return WeakHopfData(
        algebra,
        _mat_from_json(_field(payload, "delta_wk"), d * d, d, "delta_wk"),
        _vec_from_json(_field(payload, "epsilon_wk"), d, "epsilon_wk"),
        _mat_from_json(_field(payload, "antipode"), d, d, "antipode"),
    )
