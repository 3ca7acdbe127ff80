"""Workload definitions: instance populations, seeded schedules and the oracle.

Every instance is one ``frobkit`` command line.  Populations and expected
results come from closed forms in this file, never from frobkit itself, so the
schedule can be built before frobkit is imported and a defect in frobkit
cannot hide its own wrong answer.

A workload splits its population into strata by dimension.  Round r takes
``quota`` instances from each stratum, in a per-seed random order and without
replacement, so every round has the same mix of sizes whatever the seed.  A
run stops at a round boundary, which keeps that mix balanced even when the
time budget ends the run.  A workload's named baseline case, if it has one,
is always in round 0.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

FROBENIUS = "Frobenius"
NON_COUNITAL = "NonCounitalOnly"
NOT_FROBENIUS = "NotFrobeniusStructure"


@dataclass(frozen=True)
class Expect:
    """What a correct frobkit prints for one instance."""

    exit_code: int
    checks: str  # "pass": every check line is [PASS]; "fail": some is [FAIL]; "none"
    classification: str | None = None
    integral_dim: int | None = None  # required dimension of I^L and I^R


@dataclass(frozen=True)
class Instance:
    name: str  # stable identifier, also the command line unless an input file is generated
    argv: tuple[str, ...]
    expect: Expect
    # verify-mixed only: (n, ell, mults, corrupt); the input file is written at set-up
    nsy_input: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[tuple[int, tuple[Instance, ...]], ...]  # (quota per round, population)
    baseline: Instance | None  # a named case from the ROADMAP baseline table
    warmup: Instance  # outside the population, so no timed instance repeats
    tail_pct: int  # latency_tail_s percentile: >= 10 samples lie beyond it in a typical run
    trace_rounds: int  # rounds in the fixed instance list of a traced run
    max_rounds: int  # rounds prepared at set-up; more than a run gets through

    def schedule(self, seed: int) -> list[list[Instance]]:
        """The rounds for ``seed``; the run decides how many it gets through."""
        rng = random.Random(f"{self.name}/{seed}")
        orders = []
        for _, population in self.strata:
            order = list(population)
            rng.shuffle(order)
            if self.baseline in order:
                order.remove(self.baseline)
                order.insert(0, self.baseline)
            orders.append(order)
        n_rounds = min([self.max_rounds] + [
            len(order) // quota for (quota, _), order in zip(self.strata, orders)])
        rounds = []
        for r in range(n_rounds):
            batch = [inst for (quota, _), order in zip(self.strata, orders)
                     for inst in order[r * quota:(r + 1) * quota]]
            rng.shuffle(batch)
            rounds.append(batch)
        if self.baseline is not None and not any(self.baseline in o for o in orders):
            rounds[0].insert(0, self.baseline)
        return rounds


# ---------------------------------------------------------------- closed forms


def nsy_dimension(n: int, ell: int, mults: tuple[int, ...]) -> int:
    """dim B_{n,ell}(m) = sum_i sum_{j < ell} m_i m_{i+j}."""
    return sum(mults[i] * mults[(i + j) % n] for i in range(n) for j in range(ell))


def nsy_is_frobenius(n: int, ell: int, mults: tuple[int, ...]) -> bool:
    """A counit exists iff m_i = m_{i + ell - 1} for all i (Nakayama permutation)."""
    return all(mults[i] == mults[(i + ell - 1) % n] for i in range(n))


def _nsy_box(dim_lo: int, dim_hi: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """NSY parameters with n 2-5, ell 2-5, m_i 1-3 and dim_lo <= dim < dim_hi."""
    return [
        (n, ell, mults)
        for n in range(2, 6)
        for ell in range(2, 6)
        for mults in itertools.product(range(1, 4), repeat=n)
        if dim_lo <= nsy_dimension(n, ell, mults) < dim_hi
    ]


def _nsy_argv(n: int, ell: int, mults: tuple[int, ...]) -> tuple[str, ...]:
    return ("nsy", "check", f"n={n}", f"ell={ell}", "m=" + ",".join(map(str, mults)))


def _nsy_check(n: int, ell: int, mults: tuple[int, ...]) -> Instance:
    argv = _nsy_argv(n, ell, mults)
    cls = FROBENIUS if nsy_is_frobenius(n, ell, mults) else NON_COUNITAL
    return Instance(" ".join(argv), argv, Expect(0, "pass", cls))


def _verify(n: int, ell: int, mults: tuple[int, ...], corrupt: bool) -> Instance:
    """``verify FILE`` on the ``nsy build`` output; a corrupted copy gains one
    delta entry in a column outside the unit's support.  Delta(1) is unchanged
    and a bimodule map is determined by Delta(1), so the corrupted Delta is no
    bimodule map: exit 1 and NotFrobeniusStructure."""
    name = f"verify n={n} ell={ell} m={','.join(map(str, mults))}"
    if corrupt:
        expect = Expect(1, "fail", NOT_FROBENIUS)
        name += " corrupted"
    else:
        cls = FROBENIUS if nsy_is_frobenius(n, ell, mults) else NON_COUNITAL
        expect = Expect(0, "pass", cls)
    return Instance(name, ("verify", "<input>"), expect, (n, ell, mults, corrupt))


def _whopf(argv: tuple[str, ...], op: str, objects: int) -> Instance:
    """A groupoid or QTG weak Hopf algebra: every axiom holds, the integral
    construction gives a Frobenius structure, and I^L, I^R have dimension
    ``objects`` (the number of objects; dim B for a QTG over B)."""
    full = ("whopf",) + argv + (op,)
    if op == "integrals":
        expect = Expect(0, "none", integral_dim=objects)
    elif op == "frobenius":
        expect = Expect(0, "pass", FROBENIUS)
    else:
        expect = Expect(0, "pass")
    return Instance(" ".join(full), full, expect)


# ---------------------------------------------------------------- workloads

# Dimension strata [lo, hi) of the NSY box with their quotas per round.  Time
# grows about as dim^2.1 with a spread of about 25% at a given dimension, so
# narrow strata keep the time of a round, and so of a run, nearly the same
# whatever the seed.  The box stops below dim 80 (90 for verify-mixed): a
# larger instance takes so much of a run that too few instances would decide
# its figures on a slow machine.  In nsy-check the 42-49 stratum takes the
# ranks around the median and the 65-79 one those around the 80th percentile,
# so that three samples a round decide each.
_NSY_CHECK_STRATA = ((8, 20, 1), (20, 30, 1), (30, 36, 1), (36, 42, 1), (42, 50, 3),
                     (50, 65, 1), (65, 80, 3))
# verify-mixed: the quota holds for the valid and for the corrupted half alike.
_VERIFY_STRATA = ((8, 30, 1), (30, 45, 2), (45, 60, 2), (60, 75, 2), (75, 90, 1))


def _nsy_check_workload() -> Workload:
    strata = tuple(
        (quota, tuple(_nsy_check(*p) for p in _nsy_box(lo, hi)))
        for lo, hi, quota in _NSY_CHECK_STRATA
    )
    return Workload(
        "nsy-check",
        strata,
        baseline=_nsy_check(5, 5, (3, 2, 3, 2, 3)),  # dim 169, outside the strata
        warmup=_nsy_check(1, 3, (2,)),
        tail_pct=80,
        trace_rounds=1,
        max_rounds=1000,
    )


def _verify_mixed_workload() -> Workload:
    # As many valid as corrupted instances per stratum per round.  The two
    # halves of a stratum's population are disjoint, so no algebra repeats.
    strata = []
    for lo, hi, quota in _VERIFY_STRATA:
        box = _nsy_box(lo, hi)
        rng = random.Random(f"verify-mixed/split/{lo}")
        rng.shuffle(box)
        half = len(box) // 2
        strata.append((quota, tuple(_verify(*p, False) for p in box[:half])))
        strata.append((quota, tuple(_verify(*p, True) for p in box[half:])))
    return Workload(
        "verify-mixed",
        tuple(strata),
        baseline=None,
        warmup=_verify(1, 3, (2,), False),
        tail_pct=85,
        trace_rounds=1,
        max_rounds=18,  # every round's input files are written at set-up
    )


def _groupoid_workload() -> Workload:
    structures = []  # (dim, argv, objects)
    for k in range(2, 7):
        structures.append((k * k, ("groupoid", "--pair-objects", str(k)), k))
    for k, m in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                 (3, 2), (3, 3), (3, 4), (4, 2)):
        structures.append((k * k * m, ("groupoid", "--objects", str(k), "--group", f"cyclic:{m}"), k))
    for m in range(2, 17):
        structures.append((m, ("group", "--cyclic", str(m)), 1))
    strata = tuple(
        (quota, tuple(
            _whopf(argv, op, objects)
            for dim, argv, objects in structures if lo <= dim < hi
            for op in ("check", "integrals", "frobenius")
        ))
        for lo, hi, quota in ((1, 10, 11), (10, 20, 11), (20, 37, 9))
    )
    return Workload(
        "whopf-groupoid",
        strata,
        baseline=_whopf(("groupoid", "--pair-objects", "6"), "check", 6),
        warmup=_whopf(("group", "--cyclic", "1"), "check", 1),
        tail_pct=80,
        trace_rounds=1,
        max_rounds=1000,
    )


def _qtg_dim(token: str) -> int:
    """Dimension of a --L or --B argument: trivial, cyclic:k or matrix:d."""
    kind, _, k = token.partition(":")
    return 1 if kind == "trivial" else int(k) ** (2 if kind == "matrix" else 1)


def _qtg_workload() -> Workload:
    # QTG over L and B has dimension dim L * (dim B)^2.
    combos = [(f"cyclic:{k}" if k > 1 else "trivial", "cyclic:2") for k in range(1, 7)]
    combos += [("trivial", "cyclic:3"), ("cyclic:2", "cyclic:3"), ("cyclic:3", "cyclic:3"),
               ("trivial", "cyclic:4"), ("trivial", "matrix:2"), ("cyclic:2", "matrix:2")]
    strata = []
    for lo, hi, quota in ((1, 10, 3), (10, 20, 5), (20, 33, 4)):
        members = []
        for L, B in combos:
            dim_b = _qtg_dim(B)
            if not lo <= _qtg_dim(L) * dim_b * dim_b < hi:
                continue
            argv = ("qtg", "--L", L, "--B", B)
            members += [_whopf(argv, op, dim_b) for op in ("check", "integrals", "frobenius")]
        strata.append((quota, tuple(members)))
    return Workload(
        "whopf-qtg",
        tuple(strata),
        baseline=_whopf(("qtg", "--L", "cyclic:3", "--B", "cyclic:3"), "frobenius", 3),
        warmup=_whopf(("qtg", "--L", "trivial", "--B", "cyclic:1"), "frobenius", 1),
        tail_pct=65,
        trace_rounds=1,
        max_rounds=1000,
    )


WORKLOADS = {w.name: w for w in (
    _nsy_check_workload(),
    _verify_mixed_workload(),
    _groupoid_workload(),
    _qtg_workload(),
)}


# ---------------------------------------------------------------- oracle


def check_output(expect: Expect, rc, stdout: str) -> str | None:
    """None when the output is what a correct frobkit prints, else the reason."""
    if rc != expect.exit_code:
        return f"exit {rc!r}, expected {expect.exit_code}"
    lines = stdout.splitlines()
    marks = [line.split(" ", 1)[0] for line in lines if line.startswith("[")]
    if expect.checks == "pass" and (not marks or any(m != "[PASS]" for m in marks)):
        return "expected every check to pass"
    if expect.checks == "fail" and "[FAIL]" not in marks:
        return "expected a failed check"
    if expect.checks == "none" and marks:
        return "unexpected check lines"
    if expect.classification is not None and f"classification: {expect.classification}" not in lines:
        return f"expected classification {expect.classification}"
    if expect.integral_dim is not None:
        for side in ("I^L", "I^R"):
            if f"{side} dimension {expect.integral_dim}:" not in lines:
                return f"expected {side} dimension {expect.integral_dim}"
    return None
