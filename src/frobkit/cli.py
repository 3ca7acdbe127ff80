"""Command-line front end.

Subcommands:

    frobkit nsy <build|table|delta|counit|check|sweep> n=2 ell=2 m=1,1
    frobkit whopf <groupoid|group|qtg|FILE> [check|integrals|frobenius] [flags]
    frobkit whopf check FILE
    frobkit verify <FILE|->

Exit codes: 0 all checks pass, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys

from . import __version__
from .errors import (
    ConstructionError,
    InputError,
    InternalConsistencyError,
    PreconditionError,
)
from .exactlin import ONE, Vec, scalar_to_str
from .finalg import (
    Classification,
    ComultData,
    VerificationReport,
    _vec_to_json,
    check_bimodule,
    check_casimir_of_delta,
    check_coassoc,
    classify_checks,
    classify_report,
    comult_from_json,
    comult_to_json_str,
    counit_failures,
    dump_json,
    solve_counit,
)
from . import nsy as nsy_mod
from .nsy import NSYParams
from .whopf import (
    DEFAULT_INTEGRAL_SEED,
    check_weak_hopf,
    connected_groupoid,
    cyclic_group_table,
    find_nondegenerate_integral,
    frobenius_from_integral,
    groupoid_algebra,
    groupoid_from_json,
    hopf_group_algebra,
    integral_space,
    pair_groupoid,
    qtg_build,
    qtg_frobenius,
    QTGInput,
    separable_group_algebra,
    separable_matrix_algebra,
    trivial_action,
    trivial_hopf,
    weak_hopf_from_json,
    weak_hopf_to_json_str,
)

# the flags of each whopf source; --group (the vertex group of a connected
# groupoid) only with --objects
_SOURCE_FLAGS = {
    "groupoid": {"--json", "--pair-objects", "--objects", "--group"},
    "group": {"--cyclic"},
    "qtg": {"--L", "--B"},
}
_VALUE_FLAGS = {"--format", "--output", "--seed"}.union(*_SOURCE_FLAGS.values())

# Work bounds, sized in closed form before anything is built: the dimension
# of an NSY algebra (n=8 ell=8 m=6,...,6 has 2,304), the points of a sweep
# grid and, before any instance runs, their sum of dim^2, and the basis pairs
# a source multiplies: nonzero NSY products, composable pairs, or dim^2 (QTG).
_MAX_NSY_DIM = 2_500
_MAX_SWEEP_POINTS = 10_000
_MAX_SWEEP_WORK = _MAX_NSY_DIM**2
_MAX_PAIRS = 400_000

_FORMATS = {"json", "markdown", "csv"}


def _split_args(tokens: list[str]) -> tuple[list[str], dict[str, str]]:
    """Positionals and flags.  ``--format`` is validated here, before any
    work, and defaults to markdown."""
    positionals: list[str] = []
    flags: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.startswith("--"):
            if tok not in _VALUE_FLAGS:
                raise InputError(f"unknown flag {tok}")
            if i + 1 >= len(tokens):
                raise InputError(f"flag {tok} needs a value")
            if tok in flags:
                raise InputError(f"flag {tok} given more than once")
            flags[tok] = tokens[i + 1]
            i += 2
        else:
            positionals.append(tok)
            i += 1
    fmt = flags.setdefault("--format", "markdown")
    if fmt not in _FORMATS:
        raise InputError(f"unknown format {fmt!r}; use json, markdown or csv")
    return positionals, flags


def _reject_foreign(flags: dict[str, str], own: set[str], where: str) -> None:
    """InputError for the first flag, in sorted order, that is neither in
    ``own`` nor --format or --output: a flag of another command is an error,
    not silently dropped."""
    foreign = sorted(set(flags) - own - {"--format", "--output"})
    if foreign:
        raise InputError(f"flag {foreign[0]} does not apply to {where}")


def _get_seed(flags: dict[str, str]) -> int:
    raw = flags.get("--seed")
    if raw is None:
        return DEFAULT_INTEGRAL_SEED
    try:
        seed = int(raw)
    except ValueError:
        raise InputError(f"bad seed {raw!r}") from None
    if seed < 0:
        raise InputError("seed must be non-negative")
    return seed


def _emit(text: str, flags: dict[str, str]) -> None:
    out = flags.get("--output")
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _fmt_vec(v: Vec, labels: list[str]) -> str:
    items = v.items()
    if not items:
        return "0"
    parts = []
    for k, c in items:
        parts.append(labels[k] if c == ONE else f"{scalar_to_str(c)}*{labels[k]}")
    return " + ".join(parts)


def _table(fmt: str, header: list, rows, tail=()) -> str:
    """``header`` and ``rows`` as csv, or as a markdown pipe table followed by ``tail``."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    rows = [header, ["---"] * len(header), *rows]
    lines = ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join([*lines, *tail]) + "\n"


def _render(
    flags: dict[str, str],
    command: str,
    seed: int | None,
    fields: dict,
    report: VerificationReport | None = None,
    lines=(),
) -> int:
    """Write a command's result in the ``--format`` of ``flags`` and return
    its exit code: 1 iff a check of ``report`` failed.

    json is the envelope (tool, version, command, seed) with ``fields`` and the
    report's checks; csv is the report's check table, so a command without a
    report has no csv output; markdown is the report's lines, then ``lines``.
    """
    fmt = flags["--format"]
    if fmt == "json":
        if report is not None:
            fields = {**fields, "checks": report.to_json()}
        text = dump_json(
            {"tool": "frobkit", "version": __version__, "command": command, "seed": seed, **fields}
        )
    elif fmt == "csv":
        if report is None:
            raise InputError(
                f"{command} has no check table for --format csv; use json or markdown"
            )
        rows = [[c.name, str(c.passed).lower()] for c in report.checks]
        text = _table(fmt, ["check", "passed"], rows)
    else:
        head = report.lines() if report is not None else []
        text = "\n".join([*head, *lines]) + "\n"
    _emit(text, flags)
    return 0 if report is None or report.passed else 1


# ---------------------------------------------------------------- nsy

_NSY_ACTIONS = ("build", "table", "delta", "counit", "check", "sweep")


def _parse_nsy_params(tokens: list[str]) -> dict[str, str]:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise InputError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key in params:
            raise InputError(f"parameter {key} given more than once")
        params[key] = val
    return params


def _nsy_params_from(params: dict[str, str]) -> NSYParams:
    try:
        n = int(params["n"])
        ell = int(params["ell"])
        mults = tuple(int(x) for x in params["m"].split(","))
    except KeyError as exc:
        raise InputError(f"missing parameter {exc.args[0]}") from None
    except ValueError:
        raise InputError("n, ell must be integers and m a comma list of integers") from None
    return NSYParams(n, ell, mults)


def cmd_nsy(args: list[str]) -> int:
    positionals, flags = _split_args(args)
    _reject_foreign(flags, set(), "nsy")
    if not positionals:
        raise InputError(f"nsy needs an action: {', '.join(_NSY_ACTIONS)}")
    action, rest = positionals[0], positionals[1:]
    if action not in _NSY_ACTIONS:
        raise InputError(f"unknown nsy action {action!r}")
    params = _parse_nsy_params(rest)
    if action == "sweep":
        return _nsy_sweep(params, flags)
    known = {"n", "ell", "m"}
    extra = set(params) - known
    if extra:
        raise InputError(f"unknown parameters: {', '.join(sorted(extra))}")
    p = _nsy_params_from(params)
    dim = nsy_mod.nsy_dimension(p)
    if dim > _MAX_NSY_DIM:
        raise InputError(f"NSY algebra of dimension {dim} is above the bound {_MAX_NSY_DIM}")
    _bound_pairs(_nsy_products(p), f"NSY algebra of dimension {dim}")

    algebra = nsy_mod.nsy_build(p)
    labels = algebra.labels
    fmt = flags["--format"]
    if action == "table":
        rows = (algebra.monomial_table.get(x, {}) for x in range(dim))
        cells = [[labels[row[y]] if y in row else "0" for y in range(dim)] for row in rows]
        if fmt == "json":
            text = dump_json({"labels": labels, "cells": cells})
        else:
            text = _table(fmt, ["*", *labels], [[x, *row] for x, row in zip(labels, cells)])
        _emit(text, flags)
        return 0

    comult = nsy_mod.nsy_delta(p, algebra)
    if action == "delta":
        cols = (comult.delta.col_terms(j) for j in range(dim))
        terms = {
            x: [[labels[t // dim], labels[t % dim], scalar_to_str(v)] for t, v in col]
            for x, col in zip(labels, cols)
        }
        if fmt == "json":
            text = dump_json({"delta": terms})
        elif fmt == "csv":
            rows = [[x, *t] for x, ts in terms.items() for t in ts]
            text = _table(fmt, ["element", "left", "right", "coeff"], rows)
        else:
            sums = (" + ".join(f"{l} (x) {r}" for l, r, _ in ts) or "0" for ts in terms.values())
            text = _table(fmt, ["element", "Delta(element)"], zip(terms, sums))
        _emit(text, flags)
        return 0

    if action == "build":
        eps = nsy_mod.nsy_epsilon(p)
        _emit(comult_to_json_str(ComultData(algebra, comult.delta, eps)), flags)
        return 0

    params_json = {"n": p.n, "ell": p.ell, "m": list(p.mults)}
    if action == "counit":
        eps = solve_counit(comult)
        if eps is None:
            lines = ["counit: none"]
            cand = nsy_mod.counit_candidate(p)
            for j, lcol, rcol in counit_failures(comult, cand):
                lines.append(
                    f"closed-form candidate fails at {labels[j]}: "
                    f"(eps(x)id)Delta = {_fmt_vec(lcol, labels)}, "
                    f"(id(x)eps)Delta = {_fmt_vec(rcol, labels)}"
                )
                break
        else:
            lines = [f"counit: {_fmt_vec(eps, labels)}"]
        fields = {
            "params": params_json,
            "counit": None if eps is None else _vec_to_json(eps),
            "counit_unique": eps is not None,
            "frobenius_criterion": nsy_mod.is_frobenius(p),
        }
        return _render(flags, "nsy counit", None, fields, lines=lines)

    outcome = classify_report(comult)  # action == "check"
    cls = outcome.classification.value
    fields = {"params": params_json, "dim": dim, "classification": cls}
    report = outcome.report.merged(check_casimir_of_delta(comult))
    return _render(flags, "nsy check", None, fields, report, [f"classification: {cls}"])


def _nsy_sweep(params: dict[str, str], flags: dict[str, str]) -> int:
    try:
        nmax = int(params.get("nmax", "3"))
        lmax = int(params.get("lmax", "3"))
        mmax = int(params.get("mmax", "2"))
    except ValueError:
        raise InputError("sweep bounds must be integers") from None
    extra = set(params) - {"nmax", "lmax", "mmax"}
    if extra:
        raise InputError(f"unknown parameters: {', '.join(sorted(extra))}")
    # sum_{n <= nmax} lmax mmax^n points, summed until the bound is passed,
    # then their dim^2, summed point by point as the grid is walked, before
    # any instance runs; sweep_params refuses bounds below 1
    sizes = itertools.accumulate(lmax * mmax**n for n in range(1, nmax + 1))
    if min(nmax, lmax, mmax) >= 1 and any(s > _MAX_SWEEP_POINTS for s in sizes):
        raise InputError(f"sweep grid has more than {_MAX_SWEEP_POINTS} points")
    grid, work = [], 0
    for p in nsy_mod.sweep_params(nmax, lmax, mmax):
        dim = nsy_mod.nsy_dimension(p)
        work += dim * dim
        if work > _MAX_SWEEP_WORK:
            raise InputError(f"sweep grid sums dim^2 to more than {_MAX_SWEEP_WORK}")
        grid.append((p, dim))
    items = []
    counts = {
        Classification.FROBENIUS.value: 0,
        Classification.NON_COUNITAL_ONLY.value: 0,
    }
    for p, dim in grid:
        comult = nsy_mod.nsy_delta(p)
        outcome = classify_report(comult)
        cls = outcome.classification.value
        counts[cls] = counts.get(cls, 0) + 1
        items.append(
            {
                "n": p.n,
                "ell": p.ell,
                "m": list(p.mults),
                "dim": dim,
                "classification": cls,
            }
        )
    fmt = flags["--format"]
    if fmt == "json":
        grid = {"nmax": nmax, "lmax": lmax, "mmax": mmax}
        return _render(
            flags, "nsy sweep", None, {"grid": grid, "items": items, "counts": counts}
        )
    sep = ";" if fmt == "csv" else ","
    rows = [{**it, "m": sep.join(map(str, it["m"]))}.values() for it in items]
    frob, only = Classification.FROBENIUS.value, Classification.NON_COUNITAL_ONLY.value
    tail = ["", f"counts: {frob}={counts[frob]} {only}={counts[only]}"]
    _emit(_table(fmt, ["n", "ell", "m", "dim", "classification"], rows, tail), flags)
    return 0


# ---------------------------------------------------------------- whopf


def _parse_source_token(raw: str, kinds: tuple[str, ...]) -> tuple[str, int | None]:
    if ":" in raw:
        kind, _, arg = raw.partition(":")
        try:
            num = int(arg)
        except ValueError:
            raise InputError(f"bad argument in {raw!r}") from None
    else:
        kind, num = raw, None
    if kind not in kinds:
        raise InputError(f"expected one of {', '.join(kinds)}, got {raw!r}")
    return kind, num


def _build_whopf_source(source: str, flags: dict[str, str]):
    """Returns (WeakHopfData, qtg_input_or_None, description).  A flag of
    another source is an error, not silently dropped."""
    own = _SOURCE_FLAGS.get(source, set())
    if "--objects" not in flags:
        own = own - {"--group"}
    _reject_foreign(flags, own | {"--seed"}, f"whopf source {source}")
    if source == "groupoid":
        if sum(f in flags for f in ("--json", "--pair-objects", "--objects")) != 1:
            raise InputError(
                "groupoid needs exactly one of --json FILE, --pair-objects N, --objects N [--group cyclic:K]"
            )
        if "--json" in flags:
            g = groupoid_from_json(_load_json(flags["--json"]))
            return groupoid_algebra(g), None, "groupoid from JSON"
        if "--pair-objects" in flags:
            k = _int_flag(flags, "--pair-objects")
            _bound_pairs(k**3, f"pair groupoid on {k} objects")
            return groupoid_algebra(pair_groupoid(k)), None, f"pair groupoid on {k} objects"
        k = _int_flag(flags, "--objects")
        grp = flags.get("--group", "cyclic:1")
        kind, order = _parse_source_token(grp, ("cyclic",))
        if order is None:
            raise InputError(f"--group {grp!r} needs a size, e.g. cyclic:2")
        _bound_pairs(k**3 * max(order, 0) ** 2, f"connected groupoid on {k} objects with Z/{order}")
        return (
            groupoid_algebra(connected_groupoid(k, cyclic_group_table(order))),
            None,
            f"connected groupoid on {k} objects with Z/{order}",
        )
    if source == "group":
        if "--cyclic" not in flags:
            raise InputError("group needs --cyclic N")
        k = _int_flag(flags, "--cyclic")
        _bound_pairs(max(k, 0) ** 2, f"group algebra k(Z/{k})")
        return hopf_group_algebra(cyclic_group_table(k)), None, f"group algebra k(Z/{k})"
    if source == "qtg":
        l_raw = flags.get("--L", "trivial")
        b_raw = flags.get("--B")
        if b_raw is None:
            raise InputError("qtg needs --B matrix:D or --B cyclic:N")
        lkind, lnum = _parse_source_token(l_raw, ("trivial", "cyclic"))
        if lkind == "trivial" and lnum is not None:
            raise InputError(f"--L {l_raw!r} takes no size; use --L trivial")
        if lkind == "cyclic" and lnum is None:
            raise InputError(f"--L {l_raw!r} needs a size, e.g. cyclic:2")
        bkind, bnum = _parse_source_token(b_raw, ("matrix", "cyclic"))
        if bnum is None:
            raise InputError(f"--B {b_raw!r} needs a size, e.g. matrix:2")
        desc = f"quantum transformation groupoid ({l_raw}, {b_raw})"
        dim_b = max(bnum, 0) ** (2 if bkind == "matrix" else 1)
        _bound_pairs((max(lnum or 1, 0) * dim_b * dim_b) ** 2, desc)
        L = trivial_hopf() if lnum is None else hopf_group_algebra(cyclic_group_table(lnum))
        if bkind == "matrix":
            B, e, omega = separable_matrix_algebra(bnum)
        else:
            B, e, omega = separable_group_algebra(cyclic_group_table(bnum))
        q = QTGInput(L, B, e, omega, trivial_action(B, L))
        return qtg_build(q), q, desc
    # otherwise: a file with WeakHopfData JSON
    return weak_hopf_from_json(_load_json(source)), None, f"data from {source}"


def _nsy_products(p: NSYParams) -> int:
    """The nonzero products X[i,j] X[a,b] of nsy_build, a = i+j and b < ell-j:
    m_i m_a times the sum of m over that window of the cycle, read off the
    prefix sums pre of the doubled cycle.  n*ell <= dim, so this loop is short."""
    m, n, ell = p.mults, p.n, p.ell
    pre = [0, *itertools.accumulate(m * 2)]
    return sum(
        m[i] * m[a] * ((ell - j) // n * pre[n] + pre[a + (ell - j) % n] - pre[a])
        for i, j in itertools.product(range(n), range(ell)) for a in [(i + j) % n]
    )


def _bound_pairs(pairs: int, source: str) -> None:
    if pairs > _MAX_PAIRS:
        raise InputError(f"{source} multiplies {pairs} basis pairs, more than {_MAX_PAIRS}")


def _int_flag(flags: dict[str, str], name: str) -> int:
    try:
        return int(flags[name])
    except ValueError:
        raise InputError(f"{name} must be an integer") from None


def _load_json(path: str) -> dict:
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"JSON parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # past the int-digit or nesting limit
        raise InputError(f"JSON parse error in {path}: {exc}") from None


def cmd_whopf(args: list[str]) -> int:
    positionals, flags = _split_args(args)
    if not positionals:
        raise InputError("whopf needs a source (groupoid, group, qtg, or a JSON file)")
    ops = {"check", "integrals", "frobenius"}
    first = positionals[0]
    if first in ops:  # whopf OP FILE
        op = first
        if len(positionals) < 2:
            raise InputError(f"whopf {first} needs an input file")
        source = positionals[1]
    else:  # whopf groupoid|group|qtg|FILE [OP]
        source = first
        op = positionals[1] if len(positionals) > 1 else "check"
    if len(positionals) > 2:
        raise InputError(f"unexpected arguments: {' '.join(positionals[2:])}")
    if op not in ops:
        raise InputError(f"unknown whopf operation {op!r}")

    seed = _get_seed(flags)
    h, qtg_input, desc = _build_whopf_source(source, flags)
    labels = h.algebra.labels
    axioms = check_weak_hopf(h)

    if op == "check":
        if "--output" not in flags:
            return _render(flags, "whopf check", seed, {"source": desc, "dim": h.dim}, axioms)
        _emit(weak_hopf_to_json_str(h), flags)
    if not axioms.passed:
        raise PreconditionError(f"{desc} fails weak Hopf axiom {axioms.failures()[0].name}")
    if op == "check":
        return 0

    if op == "integrals":
        left = integral_space(h, "left").basis
        right = integral_space(h, "right").basis
        lines = [f"I^L dimension {len(left)}:"]
        lines += [f"  {_fmt_vec(b, labels)}" for b in left]
        lines.append(f"I^R dimension {len(right)}:")
        lines += [f"  {_fmt_vec(b, labels)}" for b in right]
        fields = {
            "source": desc,
            "left": [_vec_to_json(b) for b in left],
            "right": [_vec_to_json(b) for b in right],
        }
        return _render(flags, "whopf integrals", seed, fields, lines=lines)

    # op == "frobenius"
    if qtg_input is not None:
        comult = qtg_frobenius(qtg_input, h)
        note = "closed-form comultiplication verified against the integral construction"
    else:
        comult = frobenius_from_integral(h, find_nondegenerate_integral(h, seed=seed)[0])
        note = None
    report = check_coassoc(comult).merged(check_bimodule(comult))
    eps = comult.counit
    classification = classify_checks(report, eps).value
    lines = [f"classification: {classification}"]
    if eps is not None:
        lines.append(f"counit: {_fmt_vec(eps, labels)}")
    if note:
        lines.append(note)
    lines.append(f"frobkit {__version__}, seed {seed}")
    fields = {
        "source": desc,
        "found": True,
        "classification": classification,
        "counit": None if eps is None else _vec_to_json(eps),
        "note": note,
    }
    return _render(flags, "whopf frobenius", seed, fields, report, lines)


# ---------------------------------------------------------------- verify


def cmd_verify(args: list[str]) -> int:
    positionals, flags = _split_args(args)
    _reject_foreign(flags, set(), "verify")
    if len(positionals) != 1:
        raise InputError("verify needs exactly one input file (or - for stdin)")
    comult = comult_from_json(_load_json(positionals[0]))
    outcome = classify_report(comult)
    supplied = comult.counit
    # a counit is unique when it exists, so a supplied one must be the solved one
    if supplied is not None and outcome.report.passed and supplied != outcome.counit:
        j = next(counit_failures(comult, supplied))[0]
        raise PreconditionError(f"supplied counit fails the counit identity at column {j}")
    cls = outcome.classification.value
    lines = [f"classification: {cls}"]
    if outcome.counit is not None:
        lines.append(f"counit: {_fmt_vec(outcome.counit, comult.algebra.labels)}")
    fields = {
        "classification": cls,
        "counit": None if outcome.counit is None else _vec_to_json(outcome.counit),
        "counit_unique": outcome.counit is not None,
    }
    return _render(flags, "verify", None, fields, outcome.report, lines)


# ---------------------------------------------------------------- entry


_USAGE = """frobkit {version}
usage:
  frobkit nsy <build|table|delta|counit|check|sweep> [n=N ell=L m=M0,M1,...]
              [nmax=N lmax=L mmax=M] [--format json|markdown|csv] [--output PATH]
  frobkit whopf <groupoid|group|qtg|FILE> [check|integrals|frobenius]
              [--pair-objects N] [--cyclic N] [--objects N] [--group cyclic:K]
              [--L trivial|cyclic:N] [--B matrix:D|cyclic:N]
              [--json FILE] [--seed N] [--format ...] [--output PATH]
  frobkit whopf check FILE [--format ...] [--output PATH]
  frobkit verify <FILE|-> [--format ...] [--output PATH]
"""


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help", "help") or "--help" in args[1:]:
        sys.stdout.write(_USAGE.format(version=__version__))
        return 0 if args else 2
    cmd, rest = args[0], args[1:]
    try:
        if cmd == "nsy":
            return cmd_nsy(rest)
        if cmd == "whopf":
            return cmd_whopf(rest)
        if cmd == "verify":
            return cmd_verify(rest)
        raise InputError(f"unknown subcommand {cmd!r}")
    except (InputError, ConstructionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (PreconditionError, InternalConsistencyError) as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
