"""``nsy table`` and ``nsy delta`` read the labels and products of nsy_build
and the columns of nsy_delta.  The reference below is the earlier rendering,
copied verbatim in substance: it walked ``basis_indices``, formatted every
label again, and took the cells from a ``multiplication_table`` and the Delta
terms from a ``delta_terms`` of its own.  Both must print the same bytes in
markdown, json and csv.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings

from frobkit import cli
from frobkit.finalg import dump_json
from frobkit.nsy import (
    NSYParams,
    _delta_blocks,
    basis_label,
    nsy_build,
    sweep_params,
)
from nsy_oracle import NSYBasisIndex, basis_indices
from test_nsy_offset_walk import nsy_params

FORMATS = ("markdown", "json", "csv")


# ---- the earlier rendering, copied verbatim ---------------------------------


def ref_delta_terms(p: NSYParams, idx: NSYBasisIndex) -> list[tuple[NSYBasisIndex, NSYBasisIndex]]:
    i, j, r, s = idx
    return [
        (NSYBasisIndex(i, jl, r, t), NSYBasisIndex(v, jr, t2, s))
        for jl, v, jr, pairs in _delta_blocks(p, i, j)
        for t, t2 in pairs
    ]


def ref_multiplication_table(p: NSYParams) -> list[list[str]]:
    alg = nsy_build(p)
    return [
        [alg.labels[row[j]] if j in row else "0" for j in range(alg.dim)]
        for row in (alg.monomial_table.get(i, {}) for i in range(alg.dim))
    ]


def ref_render(action: str, p: NSYParams, fmt: str) -> str:
    if action == "table":
        labels = [basis_label(b) for b in basis_indices(p)]
        cells = ref_multiplication_table(p)
        if fmt == "json":
            return dump_json({"labels": labels, "cells": cells})
        return cli._table(fmt, ["*", *labels], [[x, *row] for x, row in zip(labels, cells)])
    terms = {
        basis_label(idx): [[basis_label(l), basis_label(r), "1"] for l, r in ref_delta_terms(p, idx)]
        for idx in basis_indices(p)
    }
    if fmt == "json":
        return dump_json({"delta": terms})
    if fmt == "csv":
        rows = [[x, *t] for x, ts in terms.items() for t in ts]
        return cli._table(fmt, ["element", "left", "right", "coeff"], rows)
    sums = (" + ".join(f"{l} (x) {r}" for l, r, _ in ts) or "0" for ts in terms.values())
    return cli._table(fmt, ["element", "Delta(element)"], zip(terms, sums))


# ---- the differential tests -------------------------------------------------


def assert_renders_as_before(p: NSYParams) -> None:
    params = [f"n={p.n}", f"ell={p.ell}", "m=" + ",".join(map(str, p.mults))]
    for action in ("table", "delta"):
        for fmt in FORMATS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["nsy", action, *params, "--format", fmt]) == 0
            assert out.getvalue() == ref_render(action, p, fmt), (action, fmt)


@pytest.mark.parametrize("p", sweep_params(3, 3, 2), ids=str)
def test_table_and_delta_render_as_before(p):
    assert_renders_as_before(p)


@settings(max_examples=40, deadline=None)
@given(nsy_params())
def test_table_and_delta_render_as_before_drawn(p):
    assert_renders_as_before(p)
