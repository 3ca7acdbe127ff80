"""Shared fixtures: the groupoid fixture set (and the disjoint union that
builds its disconnected members), Hopf group algebras, the three quantum
transformation groupoid instances used across the suite, and a spy on the
Psi_L solves of the integral search."""

from __future__ import annotations

import pytest

from frobkit.whopf import (
    GroupoidData,
    Morphism,
    QTGInput,
    connected_groupoid,
    cyclic_group_table,
    group_groupoid,
    groupoid_algebra,
    hopf_group_algebra,
    pair_groupoid,
    qtg_build,
    separable_group_algebra,
    separable_matrix_algebra,
    trivial_action,
    trivial_hopf,
)
from frobkit.whopf import core as whopf_core


def disjoint_union(a: GroupoidData, b: GroupoidData) -> GroupoidData:
    """Disjoint union; no morphisms connect the two pieces."""
    off_obj = len(a.objects)
    off_mor = a.num_morphisms
    objects = [f"L.{x}" for x in a.objects] + [f"R.{x}" for x in b.objects]
    morphisms = [Morphism(f"L.{m.name}", m.src, m.tgt) for m in a.morphisms]
    morphisms += [
        Morphism(f"R.{m.name}", m.src + off_obj, m.tgt + off_obj)
        for m in b.morphisms
    ]
    compose = dict(a.compose)
    for (g, h), k in b.compose.items():
        compose[(g + off_mor, h + off_mor)] = k + off_mor
    inv = list(a.inv) + [k + off_mor for k in b.inv]
    return GroupoidData(objects, morphisms, compose, inv)


def build_groupoid_fixture_set():
    """Groupoids with <= 3 objects and <= 2 parallel morphisms per hom-fibre."""
    z2 = cyclic_group_table(2)
    point = pair_groupoid(1)
    fixtures = {
        "point": point,
        "two_points": disjoint_union(point, point),
        "three_points": disjoint_union(disjoint_union(point, point), point),
        "z2_loop": group_groupoid(z2),
        "pair2": pair_groupoid(2),
        "pair3": pair_groupoid(3),
        "pair2_x_z2": connected_groupoid(2, z2),
        "pair3_x_z2": connected_groupoid(3, z2),
        "z2_plus_point": disjoint_union(group_groupoid(z2), point),
        "pair2_plus_point": disjoint_union(pair_groupoid(2), point),
    }
    return fixtures


@pytest.fixture(scope="session")
def groupoid_fixtures():
    return build_groupoid_fixture_set()


@pytest.fixture(scope="session")
def groupoid_algebras(groupoid_fixtures):
    return {name: groupoid_algebra(g) for name, g in groupoid_fixtures.items()}


@pytest.fixture(scope="session")
def hopf_group_algebras():
    return {n: hopf_group_algebra(cyclic_group_table(n)) for n in range(1, 5)}


def build_qtg_instances():
    """The three instances: (k, M_2), (k, kZ/2), (kZ/2, kZ/2, trivial)."""
    out = {}
    L = trivial_hopf()
    B, e, om = separable_matrix_algebra(2)
    out["k_mat2"] = QTGInput(L, B, e, om, trivial_action(B, L))
    B2, e2, om2 = separable_group_algebra(cyclic_group_table(2))
    out["k_kz2"] = QTGInput(L, B2, e2, om2, trivial_action(B2, L))
    L2 = hopf_group_algebra(cyclic_group_table(2))
    out["kz2_kz2"] = QTGInput(L2, B2, e2, om2, trivial_action(B2, L2))
    return out


@pytest.fixture(scope="session")
def qtg_instances():
    return build_qtg_instances()


@pytest.fixture(scope="session")
def qtg_built(qtg_instances):
    return {name: qtg_build(q) for name, q in qtg_instances.items()}


@pytest.fixture
def psi_solve_calls(monkeypatch):
    """The candidates L whose Psi_L the integral search solves, in order."""
    calls = []
    psi_solve = whopf_core._psi_solve

    def spy(h, candidate):
        calls.append(candidate)
        return psi_solve(h, candidate)

    monkeypatch.setattr(whopf_core, "_psi_solve", spy)
    return calls
