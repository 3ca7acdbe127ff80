"""Per-layer tracing of frobkit from outside: wraps the public functions of
each module, so frobkit's source stays untouched.

A timed wrapper records calls, total time and self time (total minus the time
of wrapped calls made inside it).  The hottest methods get count-only
wrappers, whose cost is a counter increment charged to the caller's self time.
Targets that a later version of frobkit no longer has are skipped and read 0.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (layer, attribute path) of the functions, methods and classes that get timed wrappers.
TIMED = (
    ("cli", "main"),
    ("nsy", "nsy_build"),
    ("nsy", "nsy_delta"),
    ("finalg", "check_algebra"),
    ("finalg", "check_coassoc"),
    ("finalg", "check_bimodule"),
    ("finalg", "check_casimir"),
    ("finalg", "solve_counit_full"),
    ("finalg", "casimir_comult"),
    ("finalg", "comult_from_json"),
    ("finalg", "comult_to_json"),
    ("exactlin", "LinearSystem.add"),
    ("exactlin", "LinearSystem.kernel"),
    ("exactlin", "inverse"),
    ("whopf.core", "check_weak_hopf"),
    ("whopf.core", "is_hopf"),
    ("whopf.core", "integral_space"),
    ("whopf.core", "find_nondegenerate_integral"),
    ("whopf.core", "frobenius_from_integral"),
    ("whopf.core", "iterated_comult"),
    ("whopf.core", "epsilon_s"),
    ("whopf.core", "epsilon_t"),
    ("whopf.core", "psi_map"),
    ("whopf.groupoid", "groupoid_algebra"),
    ("whopf.groupoid", "hopf_group_algebra"),
    ("whopf.qtg", "QTGInput"),
    ("whopf.qtg", "qtg_build"),
    ("whopf.qtg", "qtg_integral"),
    ("whopf.qtg", "qtg_frobenius"),
)

# Called up to millions of times per instance: counted only.
COUNTED = (
    ("finalg", "AlgebraData.mul"),
    ("finalg", "AlgebraData.basis_product"),
    ("exactlin", "Vec.items"),
)

OVERHEAD = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, path in TIMED:
        units[f"{layer}.{path}.calls"] = "count"
        units[f"{layer}.{path}.self_s"] = "s"
        units[f"{layer}.{path}.total_s"] = "s"
    for layer, path in COUNTED:
        units[f"{layer}.{path}.calls"] = "count"
    units[OVERHEAD] = "s"
    return units


class Tracer:
    """Installs wrappers on the frobkit modules currently in ``sys.modules``.

    Wrappers stay until those modules are dropped; load a fresh copy of
    frobkit for untraced work.
    """

    def __init__(self):
        self.values = dict.fromkeys(metric_units(), 0)
        self.missing: list[str] = []
        self._children: list[float] = []  # time of wrapped calls inside each open timed call

    def install(self) -> None:
        for targets, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for layer, path in targets:
                if not self._wrap(layer, path, make):
                    self.missing.append(f"{layer}.{path}")

    def _wrap(self, layer: str, path: str, make) -> bool:
        module = sys.modules.get(f"frobkit.{layer}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None)
        if original is None:
            return False
        key = f"{layer}.{path}"
        if isinstance(original, type):  # a class: time its constructor
            owner, attr, original = original, "__init__", original.__init__
        wrapper = make(key, original)
        setattr(owner, attr, wrapper)
        if owner is module:  # rebind names other modules imported with "from ... import"
            for name, mod in list(sys.modules.items()):
                if name.startswith("frobkit") and mod is not None:
                    for gname, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, gname, wrapper)
        return True

    def _timed(self, key: str, fn):
        values, children = self.values, self._children
        calls, self_key, total_key = f"{key}.calls", f"{key}.self_s", f"{key}.total_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                values[calls] += 1
                values[total_key] += elapsed
                values[self_key] += elapsed - inner

        return wrapper

    def _counted(self, key: str, fn):
        values, calls = self.values, f"{key}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls] += 1
            return fn(*args, **kwargs)

        return wrapper
