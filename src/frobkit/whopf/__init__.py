"""Weak Hopf algebras: axiom verification, counital maps, integrals, the
Frobenius structure coming from a left integral, and constructors for
groupoid algebras and quantum transformation groupoids."""

from . import core, groupoid, qtg
from .core import *
from .groupoid import *
from .qtg import *

__all__ = [*core.__all__, *groupoid.__all__, *qtg.__all__]
