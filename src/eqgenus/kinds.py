"""The tables of the four theta kinds that the exact stack reads.

The kinds themselves, each kind's pair grid (``PAIR_GRID``), the ledger
of constants kept out of rational data (``ConstantsLedger``) and the
error of a numeric evaluation outside its domain
(``NonconvergentDomain``).  They serve ``genera``, ``reference`` and
``cli`` as well as ``theta``, so the exact commands read them without
compiling the numeric evaluator.  The module imports no other module of
the package.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum


class NonconvergentDomain(Exception):
    """tau outside the upper half plane (or reduction failed)."""


class ThetaKind(Enum):
    Theta = "theta"
    Theta1 = "theta1"
    Theta2 = "theta2"
    Theta3 = "theta3"

    # members are singletons; hashing by identity keeps theta_numeric's table
    # lookups in C (Enum.__hash__ is a Python-level call)
    __hash__ = object.__hash__


class ConstantsLedger(namedtuple("ConstantsLedger", "two_pi i two", defaults=(0, 0, 0))):
    """Extracted constants: powers of 2*pi, i and 2 kept out of rational data."""

    __slots__ = ()


# (first key, sign) of each kind's pairs prod (1 + sign q^{k/8} e^{+-2 pi i v}), k += 8
PAIR_GRID = {ThetaKind.Theta: (8, -1), ThetaKind.Theta1: (8, 1),
             ThetaKind.Theta2: (4, -1), ThetaKind.Theta3: (4, 1)}
