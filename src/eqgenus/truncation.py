"""The certified truncation of a numeric product prod (1 + d).

``product_keys`` serves ``theta``'s evaluator and the integrands of
``numeric``, whose backend forms its own q-products, so the ``jacobi``
and ``zeros`` commands read it without compiling ``theta``.  The module
imports only ``kinds`` of the package.
"""
from __future__ import annotations

from math import ceil, expm1, inf, log, log1p

from .kinds import NonconvergentDomain


def product_keys(first: int, dev: float, log_q: float, eps: float) -> range:
    """The keys first, first + 8, ... to keep of a product prod (1 + d)
    whose factors at key first + 8 i deviate from 1 by at most dev |q|^i
    in total, log_q = log |q| = -2 pi Im tau < 0.

    From the first left-out step I the deviations sum to at most
    S = dev |q|^I / (1 - |q|), and |prod (1 + d_j) - 1| <= exp(S) - 1
    in any submultiplicative norm (|.| on numbers, l1 on jets); so the
    keys below the least I with S <= log1p(eps) are kept.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not (log_q < 0 and dev < inf):  # dev is a sum of absolute values
        raise NonconvergentDomain("no certified truncation at log|q|=%g, deviation %g"
                                  % (log_q, dev))
    tail = log1p(eps) * -expm1(log_q)  # the largest dev |q|^I allowed
    if dev <= tail:  # also where dev is 0
        return range(first, first, 8)
    # at least the first key, also where log_q is -inf
    count = log(tail / dev) / log_q  # a float: it may be too large for an int
    if count > 100000:
        raise NonconvergentDomain("product needs more than 100000 factors at log|q|=%g" % log_q)
    return range(first, first + 8 * (ceil(count) or 1), 8)
