"""Arithmetic on a quantity that is a float, or a 1-D array over a swept grid.

A sweep or a figure evaluates the chain once with one field (a length, the
pump power, the demux loss or the dark probability) held as an array.
numpy's +, -, * and / round exactly as Python's float operators do, so the
plain operators give the same bits per element.  Its transcendental
functions do not: on x86-64 numpy's SIMD ``exp``, ``power``, ``expm1``
and ``log1p`` differ from the C library's in the last bit on a few percent
of inputs, and even ``arr**2`` (computed as ``x * x``) differs from
``float**2`` (the C library's ``pow``) on about 0.1% of them.  So every
power, exponential and branch on a swept quantity goes through a function
made by ``elementwise``, calling the same scalar function on each element.
numpy is not imported here: no array exists before it is loaded, so floats
alone never load it, and each ufunc is built at the first array.
"""

from __future__ import annotations

import functools
import math
import sys


def _is_array(x) -> bool:
    return type(x) is not float and isinstance(x, getattr(sys.modules.get("numpy"), "ndarray", ()))


def elementwise(f, nin: int):
    """``f`` of ``nin`` arguments, called directly on floats and on each element of an array.

    With an array argument the result is a float array of
    ``np.frompyfunc(f, nin, 1)``; with floats alone it is ``f`` itself, so a
    scalar call returns the same Python float at the cost of one call.
    """
    @functools.cache
    def ufunc():
        return sys.modules["numpy"].frompyfunc(f, nin, 1)

    if nin == 1:
        def call(x):
            return ufunc()(x).astype(float) if _is_array(x) else f(x)
    else:
        def call(x, y):
            if _is_array(x) or _is_array(y):
                return ufunc()(x, y).astype(float)
            return f(x, y)
    return call


exp = elementwise(math.exp, 1)
expm1 = elementwise(math.expm1, 1)
log1p = elementwise(math.log1p, 1)
power = elementwise(pow, 2)


def holds(ok) -> bool:
    """Whether a check holds: a scalar check as it is, an array check at every element."""
    return ok.all() if _is_array(ok) else ok


def db_to_linear(loss_db):
    """Power transmittance for a loss stated in dB: ``10**(-loss_db / 10)``."""
    return power(10.0, -loss_db / 10.0)
