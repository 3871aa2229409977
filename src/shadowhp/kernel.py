"""Faddeeva kernel w(z) = exp(-z^2) erfc(-iz).

w is S. G. Johnson's Faddeeva Package as shipped in scipy.special.wofz,
applied elementwise. BACKEND names it so that run records can say which
kernel produced them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import wofz

from shadowhp._arrays import first

BACKEND = "scipy"

#: largest Re(-z^2) for which the lower-half-plane term exp(-z^2) is kept
_RE_MZ2_MAX = 708.0

__all__ = ["BACKEND", "faddeeva_w"]


def faddeeva_w(z):
    """Evaluate w(z) for a scalar or an array; raises OverflowError deep in
    the lower half-plane.

    For Im z < 0, w(z) = 2 exp(-z^2) - w(-z), and exp(-z^2) overflows once
    Im(z)^2 - Re(z)^2 exceeds the double-precision exponent range, or is
    itself not representable (inf - inf far out). The error names the first
    such point. Scalar input returns a Python complex.
    """
    arr = np.asarray(z, dtype=complex)
    # an overflow here only matters in the lower half-plane, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        re_mz2 = arr.imag * arr.imag - arr.real * arr.real
    over = (arr.imag < 0.0) & ~(re_mz2 <= _RE_MZ2_MAX)
    if over.any():
        raise OverflowError(
            f"w(z) overflows at z = {first(arr, over)!r}: exp({first(re_mz2, over):.1f})"
        )
    w = wofz(arr)
    return complex(w) if arr.ndim == 0 else w
