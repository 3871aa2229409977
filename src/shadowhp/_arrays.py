"""Array argument handling shared by the evaluation functions, and the
integer test shared by the range checks of counts.

Every evaluation function takes an array of points of at least one
dimension and returns an array of the input's shape; a scalar is refused
(specfun.big_f alone still takes one, as its docstring says).
Validation covers the whole array and names the first offending point.

Real input stays real: as_points makes booleans, integers and floats
float64, so that points on the real line run in real arithmetic. Messages
name a point as a complex number whatever its dtype.
"""

from __future__ import annotations

import numbers

import numpy as np

from shadowhp.errors import DomainError


def as_points(z) -> np.ndarray:
    """z as an array: float64 for booleans, integers and floats,
    complex128 for all else.

    Raises DomainError for a scalar (a 0-d array included) and naming the
    first element that is not finite.
    """
    arr = np.asarray(z)
    if arr.ndim == 0:
        value = arr.item()
        raise DomainError(
            f"points must be an array of at least one dimension, "
            f"got the scalar {value!r}: pass [{value!r}]"
        )
    arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
    bad = ~np.isfinite(arr)
    if bad.any():
        point = complex(first(arr, bad))
        raise DomainError(f"argument must have finite components, got {point!r}")
    return arr


def first(arr: np.ndarray, mask: np.ndarray):
    """The first element of arr (in C order) where mask holds, as a Python number."""
    return arr[mask].flat[0].item()


def is_count(x) -> bool:
    """Whether x is an integer, Python or numpy, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)
