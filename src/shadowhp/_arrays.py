"""Scalar-or-array argument handling shared by the evaluation functions.

Every evaluation function takes a scalar or an array of points. It runs
one numpy body on an array of at least one dimension and returns a Python
complex for scalar input and an ndarray of the input's shape otherwise.
Validation covers the whole array and names the first offending point.

Real input stays real: as_points makes booleans, integers and floats
float64, so that points on the real line run in real arithmetic. Messages
name a point as a complex number whatever its dtype.
"""

from __future__ import annotations

import numpy as np

from shadowhp.errors import DomainError


def as_points(z) -> tuple[np.ndarray, bool]:
    """(array of z with at least one dimension, whether z was a scalar);
    float64 for booleans, integers and floats, complex128 for all else.

    Raises DomainError naming the first element that is not finite.
    """
    arr = np.asarray(z)
    arr = arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    bad = ~np.isfinite(arr)
    if bad.any():
        point = complex(first(arr, bad))
        raise DomainError(f"argument must have finite components, got {point!r}")
    return arr, scalar


def first(arr: np.ndarray, mask: np.ndarray):
    """The first element of arr (in C order) where mask holds, as a Python number."""
    return arr[mask].flat[0].item()


def unwrap(out: np.ndarray, scalar: bool):
    """Python complex for a scalar call, the array otherwise."""
    return complex(out[0]) if scalar else out
