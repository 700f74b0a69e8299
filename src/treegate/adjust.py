"""Classical multiplicity adjustments on vectors of p-values.

Used both as bottom-up baselines over all leaves and as local corrections
within a sibling group inside the gated procedure.  All functions return a
new array aligned with the input order; adjusted values are clamped to 1.
"""

from __future__ import annotations

import numpy as np


def _as_pvalues(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d vector of p-values")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("p-values must be finite and lie in [0, 1]")
    return arr


def _stable_order(arr: np.ndarray) -> np.ndarray:
    # ties broken by original index so repeated values adjust deterministically
    return np.argsort(arr, kind="stable")


def adjust_bh(p) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values.

    Sort ascending, compute ``m * p_(i) / i``, enforce monotonicity from the
    largest rank down, and restore the original order.
    """
    arr = _as_pvalues(p)
    m = arr.size
    order = _stable_order(arr)
    ranked = (m * arr[order]) / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out


def adjust_hommel(p) -> np.ndarray:
    """Hommel adjusted p-values.

    Equivalent to closed testing with the Simes combination applied to every
    non-empty subset: the adjusted value of hypothesis ``i`` is the largest
    Simes p-value over subsets containing ``i``.  Computed in O(m^2) without
    enumerating subsets.
    """
    arr = _as_pvalues(p)
    m = arr.size
    if m == 1:
        return arr.copy()
    order = _stable_order(arr)
    ps = arr[order]
    adjusted = ps.copy()
    for size in range(m, 1, -1):
        tail = ps[m - size :]
        # Simes terms are written (size * p) / rank so they match a subset
        # oracle computing the identical expression float-for-float.
        cim = np.min((size * tail) / np.arange(1, size + 1))
        adjusted[m - size :] = np.maximum(adjusted[m - size :], cim)
        head = ps[: m - size]
        if head.size:
            adjusted[: m - size] = np.maximum(
                adjusted[: m - size], np.minimum(size * head, cim)
            )
    out = np.empty(m)
    out[order] = np.minimum(adjusted, 1.0)
    return out

