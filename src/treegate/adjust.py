"""Classical multiplicity adjustments on vectors of p-values.

Used both as bottom-up baselines over all leaves and as local corrections
within a sibling group inside the gated procedure.  All functions return a
new array aligned with the input order; adjusted values are clamped to 1.
``hommel_rows`` and ``bh_rows`` adjust each row of a 2-d array at once; the
1-d functions are the same kernels on a single row.  ``hommel_rows`` makes
one pass per subset size over each chunk of rows; ``hommel_rejections``
gives Hommel's decisions at one level without any adjusted value, from the
same Simes minima, and ``bh_rejections`` gives BH's from one sort.
"""

from __future__ import annotations

import numpy as np

# Elements in one row chunk of the Hommel kernels (one row at least).  A
# pass over one subset size holds a few temporaries of the chunk's size.
_HOMMEL_CHUNK = 1 << 14


def _as_pvalues(p) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d vector of p-values")
    if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("p-values must be finite and lie in [0, 1]")
    return arr


def _sorted_rows(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ties broken by original index so repeated values adjust deterministically
    order = np.argsort(arr, axis=-1, kind="stable")
    return order, np.take_along_axis(arr, order, axis=-1)


def _unsorted_rows(order: np.ndarray, adjusted: np.ndarray) -> np.ndarray:
    out = np.empty_like(adjusted)
    np.put_along_axis(out, order, np.minimum(adjusted, 1.0), axis=-1)
    return out


def bh_rows(p: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values of each row of a (rows, m)
    array of valid p-values."""
    order, ps = _sorted_rows(p)
    m = ps.shape[-1]
    ranked = (m * ps) / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[..., ::-1], axis=-1)[..., ::-1]
    return _unsorted_rows(order, adjusted)


def bh_rejections(p: np.ndarray, alpha: float) -> np.ndarray:
    """``bh_rows(p) <= alpha`` for a (rows, m) array of valid p-values,
    from one sort per row and without any adjusted value.

    With ``k`` the largest rank whose ``(m * p_(k)) / k`` (``bh_rows``'s
    expression) is at most ``alpha``, a value is rejected exactly when it
    is at most ``p_(k)``: the adjusted value at rank ``i`` is the minimum of
    that expression over ranks ``i`` and up, and a value tied with
    ``p_(k)`` at a higher rank would itself pass at that rank.
    """
    ps = np.sort(p, axis=-1)
    m = ps.shape[-1]
    passed = (m * ps) / np.arange(1, m + 1) <= alpha
    k = m - 1 - np.argmax(passed[:, ::-1], axis=-1)  # largest passing rank, 0-based
    cut = np.where(passed.any(axis=-1), ps[np.arange(len(ps)), k], -np.inf)
    return p <= cut[:, None]


def _simes_minima(tail: np.ndarray) -> np.ndarray:
    """Simes minima ``C_s = min_r (s * p_(r)) / r`` of the rows of sorted
    values ``tail`` of width ``s``, the one expression of both Hommel kernels."""
    s = tail.shape[-1]
    return ((s * tail) / np.arange(1.0, s + 1)).min(axis=-1)


def hommel_rows(p: np.ndarray) -> np.ndarray:
    """Hommel adjusted p-values of each row of a (rows, m) array of valid
    p-values.

    With the row sorted ascending, one pass per subset size ``s`` from
    ``m`` down to 2 takes the Simes minimum ``C_s`` of the ``s`` largest
    values, raises those values to at least ``C_s``, and every smaller
    ``p_j`` to at least ``min(s * p_j, C_s)``.  Rows go in chunks of
    ``_HOMMEL_CHUNK`` elements.
    """
    order, ps = _sorted_rows(p)
    rows, m = ps.shape
    adjusted = ps.copy()
    n_rows = max(1, _HOMMEL_CHUNK // m)
    for lo in range(0, rows, n_rows):
        block = ps[lo : lo + n_rows]
        best = adjusted[lo : lo + n_rows]
        for s in range(m, 1, -1):
            cut = m - s  # the s largest values start here
            simes = _simes_minima(block[:, cut:])[:, None]
            np.maximum(best[:, cut:], simes, out=best[:, cut:])
            np.maximum(best[:, :cut], np.minimum(s * block[:, :cut], simes), out=best[:, :cut])
    return _unsorted_rows(order, adjusted)


def hommel_rejections(p: np.ndarray, alpha: float) -> np.ndarray:
    """``hommel_rows(p) <= alpha`` for a (rows, m) array of valid p-values,
    without computing any adjusted value.

    Hommel's ``h`` is the largest size ``s >= 2`` whose Simes minimum
    ``C_s`` (from ``_simes_minima``, as in ``hommel_rows``) exceeds
    ``alpha``, or 0 if there is none.  An adjusted value is at most
    ``alpha`` exactly when ``p_j <= alpha`` and ``min(s * p_j, C_s) <=
    alpha`` for every size; sizes above ``h`` pass by ``C_s``, and since
    ``s * p_j`` rounds monotonically in ``s``, the rest pass exactly when
    ``h * p_j <= alpha``.  Sizes are scanned from ``m`` down, and a row
    stops at its first size with ``C_s > alpha``: one size when the global
    Simes test does not reject, the triangle of sizes at most.  Rows go in
    chunks of ``_HOMMEL_CHUNK`` elements, as in ``hommel_rows``.
    """
    ps = np.sort(p, axis=-1)
    rows, m = ps.shape
    h = np.zeros(rows)
    n_rows = max(1, _HOMMEL_CHUNK // m)
    for lo in range(0, rows, n_rows):
        block = ps[lo : lo + n_rows]
        unresolved = np.arange(len(block))
        for s in range(m, 1, -1):
            found = _simes_minima(block[unresolved, m - s :]) > alpha
            h[lo + unresolved[found]] = s
            unresolved = unresolved[~found]
            if not unresolved.size:
                break
    return (p <= alpha) & (h[:, None] * p <= alpha)


def adjust_bh(p) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted p-values.

    Sort ascending, compute ``m * p_(i) / i``, enforce monotonicity from the
    largest rank down, and restore the original order.
    """
    return bh_rows(_as_pvalues(p)[None, :])[0]


def adjust_hommel(p) -> np.ndarray:
    """Hommel adjusted p-values.

    Equivalent to closed testing with the Simes combination applied to every
    non-empty subset: the adjusted value of hypothesis ``i`` is the largest
    Simes p-value over subsets containing ``i``.  Computed in O(m^2) without
    enumerating subsets.
    """
    return hommel_rows(_as_pvalues(p)[None, :])[0]
