import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegate import adjust
from treegate.adjust import (
    adjust_bh, adjust_hommel, bh_rejections, bh_rows, hommel_rejections, hommel_rows,
)

from _oracles import bh_stepup_reject, closed_testing_hommel, hommel_loop

grid_pvalues = st.lists(
    st.integers(1, 100).map(lambda i: i / 100.0), min_size=1, max_size=8
)


def test_hommel_examples():
    np.testing.assert_array_equal(adjust_hommel([0.4, 0.9]), [0.8, 0.9])
    # (3 * 0.2) / 3 is one ulp off 0.2 in binary floating point
    np.testing.assert_allclose(adjust_hommel([0.2, 0.2, 0.2]), [0.2, 0.2, 0.2], rtol=1e-15)
    np.testing.assert_array_equal(adjust_hommel([0.03]), [0.03])


def test_bh_examples():
    np.testing.assert_allclose(
        adjust_bh([0.01, 0.03, 0.04, 0.05]), [0.04, 0.05, 0.05, 0.05]
    )
    np.testing.assert_allclose(adjust_bh([0.5]), [0.5])
    np.testing.assert_allclose(adjust_bh([0.05, 0.05]), [0.05, 0.05])


@pytest.mark.parametrize("bad", [[], [1.5], [-0.1], [np.nan]])
@pytest.mark.parametrize("fn", [adjust_hommel, adjust_bh])
def test_input_validation(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@given(grid_pvalues)
@settings(max_examples=200, deadline=None)
def test_hommel_matches_closed_testing_oracle(pvals):
    np.testing.assert_array_equal(
        adjust_hommel(pvals), closed_testing_hommel(pvals)
    )


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_adjusted_at_least_raw_and_clamped(pvals):
    raw = np.asarray(pvals)
    for fn in (adjust_hommel, adjust_bh):
        adjusted = fn(pvals)
        assert np.all(adjusted >= raw - 1e-15)
        assert np.all(adjusted <= 1.0)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_hommel_no_more_conservative_than_bonferroni(pvals):
    bonferroni = np.minimum(len(pvals) * np.asarray(pvals), 1.0)
    assert np.all(adjust_hommel(pvals) <= bonferroni + 1e-12)


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=10))
@settings(max_examples=150, deadline=None)
def test_sorted_adjusted_monotone_in_sorted_raw(pvals):
    order = np.argsort(pvals, kind="stable")
    for fn in (adjust_hommel, adjust_bh):
        ranked = fn(pvals)[order]
        assert np.all(np.diff(ranked) >= -1e-12)


# p-values on a prime-denominator grid can never sit exactly on an
# alpha*j/m rejection boundary, so the two formulations cannot be split
# by float rounding
@given(
    st.lists(st.integers(1, 996).map(lambda i: i / 997.0), min_size=1, max_size=9),
    st.sampled_from([0.01, 0.05, 0.1, 0.25]),
)
@settings(max_examples=100, deadline=None)
def test_bh_adjusted_reproduces_stepup_rule(pvals, alpha):
    adjusted = adjust_bh(pvals)
    assert {i for i, p in enumerate(adjusted) if p <= alpha} == bh_stepup_reject(
        pvals, alpha
    )


# values on a coarse grid tie often; free floats and exact 0 and 1 do not
tied_or_free = st.one_of(
    st.integers(0, 20).map(lambda i: i / 20.0), st.floats(0, 1, allow_nan=False)
)


@given(st.lists(tied_or_free, min_size=1, max_size=400))
@settings(max_examples=200, deadline=None)
def test_hommel_equals_the_per_size_loop_bitwise(pvals):
    np.testing.assert_array_equal(adjust_hommel(pvals), hommel_loop(pvals))


@given(
    st.integers(1, 40).flatmap(
        lambda m: st.lists(st.lists(tied_or_free, min_size=m, max_size=m), min_size=1, max_size=30)
    )
)
@settings(max_examples=100, deadline=None)
def test_rows_of_a_2d_call_equal_1d_calls(rows):
    P = np.array(rows)
    for kernel, one in ((hommel_rows, adjust_hommel), (bh_rows, adjust_bh)):
        np.testing.assert_array_equal(kernel(P), np.array([one(row) for row in rows]))


def test_hommel_rows_spanning_several_chunks_equal_the_loop():
    # hundreds of rows of m = 2..8, tied and free, and 300 rows of 64 need
    # many row chunks at every chunk size; a row of m = 700 is wider than
    # every patched chunk, so it is a chunk of its own
    rng = np.random.default_rng(3)
    matrices = [rng.integers(0, 20, (300, m)) / 20.0 for m in range(2, 9)]
    matrices += [rng.random((300, m)) for m in range(2, 9)]
    matrices += [rng.random((300, 64)), rng.integers(0, 50, (3, 700)) / 49.0]
    expected = [[hommel_loop(row) for row in P] for P in matrices]
    for chunk in (adjust._HOMMEL_CHUNK, 1, 7, 64):
        with mock.patch.object(adjust, "_HOMMEL_CHUNK", chunk):
            for P, want in zip(matrices, expected):
                np.testing.assert_array_equal(hommel_rows(P), want)


def test_hommel_memory_is_bounded_at_large_m():
    # an unchunked m = 5000 call would hold m * m floats, 200 MB
    p = np.random.default_rng(5).random(5000)
    tracemalloc.start()
    try:
        adjust_hommel(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ties on a coarse grid, exact 0 and 1, a 1/501 lattice and free floats
decision_pvalues = st.one_of(
    st.integers(0, 20).map(lambda i: i / 20.0),
    st.integers(0, 501).map(lambda i: i / 501.0),
    st.floats(0, 1, allow_nan=False),
)


@given(
    st.integers(1, 40).flatmap(
        lambda m: st.lists(
            st.lists(decision_pvalues, min_size=m, max_size=m), min_size=1, max_size=20
        )
    ),
    st.sampled_from([adjust._HOMMEL_CHUNK, 1, 7, 64]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_hommel_rejections_equal_thresholded_adjusted_values(rows, chunk, data):
    P = np.array(rows)
    # a small chunk makes the rows span several chunks
    with mock.patch.object(adjust, "_HOMMEL_CHUNK", chunk):
        adjusted = hommel_rows(P)
        # alpha at 0 and 1, anywhere, and pinned to a value the kernel produced
        alpha = data.draw(
            st.one_of(
                st.sampled_from([0.0, 1.0]),
                st.floats(0, 1),
                st.sampled_from(sorted(set(adjusted.ravel().tolist()))),
            ),
            label="alpha",
        )
        np.testing.assert_array_equal(hommel_rejections(P, alpha), adjusted <= alpha)


def test_hommel_rejections_on_seeded_matrices_equal_thresholded_adjusted_values():
    # 300 rows of 64 need several row chunks, rows that reject at every size
    # scan the whole triangle, and rows of one value have no size to scan
    rng = np.random.default_rng(6)
    for P in (
        rng.random((300, 64)),
        rng.beta(0.1, 1.0, (300, 64)),
        rng.integers(0, 502, (40, 150)) / 501.0,
        np.full((5, 64), 1e-6),
        np.array([[0.0], [0.05], [0.0500001], [1.0]]),
    ):
        adjusted = hommel_rows(P)
        pinned = rng.choice(adjusted.ravel(), 20).tolist()
        for alpha in [0.0, 0.01, 0.05, 0.2, 1.0] + pinned:
            np.testing.assert_array_equal(hommel_rejections(P, alpha), adjusted <= alpha)


@given(
    st.integers(1, 40).flatmap(
        lambda m: st.lists(
            st.lists(decision_pvalues, min_size=m, max_size=m), min_size=1, max_size=20
        )
    ),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_bh_rejections_equal_thresholded_adjusted_values(rows, data):
    P = np.array(rows)
    adjusted = bh_rows(P)
    # alpha at 0 and 1, anywhere, and pinned to a value the kernel produced
    alpha = data.draw(
        st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.floats(0, 1),
            st.sampled_from(sorted(set(adjusted.ravel().tolist()))),
        ),
        label="alpha",
    )
    np.testing.assert_array_equal(bh_rejections(P, alpha), adjusted <= alpha)


def test_bh_rejections_on_seeded_matrices_equal_thresholded_adjusted_values():
    # ties on a lattice, rows that reject everything, and rows of one value
    rng = np.random.default_rng(14)
    for P in (
        rng.random((300, 64)),
        rng.beta(0.1, 1.0, (300, 64)),
        rng.integers(0, 502, (40, 150)) / 501.0,
        np.full((5, 64), 1e-6),
        np.array([[0.0], [0.05], [0.0500001], [1.0]]),
    ):
        adjusted = bh_rows(P)
        pinned = rng.choice(adjusted.ravel(), 20).tolist()
        for alpha in [0.0, 0.01, 0.05, 0.2, 1.0] + pinned:
            np.testing.assert_array_equal(bh_rejections(P, alpha), adjusted <= alpha)
