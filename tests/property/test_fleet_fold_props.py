"""The fleet engine's small-batch fold is numpy's sum, bit for bit.

``_dispatch`` folds the arrival sum and the formation-wait sum of a batch
with fewer than ``_PAIRWISE`` members in one Python loop instead of two
numpy reductions. That is exact only while numpy adds short arrays from
0.0 strictly left to right; a numpy release that reorders those sums
fails here instead of silently moving the report's means.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.serving.fleet import _PAIRWISE, _fold_small

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=500)
@given(arrivals=st.lists(finite, min_size=1, max_size=_PAIRWISE - 1),
       now=finite, idle_since=finite)
def test_fold_small_equals_numpy_bit_for_bit(arrivals, now, idle_since):
    arr = np.array(arrivals, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats don't warn
        want_asum = float(arr.sum())
        want_form = float(np.minimum(now - arr, now - idle_since).sum())
    got_asum, got_form = _fold_small(arrivals, now, idle_since)
    assert float.hex(got_asum) == float.hex(want_asum)
    assert float.hex(got_form) == float.hex(want_form)


@settings(deadline=None, max_examples=300)
@given(arrivals=st.lists(st.floats(0.0, 1e3), min_size=1,
                         max_size=_PAIRWISE - 1),
       gap=st.floats(0.0, 1.0), idle_gap=st.floats(0.0, 1e3))
def test_fold_small_equals_numpy_on_engine_inputs(arrivals, gap, idle_gap):
    # What ``_dispatch`` hands the fold: queued arrivals at or before
    # ``now``, and a replica idle since at or before ``now``.
    now = max(arrivals) + gap
    idle_since = now - idle_gap
    arr = np.array(arrivals)
    asum, form = _fold_small(arrivals, now, idle_since)
    assert float.hex(asum) == float.hex(float(arr.sum()))
    assert float.hex(form) == float.hex(
        float(np.minimum(now - arr, now - idle_since).sum()))
