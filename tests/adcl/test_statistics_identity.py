"""The pure-Python estimators equal their numpy formulation bit for bit.

``robust_mean`` decides every tune without importing numpy; these
properties pin it (and ``filter_outliers``) to the numpy code it
replaced, compared through ``float.hex``.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adcl.statistics import (
    FILTER_METHODS,
    DriftDetector,
    filter_outliers,
    robust_mean,
)

RTOLS = (0.0, 0.05, 0.25, 0.5, 2.0)


def numpy_filter(samples, method, rtol=0.25):
    """The numpy estimator ``filter_outliers`` was before it went pure."""
    arr = np.asarray(samples, dtype=float)
    if method == "mean":
        return arr
    if method == "iqr":
        if arr.size < 4:
            return arr
        q1, q3 = np.percentile(arr, [25, 75])
        iqr = q3 - q1
        mask = (arr >= q1 - 1.5 * iqr) & (arr <= q3 + 1.5 * iqr)
        return arr[mask] if mask.any() else arr
    lo = arr.min()
    kept = arr[arr <= lo * (1.0 + rtol)]
    return kept if kept.size else arr


def numpy_mean(samples, method, rtol=0.25) -> float:
    return float(numpy_filter(samples, method, rtol).mean())


def assert_identical(samples, method, rtol):
    got = robust_mean(samples, method=method, rtol=rtol)
    assert got.hex() == numpy_mean(samples, method, rtol).hex()
    kept = filter_outliers(samples, method=method, rtol=rtol)
    assert isinstance(kept, np.ndarray)
    ref = numpy_filter(samples, method, rtol)
    assert [x.hex() for x in kept.tolist()] == [x.hex() for x in ref.tolist()]


@st.composite
def sample_sets(draw, max_size=1000):
    """Timing-like samples: 1..max_size values around a magnitude in
    [1e-9, 1e3], with a spread from near-ties to heavy outliers."""
    n = draw(st.integers(1, max_size))
    magnitude = 10.0 ** draw(st.floats(-9.0, 3.0))
    spread = draw(st.sampled_from([0.0, 1e-6, 0.05, 0.5, 3.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [magnitude * (1.0 + spread * rng.expovariate(1.0))
            for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(sample_sets(), st.sampled_from(FILTER_METHODS), st.sampled_from(RTOLS))
def test_pure_estimators_match_numpy(samples, method, rtol):
    assert_identical(samples, method, rtol)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=1e-9, max_value=1e3), min_size=1,
                max_size=40),
       st.sampled_from(FILTER_METHODS), st.sampled_from(RTOLS))
def test_pure_estimators_match_numpy_on_arbitrary_floats(samples, method, rtol):
    assert_identical(samples, method, rtol)


@settings(max_examples=60, deadline=None)
@given(sample_sets(max_size=64), st.sampled_from(FILTER_METHODS))
def test_drift_detector_levels_match_numpy(series, method):
    window = 8
    det = DriftDetector(window=window, method=method)
    baseline = None
    drifted = False
    for i, seconds in enumerate(series):
        flagged = det.update(seconds)
        # the reference detector, computed on numpy levels
        if not drifted and i + 1 >= window:
            level = numpy_mean(series[i + 1 - window:i + 1], method)
            assert det.level.hex() == level.hex()
            if baseline is None:
                baseline = level
            elif (level > det.threshold * baseline
                  or level * det.threshold < baseline):
                drifted = True
        assert flagged == drifted
