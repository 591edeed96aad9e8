"""Statistical filtering of runtime measurements.

ADCL's selection logic must not be fooled by the occasional measurement
where the operating system or another job stole the core (§IV-A notes
that the few wrong decisions ADCL made "typically involved having a
larger number of data outliers during the evaluation phase").  Following
Benkert/Gabriel/Roller ("Timing Collective Communications in an
Empirical Optimization Framework"), measurements are filtered before
averaging.

Three estimators are provided:

* ``"mean"``    — plain arithmetic mean (no filtering; ablation baseline),
* ``"iqr"``     — drop samples outside ``[Q1 - 1.5 IQR, Q3 + 1.5 IQR]``,
* ``"cluster"`` — keep the samples within ``rtol`` of the minimum (the
  ADCL heuristic: the cluster of unperturbed runs sits just above the
  true cost; everything else is interference).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import AdclError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["robust_mean", "filter_outliers", "clean_samples", "DriftDetector",
           "FILTER_METHODS"]

FILTER_METHODS = ("mean", "iqr", "cluster")

#: numpy's pairwise summation: blocks up to this size are summed with
#: eight interleaved accumulators, longer ones split in two
_PW_BLOCK = 128


def _pairwise_sum(vals: List[float], lo: int, n: int) -> float:
    """Sum ``vals[lo:lo + n]`` in numpy's pairwise order, bit for bit."""
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += vals[i]
        return res
    if n <= _PW_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = vals[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += vals[i]
            r1 += vals[i + 1]
            r2 += vals[i + 2]
            r3 += vals[i + 3]
            r4 += vals[i + 4]
            r5 += vals[i + 5]
            r6 += vals[i + 6]
            r7 += vals[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += vals[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(vals, lo, n2) + _pairwise_sum(vals, lo + n2, n - n2)


def _mean(vals: List[float]) -> float:
    """``numpy.mean`` of a float64 vector, bit for bit."""
    return (-0.0 + _pairwise_sum(vals, 0, len(vals))) / len(vals)


def _quartiles(vals: List[float]) -> tuple:
    """``numpy.percentile(vals, [25, 75])`` (linear method), bit for bit;
    ``len(vals) >= 4``."""
    ordered = sorted(vals)
    out = []
    for q in (0.25, 0.75):
        virtual = (len(ordered) - 1) * q
        below = int(virtual)
        gamma = virtual - below
        a, b = ordered[below], ordered[below + 1]
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return tuple(out)


def clean_samples(samples: Sequence[float], method: str = "cluster",
                  rtol: float = 0.25) -> List[float]:
    """The samples the estimator considers clean, as a list of floats."""
    vals = [float(x) for x in samples]
    if not vals:
        raise AdclError("cannot filter an empty sample set")
    if method == "mean":
        return vals
    if method == "iqr":
        if len(vals) < 4:
            return vals
        q1, q3 = _quartiles(vals)
        iqr = q3 - q1
        low, high = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        kept = [v for v in vals if low <= v <= high]
        return kept or vals
    if method == "cluster":
        bound = min(vals) * (1.0 + rtol)
        kept = [v for v in vals if v <= bound]
        return kept or vals
    raise AdclError(f"unknown filter method {method!r}; expected {FILTER_METHODS}")


def filter_outliers(samples: Sequence[float], method: str = "cluster",
                    rtol: float = 0.25) -> np.ndarray:
    """Return the subset of ``samples`` the estimator considers clean."""
    import numpy as np

    return np.asarray(clean_samples(samples, method=method, rtol=rtol),
                      dtype=float)


def robust_mean(samples: Sequence[float], method: str = "cluster",
                rtol: float = 0.25) -> float:
    """Outlier-filtered mean of a measurement series.

    Pure Python, yet bit-identical to ``filter_outliers(...).mean()``:
    the sum follows numpy's pairwise order.
    """
    return _mean(clean_samples(samples, method=method, rtol=rtol))


class DriftDetector:
    """Sliding-window detector for post-decision performance drift.

    A tuning decision is only valid under the conditions it was measured
    in (Hunold's performance-guideline argument).  The detector compares
    the robust mean of the last ``window`` post-decision measurements
    against the decision-time ``baseline``; when the level moves by more
    than ``threshold`` in *either* direction — the platform got slower
    (congestion, degraded link) or much faster (a transient that
    poisoned the learning phase ended) — the decision is stale and
    :meth:`update` reports drift so the owner can re-open tuning.

    ``baseline=None`` (a winner loaded from historic learning, which has
    no decision-time samples) uses the first full window as baseline and
    monitors from there.
    """

    def __init__(self, baseline: Optional[float] = None, window: int = 8,
                 threshold: float = 1.75, method: str = "cluster"):
        if window < 1:
            raise AdclError(f"drift window must be >= 1, got {window}")
        if threshold <= 1.0:
            raise AdclError(f"drift threshold must be > 1, got {threshold}")
        if baseline is not None and baseline <= 0.0:
            raise AdclError(f"drift baseline must be positive, got {baseline}")
        self.baseline = baseline
        self.window = window
        self.threshold = threshold
        self.method = method
        self._samples: deque[float] = deque(maxlen=window)
        #: latched once drift has been reported
        self.drifted = False

    @property
    def level(self) -> Optional[float]:
        """Robust mean of the current window (None until it is full)."""
        if len(self._samples) < self.window:
            return None
        return robust_mean(list(self._samples), method=self.method)

    def update(self, seconds: float) -> bool:
        """Feed one post-decision measurement; True when drift detected."""
        if self.drifted:
            return True
        self._samples.append(seconds)
        level = self.level
        if level is None:
            return False
        if self.baseline is None:
            self.baseline = level
            return False
        if level > self.threshold * self.baseline or (
            level * self.threshold < self.baseline
        ):
            self.drifted = True
            return True
        return False
