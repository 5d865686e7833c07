"""Robust statistics for perf series: noise bands, verdicts,
changepoints.

Wall-clock benchmarks are noisy; a single-sample threshold ("fail if
this run is 20% slower than that run") flaps.  Everything here is built
on the median / MAD pair instead:

* **median** — the headline number of a repetition set; immune to the
  one GC pause or scheduler hiccup that ruins a mean.
* **MAD** (median absolute deviation) — the robust spread estimate.
  ``1.4826 * MAD`` estimates a normal sigma, but we use raw MAD with a
  generous multiplier and a *relative floor*: a tiny n with zero spread
  must not make every later run a "regression".
* **noise band** — ``median ± max(k*MAD, min_rel*|median|, min_abs)``:
  the region where a measurement is indistinguishable from the
  baseline.
* **verdict** — direction-aware A/B classification
  (:func:`classify`): the candidate median must leave the baseline's
  band *in the bad direction* before it counts as a regression; a move
  exactly at the band's edge is still inside it.  ``higher`` /
  ``lower`` is better; an ``info`` metric, or any metric on a zero
  baseline, is only ever ``changed``.  This is the one regression rule:
  ``repro bench compare``, ``repro diffstats`` and ``repro bench run
  --check`` all decide through this package.
* **changepoint** (:func:`changepoint`): two-segment split of a
  history series minimizing the summed absolute deviation around each
  segment's median — the "when did this land" question for
  ``repro bench history``.  A split only counts when the level shift
  clears the pooled noise band, so steady noise and gradual drift
  within the band stay quiet.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

__all__ = ["median", "mad", "Band", "noise_band", "Verdict", "classify",
           "Changepoint", "changepoint", "sparkline",
           "DEFAULT_K", "DEFAULT_MIN_REL", "HIGHER", "LOWER", "INFO",
           "OK", "REGRESSION", "IMPROVEMENT", "CHANGED", "NEW", "GONE"]

#: MAD multiplier for the noise band (3 * 1.4826*sigma-ish ~ very safe).
DEFAULT_K = 3.0
#: Relative floor of the band — changes below 5% are never flagged.
DEFAULT_MIN_REL = 0.05

HIGHER = "higher"
LOWER = "lower"
INFO = "info"           # a difference matters, but is not a perf axis

OK = "ok"
REGRESSION = "regression"
IMPROVEMENT = "improvement"
CHANGED = "changed"     # moved, on an axis with no better direction
NEW = "new"             # measured by the candidate only
GONE = "gone"           # measured by the baseline only


def median(values: Sequence[float]) -> float:
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("median of an empty series")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation around the median (0 for n == 1)."""
    center = median(values)
    return median([abs(float(v) - center) for v in values])


class Band:
    """A baseline's noise band: center, radius, [lo, hi]."""

    __slots__ = ("center", "radius")

    def __init__(self, center: float, radius: float):
        self.center = center
        self.radius = radius

    @property
    def lo(self) -> float:
        return self.center - self.radius

    @property
    def hi(self) -> float:
        return self.center + self.radius

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def to_dict(self) -> Dict[str, float]:
        return {"center": round(self.center, 9),
                "radius": round(self.radius, 9),
                "lo": round(self.lo, 9), "hi": round(self.hi, 9)}

    def __repr__(self):
        return "<Band %.6g ± %.6g>" % (self.center, self.radius)


def noise_band(values: Sequence[float], k: float = DEFAULT_K,
               min_rel: float = DEFAULT_MIN_REL,
               min_abs: float = 0.0) -> Band:
    """The band inside which a measurement is just noise.

    Radius = ``max(k * MAD, min_rel * |median|, min_abs)`` — the floors
    keep a low-spread (or single-sample) baseline honest.
    """
    center = median(values)
    radius = max(k * mad(values), min_rel * abs(center), min_abs)
    return Band(center, radius)


class Verdict:
    """A/B comparison outcome for one benchmark."""

    __slots__ = ("flag", "baseline", "candidate", "direction",
                 "delta_ratio", "worse_ratio", "band")

    def __init__(self, flag: str, baseline: Optional[float],
                 candidate: Optional[float], direction: str,
                 delta_ratio: Optional[float],
                 worse_ratio: Optional[float], band: Optional[Band]):
        self.flag = flag                 # ok | regression | improvement
        #                                  | changed | new | gone
        self.baseline = baseline         # baseline median (None: new)
        self.candidate = candidate       # candidate median (None: gone)
        self.direction = direction
        self.delta_ratio = delta_ratio   # raw (B-A)/A, signed by value
        self.worse_ratio = worse_ratio   # signed toward "worse"
        self.band = band                 # None when no band judged it

    def to_dict(self) -> Dict[str, object]:
        return {"flag": self.flag,
                "baseline_median": self.baseline,
                "candidate_median": self.candidate,
                "direction": self.direction,
                "delta_ratio": self.delta_ratio,
                "worse_ratio": self.worse_ratio,
                "band": (self.band.to_dict() if self.band is not None
                         else None)}


def classify(baseline: Sequence[float], candidate: Sequence[float],
             direction: str = LOWER, k: float = DEFAULT_K,
             min_rel: float = DEFAULT_MIN_REL) -> Verdict:
    """Direction-aware, noise-robust comparison of two sample sets.

    A *regression* needs both: the candidate median outside the
    baseline noise band in the bad direction, AND a relative move of at
    least ``min_rel``.  The band is closed, so a move exactly at its
    edge is ``ok``.  Improvements are the mirror image.  An ``info``
    metric, or any metric on a zero baseline (no relative move to
    judge), is ``changed`` when the medians differ and ``ok`` when they
    do not — never a regression.
    """
    if direction not in (HIGHER, LOWER, INFO):
        raise ValueError("direction must be 'higher', 'lower' or "
                         "'info', got %r" % (direction,))
    band = noise_band(baseline, k=k, min_rel=min_rel)
    cand = median(candidate)
    base = band.center
    raw = (cand - base) / abs(base) if base else None
    if direction == INFO or raw is None:
        return Verdict(CHANGED if cand != base else OK, base, cand,
                       direction, raw, None, None)
    worse = -raw if direction == HIGHER else raw
    flag = OK
    if not band.contains(cand) and abs(raw) >= min_rel:
        flag = REGRESSION if worse > 0 else IMPROVEMENT
    return Verdict(flag, base, cand, direction, raw, worse, band)


class Changepoint:
    """A detected level shift in a history series."""

    __slots__ = ("index", "before", "after", "shift_ratio")

    def __init__(self, index: int, before: float, after: float,
                 shift_ratio: float):
        self.index = index               # first index of the new level
        self.before = before             # median of series[:index]
        self.after = after               # median of series[index:]
        self.shift_ratio = shift_ratio   # (after-before)/|before|

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "before": self.before,
                "after": self.after,
                "shift_ratio": round(self.shift_ratio, 6)}

    def __repr__(self):
        return ("<Changepoint @%d %.6g -> %.6g (%+.1f%%)>"
                % (self.index, self.before, self.after,
                   100 * self.shift_ratio))


def _abs_dev_cost(values: Sequence[float]) -> float:
    center = median(values)
    return sum(abs(v - center) for v in values)


def changepoint(values: Sequence[float], k: float = DEFAULT_K,
                min_rel: float = DEFAULT_MIN_REL,
                min_segment: int = 3) -> Optional[Changepoint]:
    """Best single step change in ``values``, or None.

    Scans every split leaving ``min_segment`` points on each side,
    keeps the one minimizing the summed absolute deviation around each
    segment's median, and reports it only when the level shift clears
    the pooled noise band — so flat series, noisy-but-flat series and
    drift within the band return None.  Series shorter than
    ``2 * min_segment`` carry too little evidence: also None.
    """
    series = [float(v) for v in values]
    if len(series) < 2 * min_segment:
        return None
    best_split = None
    best_cost = None
    for split in range(min_segment, len(series) - min_segment + 1):
        cost = (_abs_dev_cost(series[:split])
                + _abs_dev_cost(series[split:]))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_split = split
    assert best_split is not None
    before = series[:best_split]
    after = series[best_split:]
    med_before, med_after = median(before), median(after)
    if med_before == 0:
        return None
    # The shift must clear the noise of BOTH segments — a split that
    # merely bisects noise has overlapping bands and stays quiet.
    pooled = max(k * mad(before), k * mad(after),
                 min_rel * abs(med_before))
    if abs(med_after - med_before) <= pooled:
        return None
    shift = (med_after - med_before) / abs(med_before)
    return Changepoint(best_split, med_before, med_after, shift)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode sparkline of a series (newest right), for
    ``repro bench history``."""
    blocks = "▁▂▃▄▅▆▇█"
    series = [float(v) for v in values][-width:]
    if not series:
        return ""
    lo, hi = min(series), max(series)
    if hi == lo:
        return blocks[3] * len(series)
    scale = (len(blocks) - 1) / (hi - lo)
    return "".join(blocks[int(round((v - lo) * scale))] for v in series)
