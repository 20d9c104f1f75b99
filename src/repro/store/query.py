"""Query layer: filters, cross-revision trends, regression gating.

The store keeps one row per (cell, revision); this module turns those
rows into the two shapes the service consumers need:

* :func:`trend` / :func:`trends_by_series` — a metric's value per
  ``git_rev`` in first-seen revision order, grouped by the stable
  ``series`` identity (the sweep key, the micro bench name, the
  paper-scale workload);
* :func:`check_regressions` — the repo's one regression gate, for *any
  stored metric across the last N revisions*: the latest revision's
  value is compared against the best value the window holds, after
  calibration normalization (records that carry a ``calibration``
  metric are divided by it, which cancels raw host speed to first
  order);
* :func:`check_drift` — its two-sided twin for simulated metrics: each
  series' change, either way, between the newest two revisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.store.db import ResultStore, StoreError
from repro.store.schema import STATUS_OK

#: metrics where smaller is better; everything else is higher-is-better.
LOWER_IS_BETTER = frozenset({
    "mean_commit_latency", "wall_seconds", "seconds", "squash_rate",
    "mean_queue", "violations", "wall_ns",
    # the sweep's headline simulated metric
    "total_cycles",
    # the paper-scale suite's end-to-end metrics (BENCHMARK.json names)
    "wall_s", "setup_s", "peak_rss_mb", "sim_cycles",
    "commit_latency_cycles", "messages_per_chunk",
})


#: The smallest absolute change ``check_drift`` reports, per metric
#: (unlisted metrics: any change).
DRIFT_FLOORS = {"total_cycles": 500, "mean_commit_latency": 20,
                "mean_dirs": 0.5, "mean_queue": 0.5, "squashes_conflict": 2}


@dataclass(frozen=True)
class TrendPoint:
    """One (revision, value) sample of a series."""

    git_rev: str
    value: float
    n_samples: int = 1


def metric_lower_is_better(metric: str) -> bool:
    return metric in LOWER_IS_BETTER or metric.startswith("share/")


def _value_of(record, metric: str, normalize: bool) -> Optional[float]:
    value = record.metric(metric)
    if value is None:
        return None
    if normalize and metric != "calibration":
        cal = record.metric("calibration")
        if cal:
            return value / cal
    return value


def trend(store: ResultStore, kind: str, metric: str, *,
          series: Optional[str] = None,
          app: Optional[str] = None,
          protocol: Optional[str] = None,
          n_cores: Optional[int] = None,
          last: Optional[int] = None,
          normalize: bool = False) -> List[TrendPoint]:
    """One series' metric per revision, oldest first.

    Multiple rows of the same series at one revision (e.g. several cells
    matching an ``app`` filter) average into one point.  ``last`` keeps
    only the newest N revisions; ``normalize`` divides by each record's
    ``calibration`` metric when present.
    """
    rows = [r for r in store.query(kind, series=series, app=app,
                                   protocol=protocol, n_cores=n_cores,
                                   status=STATUS_OK)]
    order = store.revisions(kind)
    by_rev: Dict[str, List[float]] = {}
    for record in rows:
        value = _value_of(record, metric, normalize)
        if value is not None:
            by_rev.setdefault(record.git_rev, []).append(value)
    points = [TrendPoint(rev, sum(vals) / len(vals), len(vals))
              for rev in order if (vals := by_rev.get(rev))]
    if last is not None:
        points = points[-last:]
    return points


def trends_by_series(store: ResultStore, kind: str, metric: str, *,
                     last: Optional[int] = None,
                     normalize: bool = False
                     ) -> Dict[str, List[TrendPoint]]:
    """Every series of ``kind`` that exposes ``metric``, as trends."""
    names = sorted({r.series for r in store.query(kind, status=STATUS_OK)})
    out: Dict[str, List[TrendPoint]] = {}
    for name in names:
        points = trend(store, kind, metric, series=name, last=last,
                       normalize=normalize)
        if points:
            out[name] = points
    return out


@dataclass(frozen=True)
class Regression:
    """One series whose latest revision is worse than the window's best."""

    kind: str
    series: str
    metric: str
    baseline_rev: str
    baseline: float
    latest_rev: str
    latest: float

    @property
    def drop_pct(self) -> float:
        if self.baseline == 0:
            return 0.0
        return abs(100.0 * (self.latest - self.baseline) / self.baseline)

    def render(self) -> str:
        return (f"{self.kind}/{self.series} {self.metric}: "
                f"{self.drop_pct:.1f}% worse than rev {self.baseline_rev} "
                f"({self.baseline:.4g} -> {self.latest:.4g} "
                f"at rev {self.latest_rev or '<none>'})")


def _unexposed_metric(store: ResultStore, kind: str, metric: str
                      ) -> StoreError:
    rows = store.query(kind, status=STATUS_OK)
    names = sorted({name for r in rows for name in r.metrics})
    return StoreError(f"no ok {kind} row exposes metric {metric!r} "
                      f"(stored: {', '.join(names) or 'none'})")


def check_regressions(store: ResultStore, kind: str, metric: str, *,
                      threshold: float = 0.10, last: int = 5,
                      lower_better: Optional[bool] = None,
                      normalize: bool = True) -> List[Regression]:
    """Gate the newest revision of every series against the window's best.

    For each series with at least two revisions among the last ``last``,
    the newest value is compared to the best older value (max for
    higher-is-better metrics, min for lower-is-better); a relative
    slip beyond ``threshold`` is a regression.  A store whose rows of
    ``kind`` all sit at a single revision passes vacuously — a fresh
    store never gates.  A gate that would compare nothing raises
    :class:`StoreError` instead of passing: no ok row of ``kind`` at all
    (a kind nothing writes any more), ok rows of which none exposes
    ``metric`` (a misspelled metric), or a window of two or more
    revisions in which no series has a point in two of them (renamed
    series keys).
    """
    if lower_better is None:
        lower_better = metric_lower_is_better(metric)
    trends = trends_by_series(store, kind, metric, last=last,
                              normalize=normalize)
    if not trends:
        if store.query(kind, status=STATUS_OK, limit=1):
            raise _unexposed_metric(store, kind, metric)
        raise StoreError(f"the store holds no ok {kind} row, so the gate "
                         f"would compare nothing")
    compared = {name: pts for name, pts in trends.items() if len(pts) >= 2}
    window = store.revisions(kind)[-last:]
    if len(window) >= 2 and not compared:
        raise StoreError(f"{kind}/{metric}: no series has a point in two "
                         f"of the last {len(window)} revisions, so the "
                         f"gate would compare nothing")
    out: List[Regression] = []
    for name, points in compared.items():
        latest = points[-1]
        prior = points[:-1]
        best = min(prior, key=lambda p: p.value) if lower_better \
            else max(prior, key=lambda p: p.value)
        if best.value == 0:
            continue
        slip = ((latest.value - best.value) if lower_better
                else (best.value - latest.value)) / abs(best.value)
        if slip > threshold:
            out.append(Regression(kind=kind, series=name, metric=metric,
                                  baseline_rev=best.git_rev,
                                  baseline=best.value,
                                  latest_rev=latest.git_rev,
                                  latest=latest.value))
    return out


@dataclass
class DriftReport:
    """What :func:`check_drift` found between two revisions."""

    metric: str
    old_rev: str
    new_rev: str
    #: ``(series, old value, new value)`` per drifting series
    drifts: List[Tuple[str, float, float]] = field(default_factory=list)
    only_old: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)

    def render(self) -> str:
        span = f"{self.metric}, rev {self.old_rev or '<none>'} -> " \
            f"{self.new_rev or '<none>'}"
        lines = [f"series only in rev {rev or '<none>'} ({len(keys)}): "
                 + ", ".join(keys[:5]) + (" ..." if len(keys) > 5 else "")
                 for rev, keys in ((self.old_rev, self.only_old),
                                   (self.new_rev, self.only_new)) if keys]
        lines.append(f"{len(self.drifts)} significant drift(s), {span}:"
                     if self.drifts else f"no significant drifts, {span}")
        for series, old, new in self.drifts:
            rel = f"{(new - old) / abs(old):+.1%}" if old else "new"
            lines.append(f"  {series:40s} {old:10.1f} -> {new:10.1f}  {rel}")
        return "\n".join(lines)


def check_drift(store: ResultStore, kind: str, metric: str, *,
                threshold: float = 0.10) -> DriftReport:
    """Two-sided drift of ``metric`` between the newest two revisions.

    A series drifts when its value moves by ``threshold`` (relative; any
    move from zero counts) and by its :data:`DRIFT_FLOORS` entry.
    Series at only one of the two revisions are listed, not compared.
    Raises :class:`StoreError` when it would compare nothing.
    """
    revs = store.revisions(kind)
    if len(revs) < 2:
        raise StoreError(f"{kind}: drift compares two revisions, the store "
                         f"holds {len(revs)}")
    old_rev, new_rev = revs[-2:]
    trends = trends_by_series(store, kind, metric)
    if not trends:
        raise _unexposed_metric(store, kind, metric)
    old, new = ({name: p.value for name, pts in trends.items()
                 for p in pts if p.git_rev == rev}
                for rev in (old_rev, new_rev))
    floor = DRIFT_FLOORS.get(metric, 0)
    report = DriftReport(metric, old_rev, new_rev,
                         only_old=sorted(set(old) - set(new)),
                         only_new=sorted(set(new) - set(old)))
    for name in sorted(set(old) & set(new)):
        a, b = old[name], new[name]
        if a == b or abs(b - a) < floor:
            continue
        if a == 0 or abs(b - a) / abs(a) >= threshold:
            report.drifts.append((name, a, b))
    return report


__all__ = ["DRIFT_FLOORS", "DriftReport", "LOWER_IS_BETTER",
           "Regression", "TrendPoint", "check_drift", "check_regressions",
           "metric_lower_is_better", "trend", "trends_by_series"]
