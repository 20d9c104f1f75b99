"""Static HTML regression dashboard: metric trends across revisions.

:func:`render_dashboard` emits one self-contained HTML file (inline SVG,
no JavaScript, no external assets) from a result store:

* micro primitive throughput (ops/sec) across revisions;
* commit latency and squash rate per sweep cell across revisions;
* paper-scale suite throughput (chunks/s) per workload across revisions,
  the repo's one full-stack performance trend;
* a failure table (campaign cells stored with ``status='failed'``);
* links to any Perfetto traces referenced by stored records.

Chart discipline (see docs/experiments.md): categorical series colors
are assigned in a fixed validated order and never cycled — a chart shows
at most :data:`MAX_SERIES` series and folds the rest into its data
table, which every chart carries as an expandable accessible fallback.
Light and dark palettes are both explicit (the dark steps are selected,
not auto-inverted).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.store.db import ResultStore
from repro.store.query import TrendPoint, trends_by_series
from repro.store.schema import (KIND_BENCH_MICRO, KIND_PERF, KIND_SWEEP,
                                STATUS_FAILED)

PathLike = Union[str, Path]

#: Validated categorical palette (light, dark) — fixed slot order; the
#: ordering is the colorblind-safety mechanism, so never reshuffle it.
SERIES_COLORS: Tuple[Tuple[str, str], ...] = (
    ("#2a78d6", "#3987e5"),   # blue
    ("#eb6834", "#d95926"),   # orange
    ("#1baf7a", "#199e70"),   # aqua
    ("#eda100", "#c98500"),   # yellow
    ("#e87ba4", "#d55181"),   # magenta
    ("#008300", "#008300"),   # green
    ("#4a3aa7", "#9085e9"),   # violet
    ("#e34948", "#e66767"),   # red
)

#: Hard series cap per chart: beyond 8 slots identity cannot stay
#: colorblind-distinguishable, so extra series fold into the table.
MAX_SERIES = len(SERIES_COLORS)

_W, _H = 720, 260
_ML, _MR, _MT, _MB = 62, 16, 14, 34


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3g}"


def _ticks(lo: float, hi: float, n: int = 4) -> List[float]:
    import math
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    step = next(s * mag for s in (1, 2, 2.5, 5, 10) if raw <= s * mag)
    first = math.floor(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step / 2:
        if t >= lo - step / 2:
            ticks.append(t)
        t += step
    return ticks or [lo, hi]


def _line_chart(title: str, unit: str,
                series: Dict[str, List[TrendPoint]],
                revs: Sequence[str]) -> str:
    """One titled SVG line chart + its expandable data table."""
    shown = dict(list(series.items())[:MAX_SERIES])
    folded = len(series) - len(shown)
    rev_index = {rev: i for i, rev in enumerate(revs)}
    values = [p.value for pts in shown.values() for p in pts]
    if not values or not revs:
        return ""
    lo, hi = min(values), max(values)
    lo = min(lo, 0.0) if lo > 0 and lo < hi * 0.5 else lo
    if lo == hi:
        lo, hi = lo - abs(lo) * 0.1 - 1, hi + abs(hi) * 0.1 + 1
    plot_w, plot_h = _W - _ML - _MR, _H - _MT - _MB

    def x_of(rev: str) -> float:
        n = max(1, len(revs) - 1)
        return _ML + plot_w * (rev_index[rev] / n if n else 0.5)

    def y_of(v: float) -> float:
        return _MT + plot_h * (1 - (v - lo) / (hi - lo))

    parts: List[str] = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'aria-label="{html.escape(title)}">']
    # recessive grid + y axis labels (text wears ink, never series color)
    for t in _ticks(lo, hi):
        y = y_of(t)
        parts.append(f'<line class="grid" x1="{_ML}" y1="{y:.1f}" '
                     f'x2="{_W - _MR}" y2="{y:.1f}"/>')
        parts.append(f'<text class="tick" x="{_ML - 6}" y="{y + 3:.1f}" '
                     f'text-anchor="end">{_fmt(t)}</text>')
    for rev in revs:
        x = x_of(rev)
        parts.append(f'<text class="tick" x="{x:.1f}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{html.escape(rev or "?")}'
                     f'</text>')
    parts.append(f'<line class="axis" x1="{_ML}" y1="{_H - _MB}" '
                 f'x2="{_W - _MR}" y2="{_H - _MB}"/>')
    # 2px lines + >=8px markers; every marker carries a native tooltip
    for slot, (name, pts) in enumerate(shown.items()):
        color = f"var(--series-{slot + 1})"
        coords = [(x_of(p.git_rev), y_of(p.value), p) for p in pts
                  if p.git_rev in rev_index]
        if len(coords) > 1:
            d = " ".join(f"{'M' if i == 0 else 'L'}{x:.1f},{y:.1f}"
                         for i, (x, y, _) in enumerate(coords))
            parts.append(f'<path class="line" d="{d}" '
                         f'stroke="{color}"/>')
        for x, y, p in coords:
            tip = (f"{name} @ {p.git_rev or '?'}: {_fmt(p.value)} {unit}"
                   + (f" (mean of {p.n_samples})" if p.n_samples > 1
                      else ""))
            parts.append(f'<circle class="pt" cx="{x:.1f}" cy="{y:.1f}" '
                         f'r="4" fill="{color}">'
                         f'<title>{html.escape(tip)}</title></circle>')
    parts.append("</svg>")

    legend = "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:var(--series-{slot + 1})"></span>'
        f'{html.escape(name)}</span>'
        for slot, name in enumerate(shown)) if len(shown) > 1 else ""
    fold_note = (f'<p class="note">+{folded} more series in the '
                 f'data table below (8-series color cap).</p>'
                 if folded > 0 else "")

    head = "".join(f"<th>{html.escape(rev or '?')}</th>" for rev in revs)
    rows = []
    for name, pts in series.items():
        by_rev = {p.git_rev: p.value for p in pts}
        cells = "".join(
            f"<td>{_fmt(by_rev[rev]) if rev in by_rev else '—'}</td>"
            for rev in revs)
        rows.append(f"<tr><th>{html.escape(name)}</th>{cells}</tr>")
    table = (f'<details><summary>Data table ({len(series)} series x '
             f'{len(revs)} revisions, {unit})</summary>'
             f'<table><tr><th>series</th>{head}</tr>{"".join(rows)}'
             f'</table></details>')
    return (f'<figure><figcaption>{html.escape(title)} '
            f'<span class="unit">({html.escape(unit)})</span>'
            f'</figcaption>{legend}{"".join(parts)}'
            f'{fold_note}{table}</figure>')


def _trace_links(store: ResultStore) -> List[Tuple[str, str]]:
    """(label, path) pairs for every Perfetto trace a record references."""
    links: List[Tuple[str, str]] = []
    for record in store.query():
        payload = record.payload if isinstance(record.payload, dict) else {}
        for key in ("trace_out", "perfetto", "trace"):
            path = payload.get(key)
            if isinstance(path, str) and path:
                links.append((f"{record.kind}/{record.series}", path))
    return links


_STYLE = """
:root {
  color-scheme: light dark;
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --grid: #f0efec; --axis: #d9d8d3; --card: #ffffff;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --grid: #2a2a28; --axis: #3a3a37; --card: #222221;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
body { background: var(--surface); color: var(--ink); margin: 2rem auto;
       max-width: 60rem; font: 15px/1.45 system-ui, sans-serif; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
p, td, th, figcaption, summary { color: var(--ink); }
.meta, .note, .unit, .tick { color: var(--ink-2); }
figure { margin: 1rem 0 2rem; background: var(--card);
         border: 1px solid var(--grid); border-radius: 8px;
         padding: 12px 16px; }
figcaption { font-weight: 600; margin-bottom: 4px; }
svg { width: 100%; height: auto; display: block; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .axis { stroke: var(--axis); stroke-width: 1; }
svg .line { fill: none; stroke-width: 2; }
svg .pt { stroke: var(--card); stroke-width: 2; }
svg .tick, svg text { fill: var(--ink-2); font-size: 11px;
                      font-family: system-ui, sans-serif; }
.key { margin-right: 14px; font-size: 13px; }
.swatch { display: inline-block; width: 10px; height: 10px;
          border-radius: 2px; margin-right: 5px; }
table { border-collapse: collapse; margin-top: 8px; font-size: 13px; }
td, th { border: 1px solid var(--grid); padding: 3px 8px;
         text-align: right; }
th:first-child { text-align: left; }
.fail { color: #b3261e; }
code { background: var(--grid); padding: 1px 4px; border-radius: 3px; }
"""


def render_dashboard(store: ResultStore,
                     title: str = "repro result store") -> str:
    """The full dashboard document as an HTML string."""
    counts = store.counts()
    revs_all = store.revisions()
    failures = store.query(status=STATUS_FAILED)

    sections: List[str] = []

    def add_chart(heading: str, kind: str, metric: str, unit: str,
                  blurb: str) -> None:
        series = trends_by_series(store, kind, metric)
        revs = [r for r in store.revisions(kind)
                if any(p.git_rev == r for pts in series.values()
                       for p in pts)]
        chart = _line_chart(heading, unit, series, revs)
        if chart:
            sections.append(f"<h2>{html.escape(heading)}</h2>"
                            f'<p class="meta">{html.escape(blurb)}</p>'
                            f"{chart}")

    add_chart("Micro primitive throughput", KIND_BENCH_MICRO,
              "ops_per_sec", "ops/sec",
              "The simulator's hottest primitives in isolation "
              "(signature ops, event-queue churn, NoC transit).")
    add_chart("Commit latency", KIND_SWEEP, "mean_commit_latency",
              "cycles",
              "Mean chunk-commit latency per sweep cell — the paper's "
              "Figure 13 metric, tracked across revisions.")
    add_chart("Squash rate", KIND_SWEEP, "squash_rate", "squashes/chunk",
              "Conflict + aliasing squashes per committed chunk "
              "(Section 6.1's 1.5% + 2.3%), tracked across revisions.")
    add_chart("Paper-scale throughput", KIND_PERF, "chunks_per_s",
              "chunks/s",
              "Committed chunks per host second on the 32-64-core "
              "benchmarks/perf workloads (median of the timed runs).")

    if failures:
        rows = "".join(
            f"<tr><th>{html.escape(r.kind)}/{html.escape(r.cell_key)}</th>"
            f"<td>{html.escape(r.git_rev or '?')}</td>"
            f'<td class="fail">{html.escape(r.error[:160])}</td></tr>'
            for r in failures[:50])
        more = (f'<p class="note">showing 50 of {len(failures)} '
                f'failures</p>' if len(failures) > 50 else "")
        sections.append(
            f"<h2>Failed cells</h2><table><tr><th>cell</th><th>rev</th>"
            f"<th>error</th></tr>{rows}</table>{more}")

    links = _trace_links(store)
    if links:
        items = "".join(
            f"<li>{html.escape(label)} — <code>{html.escape(path)}</code>"
            f"</li>" for label, path in links[:100])
        sections.append(
            "<h2>Perfetto traces</h2>"
            '<p class="meta">Open each file at '
            '<a href="https://ui.perfetto.dev">ui.perfetto.dev</a>.</p>'
            f"<ul>{items}</ul>")

    kinds = ", ".join(f"{k}: {v}" for k, v in counts.items()) or "empty"
    meta = store.meta()
    return (
        "<!doctype html><html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        "<meta name=\"viewport\" content=\"width=device-width, "
        "initial-scale=1\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="meta">schema {html.escape(meta.get("schema", "?"))} · '
        f"{kinds} · {len(revs_all)} revision(s): "
        f'{html.escape(", ".join(r or "?" for r in revs_all))}</p>'
        + "".join(sections)
        + ("<p class=\"meta\">No plottable records yet — ingest "
           "artifacts or run a campaign first.</p>" if not sections
           else "")
        + "</body></html>")


def write_dashboard(store: ResultStore, out: PathLike,
                    title: Optional[str] = None) -> Path:
    """Render and atomically write the dashboard; returns the path."""
    from repro.harness.sweep import atomic_write_text
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = render_dashboard(store, title or f"repro result store "
                                           f"({store.path.name})")
    atomic_write_text(out, doc)
    return out


__all__ = ["MAX_SERIES", "SERIES_COLORS", "render_dashboard",
           "write_dashboard"]
