"""The paper's figures, each reduced once from campaign records (the
per-experiment index of DESIGN.md).

Every figure is one pipeline: **records -> reducer -> renderer**.

* The records are the ``{sweep key: record}`` dict that
  :func:`repro.harness.sweep.collect` returns: one
  :func:`repro.store.campaign.run_one` record per matrix cell, keyed
  ``App/N/Proto/Active``.  The machine sizes come from the keys.
* A reducer is a pure function of the records and the apps it plots.
  It yields the figure's rows.  Figures drawn at one machine size use
  the largest one.
* A renderer turns those rows into the figure's markdown section.
  :func:`repro.harness.sweep.render_markdown` (EXPERIMENTS.md) is a
  header plus one ``render(reduce(records, apps))`` per figure, and the
  figure suite under ``benchmarks/`` prints the same sections.

The sensitivity studies (Sections 2.2 and 2.3) are :class:`Study`
campaign specs, each with its own reducer and renderer.

The single-processor baseline of Figures 7/8 runs the *same machine* with
one active core executing every partition, exactly as the paper
normalizes ("normalized to the execution time of single-processor runs on
the same architecture with ScalableBulk").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.config import ProtocolKind
from repro.network.message import TrafficClass
from repro.store.campaign import BASELINE, CampaignSpec, key_of

#: ``{sweep key: record}``, as :func:`repro.harness.sweep.collect` returns.
Records = Mapping[str, Mapping[str, Any]]

ALL_PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC,
                 ProtocolKind.SEQ, ProtocolKind.BULKSC)

#: Distributed protocols shown in the bottleneck-ratio figures (BulkSC
#: forms no groups, so the paper omits it there).
GROUPING_PROTOCOLS = (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC,
                      ProtocolKind.SEQ)

#: Figures 16/17's columns: the two protocols with directory queues, then
#: ScalableBulk, whose chunks never queue.
QUEUE_PROTOCOLS = (ProtocolKind.TCC, ProtocolKind.SEQ,
                   ProtocolKind.SCALABLEBULK)

#: Figures 11/12's x-axis: 0..14 directories, the rest under "more".
DIRS_UPPER = 14

#: Figure 13's published means (cycles, 64p).
PAPER_LATENCY_64P = {"ScalableBulk": 91, "TCC": 411, "SEQ": 153,
                     "BulkSC": 2954}

#: Display order for the traffic figures (read classes then commit classes).
TRAFFIC_ORDER = ("MemRd", "RemoteShRd", "RemoteDirtyRd", "LargeCMessage",
                 "SmallCMessage")


def core_counts(records: Records) -> List[int]:
    """The matrix's machine sizes in matrix order (1p baselines excluded)."""
    return list(dict.fromkeys(rec["n_cores"] for rec in records.values()
                              if rec["active_cores"] == rec["n_cores"]))


def _cell(records: Records, app: str, n_cores: int,
          protocol: ProtocolKind) -> Mapping[str, Any]:
    return records[key_of(app, n_cores, protocol.value, n_cores)]


# ----------------------------------------------------------------------
# Figures 7/8: execution-time breakdowns
# ----------------------------------------------------------------------
@dataclass
class BreakdownBar:
    """One bar of Figures 7/8: normalized time split into four categories."""

    app: str
    protocol: ProtocolKind
    n_cores: int
    normalized_time: float
    speedup: float
    useful: float
    cache_miss: float
    commit: float
    squash: float

    @classmethod
    def from_record(cls, rec: Mapping[str, Any], baseline_cycles: int
                    ) -> "BreakdownBar":
        total = max(1, rec["useful"] + rec["miss"] + rec["commit"]
                    + rec["squash"])
        norm = rec["total_cycles"] / max(1, baseline_cycles)
        return cls(
            app=rec["app"], protocol=ProtocolKind(rec["protocol"]),
            n_cores=rec["n_cores"], normalized_time=norm,
            speedup=baseline_cycles / max(1, rec["total_cycles"]),
            useful=norm * rec["useful"] / total,
            cache_miss=norm * rec["miss"] / total,
            commit=norm * rec["commit"] / total,
            squash=norm * rec["squash"] / total,
        )


@dataclass
class Figure7Result:
    """Figures 7/8: bars per (app, core count, protocol) + baselines."""

    bars: List[BreakdownBar] = field(default_factory=list)
    baselines: Dict[str, int] = field(default_factory=dict)  #: app -> 1p cycles

    def bar(self, app: str, protocol: ProtocolKind, n_cores: int
            ) -> BreakdownBar:
        for b in self.bars:
            if b.app == app and b.protocol == protocol and b.n_cores == n_cores:
                return b
        raise KeyError((app, protocol, n_cores))

    def average_speedup(self, protocol: ProtocolKind, n_cores: int) -> float:
        xs = [b.speedup for b in self.bars
              if b.protocol == protocol and b.n_cores == n_cores]
        return sum(xs) / len(xs) if xs else 0.0

    def average_commit_fraction(self, protocol: ProtocolKind,
                                n_cores: int) -> float:
        bars = [b for b in self.bars
                if b.protocol == protocol and b.n_cores == n_cores]
        if not bars:
            return 0.0
        return sum(b.commit / max(b.normalized_time, 1e-12) for b in bars) / len(bars)


def execution_time(records: Records, apps: Sequence[str]) -> Figure7Result:
    """Figures 7 (SPLASH-2) / 8 (PARSEC): every bar normalized to its
    app's 1p ScalableBulk baseline on the largest machine."""
    sizes = core_counts(records)
    out = Figure7Result()
    for app in apps:
        base = records[key_of(app, max(sizes), BASELINE, 1)]["total_cycles"]
        out.baselines[app] = base
        for n in sizes:
            for proto in ALL_PROTOCOLS:
                out.bars.append(BreakdownBar.from_record(
                    _cell(records, app, n, proto), base))
    return out


def render_execution_time(fig: Figure7Result, figno: str, suite: str,
                          big: int) -> str:
    lines = [f"### Figure {figno} — {suite} execution time "
             f"(normalized to 1p ScalableBulk)\n",
             "| app | cores | protocol | norm. time | speedup | useful | "
             "miss | commit | squash |",
             "|---|---|---|---|---|---|---|---|---|"]
    for b in fig.bars:
        lines.append(
            f"| {b.app} | {b.n_cores} | {b.protocol.value} | "
            f"{b.normalized_time:.4f} | {b.speedup:.1f} | {b.useful:.4f} | "
            f"{b.cache_miss:.4f} | {b.commit:.4f} | {b.squash:.4f} |")
    lines.append("")
    for n in dict.fromkeys(b.n_cores for b in fig.bars):
        for proto in ALL_PROTOCOLS:
            lines.append(f"* AVERAGE speedup, {proto.value} @ {n}p: "
                         f"**{fig.average_speedup(proto, n):.1f}**")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 9/10: directories per commit
# ----------------------------------------------------------------------
@dataclass
class DirsPerCommitRow:
    """One bar of Figures 9/10 (split into write group and read group)."""

    app: str
    n_cores: int
    mean_dirs: float
    mean_write_dirs: float

    @property
    def mean_read_only_dirs(self) -> float:
        return self.mean_dirs - self.mean_write_dirs


def dirs_per_commit(records: Records, apps: Sequence[str]
                    ) -> List[DirsPerCommitRow]:
    """Figures 9/10: average directories per chunk commit (ScalableBulk)."""
    rows = []
    for app in apps:
        for n in core_counts(records):
            rec = _cell(records, app, n, ProtocolKind.SCALABLEBULK)
            rows.append(DirsPerCommitRow(
                app=app, n_cores=n, mean_dirs=rec["mean_dirs"],
                mean_write_dirs=rec["mean_write_dirs"]))
    return rows


def render_dirs_per_commit(rows: Sequence[DirsPerCommitRow], figno: str,
                           suite: str, big: int) -> str:
    lines = [f"### Figure {figno} — directories per chunk commit ({suite})\n",
             "| app | cores | dirs/commit | write group | read-only group |",
             "|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r.app} | {r.n_cores} | {r.mean_dirs:.2f} | "
                     f"{r.mean_write_dirs:.2f} | "
                     f"{r.mean_read_only_dirs:.2f} |")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 11/12: distribution of directories per commit
# ----------------------------------------------------------------------
def dirs_percentages(hist: Mapping[Any, int]) -> Dict[object, float]:
    """A ``{dirs: commits}`` histogram (keys may be JSON strings) as the
    percent of commits at each of 0..14 directories, the rest under
    ``"more"``; all zeros when empty."""
    counts: Counter = Counter()
    for k, v in hist.items():
        counts[min(int(k), DIRS_UPPER + 1)] += v
    n = sum(counts.values())
    pct: Dict[object, float] = {
        d: 100.0 * counts[d] / n if n else 0.0 for d in range(DIRS_UPPER + 1)}
    pct["more"] = 100.0 * counts[DIRS_UPPER + 1] / n if n else 0.0
    return pct


def dirs_distribution(records: Records, apps: Sequence[str]
                      ) -> Dict[str, Dict[object, float]]:
    """Figures 11/12: per app, the percent of ScalableBulk commits at each
    directory count, on the largest machine."""
    big = max(core_counts(records))
    return {app: dirs_percentages(_cell(
        records, app, big, ProtocolKind.SCALABLEBULK)["dirs_hist"])
        for app in apps}


def render_distribution(dist: Mapping[str, Mapping[object, float]],
                        figno: str, suite: str, big: int) -> str:
    cols: List[object] = list(range(DIRS_UPPER + 1)) + ["more"]
    lines = [f"### Figure {figno} — distribution of dirs/commit "
             f"({suite}, {big}p, % of commits)\n",
             "| app | " + " | ".join(str(c) for c in cols) + " |",
             "|---|" + "---|" * len(cols)]
    for app, pct in dist.items():
        lines.append(f"| {app} | "
                     + " | ".join(f"{pct[c]:.0f}" for c in cols) + " |")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 13: commit latency
# ----------------------------------------------------------------------
def commit_latency(records: Records, apps: Sequence[str]
                   ) -> Dict[int, Dict[ProtocolKind, Counter]]:
    """Figure 13: per machine size and protocol, the commit latencies of
    ``apps`` pooled into one ``{latency: commits}`` histogram."""
    out: Dict[int, Dict[ProtocolKind, Counter]] = {}
    for n in core_counts(records):
        out[n] = {}
        for proto in ALL_PROTOCOLS:
            pooled: Counter = Counter()
            for app in apps:
                for k, v in _cell(records, app, n, proto)["latency_hist"].items():
                    pooled[int(k)] += v
            out[n][proto] = pooled
    return out


def mean_latency(pooled: Mapping[int, int]) -> float:
    """The mean of a ``{latency: commits}`` histogram (0.0 when empty)."""
    count = sum(pooled.values())
    return sum(k * v for k, v in pooled.items()) / count if count else 0.0


def render_commit_latency(latency: Mapping[int, Mapping[ProtocolKind, Counter]]
                          ) -> str:
    big, small = max(latency), min(latency)
    lines = [f"### Figure 13 — commit latency ({big}p, mean cycles over "
             f"all apps)\n",
             "| protocol | measured mean | paper mean (64p) |",
             "|---|---|---|"]
    for proto, pooled in latency[big].items():
        lines.append(f"| {proto.value} | {mean_latency(pooled):.0f} | "
                     f"{PAPER_LATENCY_64P[proto.value]} |")
    lines.append("")
    if small != big:
        lines.append(f"At {small}p, measured means: " + ", ".join(
            f"{proto.value}={mean_latency(pooled):.0f}"
            for proto, pooled in latency[small].items())
            + " (paper at 32p: ScalableBulk=74, TCC=402, SEQ=107, "
              "BulkSC=98)\n")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 14-17: bottleneck ratio and chunk queue length
# ----------------------------------------------------------------------
def _per_protocol(records: Records, apps: Sequence[str], metric: str,
                  protocols: Sequence[ProtocolKind]
                  ) -> Dict[str, Dict[ProtocolKind, float]]:
    big = max(core_counts(records))
    return {app: {p: _cell(records, app, big, p)[metric] for p in protocols}
            for app in apps}


def bottleneck_ratio(records: Records, apps: Sequence[str]
                     ) -> Dict[str, Dict[ProtocolKind, float]]:
    """Figures 14/15: bottleneck ratio per app per grouping protocol."""
    return _per_protocol(records, apps, "bottleneck_ratio",
                         GROUPING_PROTOCOLS)


def queue_length(records: Records, apps: Sequence[str]
                 ) -> Dict[str, Dict[ProtocolKind, float]]:
    """Figures 16/17: average chunk queue length per app."""
    return _per_protocol(records, apps, "mean_queue", QUEUE_PROTOCOLS)


def _render_per_protocol(data: Mapping[str, Mapping[ProtocolKind, float]],
                         heading: str) -> str:
    protos = list(next(iter(data.values())))
    lines = [heading,
             "| app | " + " | ".join(p.value for p in protos) + " |",
             "|---|" + "---|" * len(protos)]
    for app, per_proto in data.items():
        lines.append(f"| {app} | "
                     + " | ".join(f"{per_proto[p]:.2f}" for p in protos)
                     + " |")
    lines.append("")
    return "\n".join(lines)


def render_bottleneck_ratio(data: Mapping[str, Mapping[ProtocolKind, float]],
                            figno: str, suite: str, big: int) -> str:
    return _render_per_protocol(
        data, f"### Figure {figno} — bottleneck ratio ({suite}, {big}p)\n")


def render_queue_length(data: Mapping[str, Mapping[ProtocolKind, float]],
                        figno: str, suite: str, big: int) -> str:
    return _render_per_protocol(
        data, f"### Figure {figno} — chunk queue length ({suite}, {big}p)\n")


# ----------------------------------------------------------------------
# Figures 18/19: traffic characterization
# ----------------------------------------------------------------------
def traffic(records: Records, apps: Sequence[str]
            ) -> Dict[str, Dict[ProtocolKind, Dict[str, int]]]:
    """Figures 18/19: message counts by class, per app per protocol, on
    the largest machine."""
    big = max(core_counts(records))
    return {app: {p: dict(_cell(records, app, big, p)["traffic"])
                  for p in ALL_PROTOCOLS} for app in apps}


def normalize_traffic(per_proto: Mapping[ProtocolKind, Mapping[str, int]]
                      ) -> Dict[ProtocolKind, Dict[str, float]]:
    """Normalize message counts to TCC's total, folding request/forward
    control traffic ('Other') into the read class mix as the paper does."""
    def folded(counts: Mapping[str, int]) -> Dict[str, float]:
        out = {k: float(counts.get(k, 0)) for k in TRAFFIC_ORDER}
        other = float(counts.get(TrafficClass.OTHER.value, 0))
        reads = out["MemRd"] + out["RemoteShRd"] + out["RemoteDirtyRd"]
        if reads > 0:
            for k in ("MemRd", "RemoteShRd", "RemoteDirtyRd"):
                out[k] += other * out[k] / reads
        else:
            out["MemRd"] += other
        return out

    tcc = per_proto.get(ProtocolKind.TCC)
    tcc_total = sum(folded(tcc).values()) if tcc else None
    result: Dict[ProtocolKind, Dict[str, float]] = {}
    for proto, counts in per_proto.items():
        f = folded(counts)
        denom = tcc_total or sum(f.values()) or 1.0
        result[proto] = {k: 100.0 * v / denom for k, v in f.items()}
    return result


def render_traffic(data: Mapping[str, Mapping[ProtocolKind, Mapping[str, int]]],
                   figno: str, suite: str, big: int) -> str:
    lines = [f"### Figure {figno} — message mix ({suite}, {big}p, % of TCC "
             f"total)\n",
             "| app | protocol | " + " | ".join(TRAFFIC_ORDER) + " | total |",
             "|---|---|" + "---|" * (len(TRAFFIC_ORDER) + 1)]
    for app, per_proto in data.items():
        for proto, mix in normalize_traffic(per_proto).items():
            row = " | ".join(f"{mix[k]:.1f}" for k in TRAFFIC_ORDER)
            lines.append(f"| {app} | {proto.value} | {row} | "
                         f"{sum(mix.values()):.1f} |")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Section 6.1: squash rates
# ----------------------------------------------------------------------
def squash_rates(records: Records, apps: Sequence[str]
                 ) -> Tuple[float, float]:
    """Section 6.1: ScalableBulk's conflict and aliasing squashes on the
    largest machine, as percentages of committed chunks."""
    big = max(core_counts(records))
    chunks = conflict = alias = 0
    for app in apps:
        rec = _cell(records, app, big, ProtocolKind.SCALABLEBULK)
        chunks += rec["chunks_committed"]
        conflict += rec["squashes_conflict"]
        alias += rec["squashes_alias"]
    return (100 * conflict / max(1, chunks), 100 * alias / max(1, chunks))


def render_squash_rates(rates: Tuple[float, float], big: int) -> str:
    conflict, alias = rates
    return "\n".join([
        f"### Squash rates (ScalableBulk, {big}p; paper: 1.5% conflicts + "
        f"2.3% aliasing)\n",
        f"* conflicts: {conflict:.1f}% of chunks; aliasing: {alias:.1f}%\n"])


# ----------------------------------------------------------------------
# Sensitivity studies (Sections 2.2 and 2.3)
# ----------------------------------------------------------------------
@dataclass
class StudyRow:
    """One (overrides point, protocol) cell of a :class:`Study`."""

    point: Tuple[Any, ...]  #: the study's axis values at this cell
    protocol: ProtocolKind
    total_cycles: int
    commit_fraction: float
    squash_fraction: float
    mean_commit_latency: float
    commits_per_kcycle: float
    squashes_alias: int


@dataclass(frozen=True)
class Study:
    """A campaign over an ``overrides`` axis; ``axes`` label its rows."""

    title: str
    axes: Tuple[str, ...]
    spec: CampaignSpec

    def reduce(self, records: Records) -> List[StudyRow]:
        rows: List[StudyRow] = []
        for rec in records.values():
            accounted = max(1, rec["useful"] + rec["miss"] + rec["commit"]
                            + rec["squash"])
            rows.append(StudyRow(
                tuple(rec["overrides"][a] for a in self.axes),
                ProtocolKind(rec["protocol"]), rec["total_cycles"],
                rec["commit"] / accounted, rec["squash"] / accounted,
                rec["mean_commit_latency"],
                1000.0 * rec["chunks_committed"] / max(1, rec["total_cycles"]),
                rec["squashes_alias"]))
        return rows

    def render(self, rows: Sequence[StudyRow]) -> str:
        cols = (*self.axes, "protocol", "cycles", "commit %", "squash %",
                "commit latency", "commits/kcycle", "alias squashes")
        lines = [f"### {self.title}\n", "| " + " | ".join(cols) + " |",
                 "|" + "---|" * len(cols)]
        for r in rows:
            cells = (*r.point, r.protocol.value, r.total_cycles,
                     f"{r.commit_fraction * 100:.1f}",
                     f"{r.squash_fraction * 100:.1f}",
                     f"{r.mean_commit_latency:.1f}",
                     f"{r.commits_per_kcycle:.2f}", r.squashes_alias)
            lines.append("| " + " | ".join(map(str, cells)) + " |")
        return "\n".join(lines + [""])


# Section 2.2: total work held constant against 3 chunks of 2000
# instructions, so bigger chunks are proportionally fewer and each
# touches proportionally more lines; commits fade as chunks grow.
CHUNK_SIZE = Study(
    "Commit criticality vs chunk size (Section 2.2; Radix, 16 cores)",
    ("chunk_size_instructions",),
    CampaignSpec(name="chunk-size", apps=("Radix",), cores=(16,),
                 protocols=("ScalableBulk", "SEQ"), baseline1p=False,
                 overrides=tuple({"chunk_size_instructions": size,
                                  "chunks": max(1, round(3 * 2000 / size)),
                                  "access_scale": size / 2000}
                                 for size in (1000, 2000, 8000, 20000))))

# Section 2.3: aliasing squashes against the signature's (bits, banks).
SIGNATURE_GEOMETRY = Study(
    "Aliasing vs signature geometry (Section 2.3; Barnes, 16 cores)",
    ("signature_bits", "signature_banks"),
    CampaignSpec(name="signature-geometry", apps=("Barnes",), cores=(16,),
                 protocols=("ScalableBulk",), chunks=3, baseline1p=False,
                 overrides=tuple({"signature_bits": bits,
                                  "signature_banks": banks}
                                 for bits, banks in ((512, 2), (1024, 4),
                                                     (2048, 4), (2048, 8)))))

# The retry-backoff sensitivity of group formation under contention.
BACKOFF = Study(
    "Group-formation retry backoff (Canneal, 16 cores)",
    ("commit_retry_backoff_cycles",),
    CampaignSpec(name="backoff", apps=("Canneal",), cores=(16,),
                 protocols=("ScalableBulk",), chunks=3, baseline1p=False,
                 overrides=tuple({"commit_retry_backoff_cycles": cycles}
                                 for cycles in (10, 30, 100, 300))))

STUDIES = (CHUNK_SIZE, SIGNATURE_GEOMETRY, BACKOFF)


__all__ = [
    "ALL_PROTOCOLS",
    "BACKOFF",
    "BreakdownBar",
    "CHUNK_SIZE",
    "DirsPerCommitRow",
    "Figure7Result",
    "GROUPING_PROTOCOLS",
    "QUEUE_PROTOCOLS",
    "Records",
    "SIGNATURE_GEOMETRY",
    "STUDIES",
    "Study",
    "StudyRow",
    "TRAFFIC_ORDER",
    "bottleneck_ratio",
    "commit_latency",
    "core_counts",
    "dirs_distribution",
    "dirs_per_commit",
    "dirs_percentages",
    "execution_time",
    "mean_latency",
    "normalize_traffic",
    "queue_length",
    "render_bottleneck_ratio",
    "render_commit_latency",
    "render_dirs_per_commit",
    "render_distribution",
    "render_execution_time",
    "render_queue_length",
    "render_squash_rates",
    "render_traffic",
    "squash_rates",
    "traffic",
]
