"""Unified observability layer: instrumentation bus, gauges, exporters.

See ``docs/observability.md`` for the hook-point catalog and a Perfetto
walkthrough.  Typed emit calls are built into the simulator, NoC, cores,
directory engines and baseline protocols — all behind a null-sink fast
path so an uninstrumented run is byte-identical to one with no tracing
at all.  Every checker, tracer, watchdog, profiler and perturbation is a
:class:`NullBus` subclass handed to ``Machine.run(instruments=[...])``.
"""

from repro.obs.bus import (
    NULL_BUS, FanOut, InstrumentationBus, NullBus, ObsEvent, ctag_str,
)
from repro.obs.critical_path import (
    CommitPath, CriticalPathReport, analyze_commit_paths,
)
from repro.obs.export import (
    to_csv, to_jsonl, to_perfetto, to_perfetto_profile, validate_perfetto,
)
from repro.obs.gauges import GaugeSet, RingSeries
from repro.obs.metrics import (
    CounterMetric, FixedHistogram, MetricsRegistry, MetricsStream,
    validate_metrics_jsonl,
)
from repro.obs.profile import (
    HostProfiler, ProfileReport, aggregate_profiles, make_profiler,
)

__all__ = [
    "NULL_BUS", "NullBus", "FanOut", "InstrumentationBus", "ObsEvent",
    "ctag_str",
    "CommitPath", "CriticalPathReport", "analyze_commit_paths",
    "to_csv", "to_jsonl", "to_perfetto", "to_perfetto_profile",
    "validate_perfetto",
    "GaugeSet", "RingSeries",
    "CounterMetric", "FixedHistogram", "MetricsRegistry", "MetricsStream",
    "validate_metrics_jsonl",
    "HostProfiler", "ProfileReport", "aggregate_profiles", "make_profiler",
]
