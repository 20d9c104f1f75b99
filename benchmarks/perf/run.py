"""Paper-scale host-time benchmark of the ScalableBulk simulator.

Four closed-loop workloads at the paper's 32-64-core scale, each a fixed
amount of simulated work run one simulation at a time.  Every repeat runs
in a fresh child interpreter (``child.py``), never through a process pool:
a pool on a 2-CPU host would measure the scheduler, and set-up in a
process that already ran a big simulation is about twice as slow as in a
fresh one.

Usage (from the repository root)::

    python benchmarks/perf/run.py [--seed N] [--out FILE]
        all four workloads: 5 timed repeats each, then one traced run each;
        prints every metric with median, IQR and n, and the per-layer table
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload for about S seconds; the last stdout line is one JSON
        object {"correct", "attempted", "failed", "metrics"} holding the
        end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
        named in BENCHMARK.json
    python benchmarks/perf/run.py --compare A.json B.json
        per workload and metric: both medians, both IQRs and a verdict
        under the bounds in BENCHMARK.json

A run fails when it raises, leaves a core unfinished, commits fewer chunks
than the workload holds, or its ``RunResult`` digest differs from the one
recorded in ``expected_digests.json`` for that workload and seed, from the
other repeats', or (for the traced run) from the untraced runs'.  Any
failure makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_DIGESTS = HERE / "expected_digests.json"
TRACE_DIR = HERE / "traces"

DEFAULT_SEED = 2010          #: SystemConfig's default seed
SUITE_REPEATS = 5
#: extra set-up-only children per workload, so setup_s is a median of
#: several fresh set-ups even when few full repeats fit in a timed run
SETUP_PROBES = 3
#: a timed run (--workload) stops starting children after this many seconds
HARD_LIMIT_S = 165.0
SUITE_CHILD_TIMEOUT_S = 900.0


@dataclass(frozen=True)
class Workload:
    app: str
    cores: int
    protocol: str
    chunks: int   #: chunks per partition; one partition per core


#: Why each one is here: see BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    # scattered writes: ~11 directories per commit, CST + signatures hot
    "radix-sb-64": Workload("Radix", 64, "ScalableBulk", 32),
    # high locality, ~0% CST: the control for CST-only changes
    "lu-sb-64": Workload("LU", 64, "ScalableBulk", 128),
    # read-mostly, largest footprint: directory read path and prewarm
    "raytrace-sb-64": Workload("Raytrace", 64, "ScalableBulk", 32),
    # central arbiter nack/resend storm: engine + NoC hot, no CST.  The
    # storm's size varies ~14% between seeds at 8 chunks/partition and ~6%
    # at 16, so the longer run keeps the cross-seed spread inside the bounds.
    "radix-bulksc-32": Workload("Radix", 32, "BulkSC", 16),
}


class ChildFailed(Exception):
    """A child interpreter exited non-zero, timed out or printed no record."""


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(EXPECTED_DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(wl: Workload, seed: int, *, timeout: float,
              setup_only: bool = False, trace_file: str = "") -> dict:
    """Run ``child.py`` once and return its JSON record."""
    cmd = [sys.executable, str(CHILD), "--app", wl.app,
           "--cores", str(wl.cores), "--protocol", wl.protocol,
           "--chunks", str(wl.chunks), "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", trace_file]
    # measure the default signature backend whatever the caller's shell sets
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SIG_BACKEND"}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"unreadable record: {lines[-1][:80]}") from exc


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def e2e_values(rec: dict) -> Dict[str, float]:
    r = rec["result"]
    chunks = r["chunks_committed"]
    return {
        "chunks_per_s": chunks / rec["sim_s"],
        "wall_s": rec["wall_s"],
        "setup_s": rec["setup_s"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "sim_cycles": r["total_cycles"],
        "commit_latency_cycles": r["mean_commit_latency"],
        "messages_per_chunk": r["total_messages"] / chunks,
    }


def model_values(r: dict) -> Dict[str, float]:
    """Simulated-time layer metrics, read from a ``RunResult`` payload."""
    accounted = (r["useful_cycles"] + r["miss_stall_cycles"]
                 + r["commit_stall_cycles"] + r["squash_cycles"]) or 1
    return {
        "model.useful_frac": r["useful_cycles"] / accounted,
        "model.miss_frac": r["miss_stall_cycles"] / accounted,
        "model.commit_frac": r["commit_stall_cycles"] / accounted,
        "model.squash_frac": r["squash_cycles"] / accounted,
        "model.dirs_per_commit": r["mean_dirs_per_commit"],
        "model.bottleneck_ratio": r["bottleneck_ratio"],
        "model.queue_len": r["mean_queue_length"],
        "model.read_nacks": r["read_nacks"],
        "model.squash_rate": (r["squashes_conflict"] + r["squashes_alias"])
        / r["chunks_committed"],
    }


def iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def run_problems(rec: dict, name: str, seed: int, expected: dict) -> List[str]:
    """Why a finished run counts as failed (empty when it passed)."""
    problems = []
    if rec["unfinished_cores"]:
        problems.append(f"unfinished cores {rec['unfinished_cores']}")
    committed = rec["result"]["chunks_committed"]
    if committed < rec["expected_chunks"]:
        problems.append(f"committed {committed} of "
                        f"{rec['expected_chunks']} chunks")
    want = expected.get(name, {}).get(str(seed))
    if want is not None and rec["digest"] != want:
        problems.append(f"digest {rec['digest'][:12]} != recorded "
                        f"{want[:12]}")
    return problems


class Measurement:
    """Every child run of one workload at one seed, and what they gave."""

    def __init__(self, name: str, seed: int, *, expected: dict,
                 chunks: Optional[int] = None,
                 deadline: Optional[float] = None) -> None:
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        if chunks is not None:
            self.workload = replace(self.workload, chunks=chunks)
        self.expected = expected
        self.deadline = deadline   #: time.monotonic() when children stop
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setups: List[float] = []
        self.runs: List[dict] = []
        self.traced: Optional[dict] = None

    def _child(self, **kw) -> Optional[dict]:
        timeout = SUITE_CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(5.0, self.deadline - time.monotonic())
        try:
            return run_child(self.workload, self.seed, timeout=timeout, **kw)
        except ChildFailed as exc:
            self.problems.append(f"{'setup' if kw.get('setup_only') else 'run'}"
                                 f" failed: {exc}")
            return None

    def _judge(self, rec: Optional[dict], reference: Optional[str]) -> bool:
        self.attempted += 1
        problems = [] if rec is None else run_problems(
            rec, self.name, self.seed, self.expected)
        if rec is not None and reference is not None \
                and rec["digest"] != reference:
            problems.append(f"digest {rec['digest'][:12]} differs from the "
                            f"first run's {reference[:12]}")
        self.problems += problems
        if rec is None or problems:
            self.failed += 1
            return False
        return True

    def probe_setup(self) -> None:
        rec = self._child(setup_only=True)
        if rec is not None:
            self.setups.append(rec["setup_s"])

    def run(self) -> None:
        rec = self._child()
        reference = self.runs[0]["digest"] if self.runs else None
        if self._judge(rec, reference):
            self.runs.append(rec)
            self.setups.append(rec["setup_s"])

    def traced_run(self) -> None:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{self.name}-seed{self.seed}.json"
        rec = self._child(trace_file=str(trace_file))
        reference = self.runs[0]["digest"] if self.runs else None
        if self._judge(rec, reference):
            self.traced = rec

    # ------------------------------------------------------------------
    def samples(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for rec in self.runs:
            for metric, value in e2e_values(rec).items():
                out.setdefault(metric, []).append(value)
        if self.setups:
            out["setup_s"] = list(self.setups)
        return out

    def e2e_medians(self) -> Dict[str, float]:
        return {m: statistics.median(v) for m, v in self.samples().items()}

    def layer_metrics(self) -> Dict[str, Optional[float]]:
        """The traced run's per-layer table plus the metrics derived from
        the untraced runs (event and cycle rates, tracing overhead)."""
        out: Dict[str, Optional[float]] = {}
        if self.traced is not None:
            out.update(self.traced["layers"])
        if self.runs:
            out["engine.events_per_s"] = statistics.median(
                r["events"] / r["sim_s"] for r in self.runs)
            out["engine.cycles_per_s"] = statistics.median(
                r["result"]["total_cycles"] / r["sim_s"] for r in self.runs)
            out.update(model_values(self.runs[0]["result"]))
            if self.traced is not None:
                out["trace.overhead"] = self.traced["wall_s"] / \
                    statistics.median(r["wall_s"] for r in self.runs)
        return out

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def summary(self) -> dict:
        samples = self.samples()
        return {
            "workload": asdict(self.workload),
            "seed": self.seed,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digest": self.runs[0]["digest"] if self.runs else None,
            "samples": samples,
            "median": {m: statistics.median(v) for m, v in samples.items()},
            "iqr": {m: iqr(v) for m, v in samples.items()},
            "n": {m: len(v) for m, v in samples.items()},
            "layers": self.layer_metrics(),
            "traced_wall_s": self.traced["wall_s"] if self.traced else None,
        }


def measure_timed(name: str, seed: int, seconds: float, trace: bool, *,
                  expected: dict, chunks: Optional[int] = None
                  ) -> Measurement:
    """One workload for about ``seconds``: set-up probes and untraced runs,
    then (with ``trace``) one traced run.  At least one untraced run always
    happens; another starts only if it is predicted to end in time."""
    start = time.monotonic()
    m = Measurement(name, seed, expected=expected, chunks=chunks,
                    deadline=start + HARD_LIMIT_S)
    if not trace:
        for _ in range(SETUP_PROBES):
            m.probe_setup()
    # a traced run costs up to ~2x an untraced one; leave room for it
    reserve = 2.0 if trace else 0.0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if m.attempted and elapsed + longest * (1 + reserve) > seconds:
            break
        t = time.monotonic()
        m.run()
        longest = max(longest, time.monotonic() - t)
        if not m.runs:
            break   # the first run failed: later ones would too
    if trace and m.runs:
        m.traced_run()
    return m


def measure_suite(name: str, seed: int, *, expected: dict) -> Measurement:
    m = Measurement(name, seed, expected=expected)
    for _ in range(SETUP_PROBES):
        m.probe_setup()
    for _ in range(SUITE_REPEATS):
        m.run()
    if m.runs:
        m.traced_run()
    return m


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or (float(value).is_integer()
                                  and abs(value) > 1e3):
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def print_summary(m: Measurement, bench: dict) -> None:
    wl = m.workload
    s = m.summary()
    print(f"\n== {m.name}: {wl.app}, {wl.cores} cores, {wl.protocol}, "
          f"{wl.chunks} chunks/partition, seed {m.seed}")
    print(f"  {'metric':<24}{'median':>14}{'IQR':>12}{'n':>4}  unit")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        if name in s["median"]:
            print(f"  {name:<24}{fmt(s['median'][name]):>14}"
                  f"{fmt(s['iqr'][name]):>12}{s['n'][name]:>4}  "
                  f"{spec['unit']}")
    print(f"  failed_runs/attempted_runs = {m.failed}/{m.attempted}"
          f"   digest {str(s['digest'])[:16]}")
    for problem in m.problems:
        print(f"  FAILED: {problem}")
    layers = s["layers"]
    if not layers:
        return
    units = {p["name"]: p["unit"] for p in bench["per_layer"]}
    print(f"  traced run: wall {fmt(s['traced_wall_s'])} s, "
          f"trace.overhead {fmt(layers.get('trace.overhead'))}x, trace "
          f"{TRACE_DIR.relative_to(ROOT)}/{m.name}-seed{m.seed}.json")
    print(f"  {'layer':<18}{'calls':>12}{'self_s':>10}{'share%':>8}  extras")
    shares = 0.0
    layer_names = [p["name"][:-len(".share")] for p in bench["per_layer"]
                   if p["name"].endswith(".share")]
    for layer in layer_names:
        share = layers.get(f"{layer}.share")
        shares += share or 0.0
        extras = "  ".join(
            f"{k[len(layer) + 1:]}={fmt(v)} {units.get(k, '')}".rstrip()
            for k, v in layers.items()
            if k.startswith(layer + ".") and k[len(layer) + 1:]
            not in ("calls", "self_s", "share"))
        print(f"  {layer:<18}{fmt(layers.get(layer + '.calls')):>12}"
              f"{fmt(layers.get(layer + '.self_s')):>10}{fmt(share):>8}"
              f"  {extras}")
    print(f"  {'(sum)':<40}{fmt(shares):>8}")
    model = "  ".join(f"{k[len('model.'):]}={fmt(v)}"
                      for k, v in layers.items() if k.startswith("model."))
    print(f"  model: {model}")


def host_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
    }


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """better / same / worse / unresolved for B against A under ``bound``.

    ``worse`` means B's median is worse than A's by more than the bound;
    ``better`` needs the medians to differ by more than A's own IQR.  When
    either side's IQR exceeds the bound, only a clean separation (every run
    of B better, or every run worse) resolves it.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / ma if ma else 0.0
    spread = max(iqr(a) / ma if ma else 0.0, iqr(b) / mb if mb else 0.0)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by * ma > iqr(a) and worse_by < 0:
        return "better"
    return "same"


def compare(path_a: str, path_b: str, bench: dict) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"\n== {name}: missing from {'A' if wa is None else 'B'}")
            continue
        same = "same" if wa["digest"] == wb["digest"] else "DIFFERENT"
        print(f"\n== {name}   RunResult digest: {same}")
        print(f"  {'metric':<24}{'A median':>12}{'A IQR':>10}"
              f"{'B median':>12}{'B IQR':>10}{'bound':>7}  verdict")
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            xa, xb = wa["samples"].get(metric), wb["samples"].get(metric)
            if not xa or not xb:
                continue
            v = verdict(xa, xb, spec["better"], spec["bound"])
            worse += v == "worse"
            print(f"  {metric:<24}{fmt(statistics.median(xa)):>12}"
                  f"{fmt(iqr(xa)):>10}{fmt(statistics.median(xb)):>12}"
                  f"{fmt(iqr(xb)):>10}{spec['bound']:>7.0%}  {v}")
    return 1 if worse else 0


def timed_record(m: Measurement, trace: bool, bench: dict) -> dict:
    """The one-line result of a timed run: end-to-end metrics, or with
    ``trace`` the per-layer metrics, each named in BENCHMARK.json."""
    values = m.layer_metrics() if trace else m.e2e_medians()
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    return {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {p["name"]: {"value": values.get(p["name"]),
                                "unit": p["unit"]} for p in specs},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Paper-scale host-time benchmark of the simulator.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload for --seconds (timed mode)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full results as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        return compare(*args.compare, bench)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    expected = load_expected()

    if args.workload:
        seconds = (bench["run_seconds"] if args.seconds is None
                   else args.seconds)
        m = measure_timed(args.workload, args.seed, seconds,
                          bool(args.trace), expected=expected)
        print_summary(m, bench)
        print(json.dumps(timed_record(m, bool(args.trace), bench)))
        return 0 if m.correct else 1

    results = {"host": host_info(), "seed": args.seed, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        m = measure_suite(name, args.seed, expected=expected)
        print_summary(m, bench)
        sys.stdout.flush()
        results["workloads"][name] = m.summary()
        ok = ok and m.correct
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
