"""Tests for the process-pool fan-out layer (repro.harness.parallel).

The contract under test: a ``--jobs N`` run must be indistinguishable from
the serial run except for wall-clock — same results, same merge order,
same sweep export.
"""

import contextlib
import io
import json
import sqlite3
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import sweep
from repro.harness.parallel import resolve_jobs, run_ordered


# Workers must be module top-level so the pool can pickle them by reference.
def _square(x):
    return x * x


def _sleep_inverse(payload):
    """Later submissions finish first — the reordering stress case."""
    index, delay = payload
    time.sleep(delay)
    return index


def _boom(x):
    if x == 3:
        raise ValueError("payload 3 exploded")
    return x


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_floor_is_one(self):
        assert resolve_jobs(-4) == 1


class TestRunOrdered:
    def test_serial_results_and_hook_order(self):
        seen = []
        results = run_ordered(_square, [1, 2, 3], jobs=1,
                              on_result=lambda i, p, r: seen.append((i, p, r)))
        assert results == [1, 4, 9]
        assert seen == [(0, 1, 1), (1, 2, 4), (2, 3, 9)]

    def test_parallel_results_match_serial(self):
        serial = run_ordered(_square, list(range(8)), jobs=1)
        parallel = run_ordered(_square, list(range(8)), jobs=2)
        assert parallel == serial

    def test_merge_order_is_submission_order_even_when_late_tasks_finish_first(self):
        # First task sleeps longest; with 3 workers the others complete
        # earlier, yet the hook must still fire 0, 1, 2.
        payloads = [(0, 0.15), (1, 0.0), (2, 0.0)]
        order = []
        run_ordered(_sleep_inverse, payloads, jobs=3,
                    on_result=lambda i, p, r: order.append(r))
        assert order == [0, 1, 2]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="payload 3"):
            run_ordered(_boom, [1, 2, 3, 4], jobs=2)
        with pytest.raises(ValueError, match="payload 3"):
            run_ordered(_boom, [1, 2, 3, 4], jobs=1)

    def test_single_payload_never_builds_a_pool(self):
        # jobs > 1 with one payload takes the inline path: a lambda (not
        # picklable) still works.
        assert run_ordered(lambda x: x + 1, [41], jobs=8) == [42]

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=12),
           st.integers(2, 4))
    def test_property_serial_and_parallel_agree(self, payloads, jobs):
        serial_hook, parallel_hook = [], []
        serial = run_ordered(
            _square, payloads, jobs=1,
            on_result=lambda i, p, r: serial_hook.append((i, p, r)))
        parallel = run_ordered(
            _square, payloads, jobs=jobs,
            on_result=lambda i, p, r: parallel_hook.append((i, p, r)))
        assert parallel == serial
        assert parallel_hook == serial_hook


def _strip_wall(records):
    wall_fields = ("wall_seconds", "wall_seconds_raw")
    return {k: {f: v for f, v in rec.items() if f not in wall_fields}
            for k, rec in records.items()}


def _sweep_lu(db, json_path, jobs):
    """A one-app sweep into ``db``; returns its printed log."""
    logs = io.StringIO()
    with contextlib.redirect_stdout(logs):
        assert sweep.main(["--apps", "LU", "--cores", "4", "--chunks", "1",
                           "--jobs", str(jobs), "--store", str(db),
                           "--json", str(json_path),
                           "--markdown", str(json_path.with_suffix(".md"))
                           ]) == 0
    return logs.getvalue()


class TestSweepRoundTrip:
    def test_serial_and_parallel_sweeps_produce_identical_json(self, tmp_path):
        """The headline property: ``--jobs N`` changes nothing but
        wall-clock.  Both exports must hold the same records in the same
        key order."""
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        _sweep_lu(tmp_path / "serial.db", serial_json, jobs=1)
        _sweep_lu(tmp_path / "parallel.db", parallel_json, jobs=2)
        on_disk_serial = json.loads(serial_json.read_text())
        on_disk_parallel = json.loads(parallel_json.read_text())
        # dict order round-trips through JSON: key order must match too
        assert list(on_disk_serial) == list(on_disk_parallel)
        assert _strip_wall(on_disk_serial) == _strip_wall(on_disk_parallel)

    def test_parallel_sweep_resumes_from_serial_cache(self, tmp_path):
        db = tmp_path / "sweep.db"
        _sweep_lu(db, tmp_path / "s.json", jobs=1)
        log = _sweep_lu(db, tmp_path / "s.json", jobs=2)
        assert "5 cached, 0 to run" in log
        assert "ran=0 " in log

    def test_parallel_sweep_fills_partial_cache_in_canonical_order(self, tmp_path):
        db = tmp_path / "sweep.db"
        full_json = tmp_path / "full.json"
        _sweep_lu(db, full_json, jobs=1)
        full = json.loads(full_json.read_text())
        # drop two rows from the middle of the matrix; the parallel resume
        # re-runs exactly those, and the export slots them back in
        # canonical order even though their new rows are the newest
        keys = list(full)
        with contextlib.closing(sqlite3.connect(db)) as conn, conn:
            conn.executemany("DELETE FROM records WHERE series = ?",
                             [(keys[1],), (keys[3],)])
        resumed_json = tmp_path / "resumed.json"
        log = _sweep_lu(db, resumed_json, jobs=2)
        assert "3 cached, 2 to run" in log
        resumed = json.loads(resumed_json.read_text())
        assert list(resumed) == keys
        assert _strip_wall(resumed) == _strip_wall(full)
