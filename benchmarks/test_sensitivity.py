"""Sensitivity benches around the paper's design arguments (Section 2.2/2.3).

The chunk-size study reproduces the paper's explanation of why Scalable
TCC's own evaluation saw no commit bottleneck: with 10k+-instruction
transactions, commits are rare enough to hide; at 2k-instruction chunks
they are not.  Each study is a campaign spec of
:mod:`repro.harness.experiments`, collected like the figure matrix and
printed by its own markdown renderer.
"""

from repro.config import ProtocolKind
from repro.harness.experiments import BACKOFF, CHUNK_SIZE, SIGNATURE_GEOMETRY
from repro.harness.sweep import collect
from repro.store.db import ResultStore


def run_study(study, tmp_path):
    with ResultStore(tmp_path / f"{study.spec.name}.db") as store:
        return study.reduce(collect(study.spec, store, log=lambda *_: None))


def test_commit_criticality_vs_chunk_size(once, tmp_path):
    points = once(run_study, CHUNK_SIZE, tmp_path)
    print("\n" + CHUNK_SIZE.render(points))

    seq = {p.point[0]: p for p in points if p.protocol is ProtocolKind.SEQ}
    # commits per kilocycle must fall as chunks grow (fewer, bigger commits)
    assert seq[8000].commits_per_kcycle < seq[1000].commits_per_kcycle
    # and SEQ's commit latency is paid less often, so its relative commit
    # overhead shrinks with chunk size
    assert seq[8000].commit_fraction <= max(seq[1000].commit_fraction,
                                            seq[2000].commit_fraction) + 0.02


def test_signature_geometry_vs_aliasing(once, tmp_path):
    points = once(run_study, SIGNATURE_GEOMETRY, tmp_path)
    print("\n" + SIGNATURE_GEOMETRY.render(points))
    tiny = [p for p in points if p.point == (512, 2)][0]
    big = [p for p in points if p.point == (2048, 8)][-1]
    assert tiny.squashes_alias >= big.squashes_alias


def test_backoff_sweep_completes(once, tmp_path):
    points = once(run_study, BACKOFF, tmp_path)
    print("\n" + BACKOFF.render(points))
    assert all(p.total_cycles > 0 for p in points)
    # group formation fails at 64 cores, so the retry backoff shows
    assert len({p.total_cycles for p in points}) > 1
