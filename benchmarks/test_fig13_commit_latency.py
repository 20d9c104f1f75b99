"""Figure 13: chunk-commit latency distribution per protocol.

Shape (paper, 64p): ScalableBulk has the lowest mean latency; BulkSC's
centralized arbiter queues catastrophically at scale; SEQ pays sequential
occupation on large-group applications.
"""

from repro.config import ProtocolKind
from repro.harness.experiments import (
    commit_latency, mean_latency, render_commit_latency,
)

from conftest import CHUNKS, LARGE_CORES, PARSEC_SUBSET, SPLASH2_SUBSET

APPS = SPLASH2_SUBSET[:3] + PARSEC_SUBSET[:1]


def test_fig13_commit_latency(once, records):
    latency = once(commit_latency, records, APPS)
    print(f"\napps={APPS}:")
    print(render_commit_latency(latency))

    pooled = latency[LARGE_CORES]
    means = {p: mean_latency(counts) for p, counts in pooled.items()}
    sb = means[ProtocolKind.SCALABLEBULK]
    assert sb > 0
    # the serializing protocols pay more than ScalableBulk
    assert means[ProtocolKind.SEQ] > sb
    # latency distributions are non-degenerate
    for proto, counts in pooled.items():
        assert sum(counts.values()) == len(APPS) * LARGE_CORES * CHUNKS, proto
