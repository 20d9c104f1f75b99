"""Figure 7: SPLASH-2 execution-time breakdowns across the four protocols.

Shape checks (not absolute numbers): ScalableBulk carries essentially no
commit-stall time; SEQ pays heavy commit serialization on large-group
applications (Radix); overall, ScalableBulk's average speedup is at least
that of SEQ and BulkSC.
"""

from repro.config import ProtocolKind
from repro.harness.experiments import execution_time, render_execution_time

from conftest import CORE_COUNTS, SPLASH2_SUBSET


def test_fig7_splash2_breakdown(once, records):
    fig = once(execution_time, records, SPLASH2_SUBSET)
    big = max(CORE_COUNTS)
    print()
    print(render_execution_time(fig, "7", "SPLASH-2", big))

    sb = fig.average_speedup(ProtocolKind.SCALABLEBULK, big)
    seq = fig.average_speedup(ProtocolKind.SEQ, big)
    bsc = fig.average_speedup(ProtocolKind.BULKSC, big)
    assert sb > 0
    # ScalableBulk wins on average against the serializing protocols
    assert sb >= seq * 0.95
    assert sb >= bsc * 0.95

    # ScalableBulk shows practically no commit stalls (paper Section 6.1)
    sb_commit = fig.average_commit_fraction(ProtocolKind.SCALABLEBULK, big)
    assert sb_commit < 0.05

    # SEQ pays for Radix's large write groups; at the paper's 64-core
    # scale the commit component dominates its bar
    radix_seq = fig.bar("Radix", ProtocolKind.SEQ, big)
    radix_sb = fig.bar("Radix", ProtocolKind.SCALABLEBULK, big)
    if big >= 64:
        assert radix_seq.commit / max(radix_seq.normalized_time, 1e-12) > 0.3
    assert radix_seq.normalized_time >= radix_sb.normalized_time * 0.9

    # large-footprint apps beat linear scaling (aggregate L2 capacity)
    ocean = fig.bar("Ocean", ProtocolKind.SCALABLEBULK, big)
    assert ocean.speedup > big * 0.8
