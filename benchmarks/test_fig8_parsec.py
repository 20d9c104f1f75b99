"""Figure 8: PARSEC execution-time breakdowns across the four protocols."""

from repro.config import ProtocolKind
from repro.harness.experiments import execution_time, render_execution_time

from conftest import CORE_COUNTS, PARSEC_SUBSET


def test_fig8_parsec_breakdown(once, records):
    fig = once(execution_time, records, PARSEC_SUBSET)
    big = max(CORE_COUNTS)
    print()
    print(render_execution_time(fig, "8", "PARSEC", big))

    sb = fig.average_speedup(ProtocolKind.SCALABLEBULK, big)
    seq = fig.average_speedup(ProtocolKind.SEQ, big)
    assert sb > 0 and sb >= seq * 0.95

    # ScalableBulk: no commit stalls on PARSEC either
    assert fig.average_commit_fraction(ProtocolKind.SCALABLEBULK, big) < 0.05

    # Canneal's scattered shared writes produce large groups -> SEQ pays
    canneal_seq = fig.bar("Canneal", ProtocolKind.SEQ, big)
    canneal_sb = fig.bar("Canneal", ProtocolKind.SCALABLEBULK, big)
    assert canneal_seq.normalized_time >= canneal_sb.normalized_time

    # the embarrassingly parallel app is insensitive to the protocol
    swap = [fig.bar("Swaptions", p, big).normalized_time
            for p in (ProtocolKind.SCALABLEBULK, ProtocolKind.TCC)]
    assert max(swap) / min(swap) < 1.6
