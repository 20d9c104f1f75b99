"""Figure 17: chunk queue lengths, PARSEC (TCC and SEQ only)."""

from repro.config import ProtocolKind
from repro.harness.experiments import queue_length, render_queue_length

from conftest import LARGE_CORES, PARSEC_SUBSET


def test_fig17_queue_parsec(once, records):
    data = once(queue_length, records, PARSEC_SUBSET)
    print()
    print(render_queue_length(data, "17", "PARSEC", LARGE_CORES))

    for per in data.values():
        for v in per.values():
            assert v >= 0.0

    # the high-commit-pressure app queues more than the parallel one
    assert data["Canneal"][ProtocolKind.SEQ] >= \
        data["Swaptions"][ProtocolKind.SEQ]
