"""Figure 16: chunk queue lengths, SPLASH-2 (TCC and SEQ only).

ScalableBulk chunks never queue (full overlap); TCC and SEQ queue chunks
behind earlier commits at shared directories.
"""

from repro.config import ProtocolKind
from repro.harness.experiments import queue_length, render_queue_length

from conftest import LARGE_CORES, SPLASH2_SUBSET


def test_fig16_queue_splash2(once, records):
    data = once(queue_length, records, SPLASH2_SUBSET)
    print()
    print(render_queue_length(data, "16", "SPLASH-2", LARGE_CORES))

    # queues exist somewhere for both serializing protocols
    assert any(per[ProtocolKind.SEQ] > 0.5 for per in data.values())
    # Radix queues hardest under SEQ (large write groups)
    assert data["Radix"][ProtocolKind.SEQ] >= \
        max(per[ProtocolKind.SEQ] for app, per in data.items()
            if app != "Radix") * 0.8


def test_scalablebulk_queues_nothing(once, records):
    data = once(queue_length, records, ["Radix"])
    assert data["Radix"][ProtocolKind.SCALABLEBULK] == 0.0
