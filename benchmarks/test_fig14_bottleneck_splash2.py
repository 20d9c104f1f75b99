"""Figure 14: bottleneck ratio, SPLASH-2 (ScalableBulk / TCC / SEQ).

Shape: SEQ's sequential occupation makes group acquisition dwarf commit
completion on large-group apps; ScalableBulk stays moderate.
"""

from repro.config import ProtocolKind
from repro.harness.experiments import bottleneck_ratio, render_bottleneck_ratio

from conftest import LARGE_CORES, SPLASH2_SUBSET


def test_fig14_bottleneck_splash2(once, records):
    data = once(bottleneck_ratio, records, SPLASH2_SUBSET)
    print()
    print(render_bottleneck_ratio(data, "14", "SPLASH-2", LARGE_CORES))

    for app, per_proto in data.items():
        for proto, ratio in per_proto.items():
            assert ratio >= 0.0, (app, proto)

    # SEQ on Radix: formation (occupation) dominates completion
    assert data["Radix"][ProtocolKind.SEQ] > \
        data["Radix"][ProtocolKind.SCALABLEBULK]
