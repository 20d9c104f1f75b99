"""Figure 15: bottleneck ratio, PARSEC (ScalableBulk / TCC / SEQ)."""

from repro.config import ProtocolKind
from repro.harness.experiments import bottleneck_ratio, render_bottleneck_ratio

from conftest import LARGE_CORES, PARSEC_SUBSET


def test_fig15_bottleneck_parsec(once, records):
    data = once(bottleneck_ratio, records, PARSEC_SUBSET)
    print()
    print(render_bottleneck_ratio(data, "15", "PARSEC", LARGE_CORES))

    for per_proto in data.values():
        for ratio in per_proto.values():
            assert ratio >= 0.0

    # the large-group app pays more in SEQ than the parallel one
    assert data["Canneal"][ProtocolKind.SEQ] >= \
        data["Swaptions"][ProtocolKind.SEQ] * 0.5
