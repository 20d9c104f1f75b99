"""Figure 19: traffic characterization, PARSEC."""

from repro.config import ProtocolKind
from repro.harness.experiments import render_traffic, traffic

from conftest import LARGE_CORES, PARSEC_SUBSET


def test_fig19_traffic_parsec(once, records):
    data = once(traffic, records, PARSEC_SUBSET)
    print()
    print(render_traffic(data, "19", "PARSEC", LARGE_CORES))

    for app, per_proto in data.items():
        totals = {p: sum(c.values()) for p, c in per_proto.items()}
        assert totals[ProtocolKind.TCC] == max(totals.values()), app
        # BulkSC funnels everything through the arbiter but sends far
        # fewer messages than TCC's broadcast storm
        assert totals[ProtocolKind.BULKSC] < totals[ProtocolKind.TCC], app
