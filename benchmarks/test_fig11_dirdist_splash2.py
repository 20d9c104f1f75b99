"""Figure 11: distribution of directories per commit, SPLASH-2 at scale."""

from repro.harness.experiments import dirs_distribution, render_distribution

from conftest import LARGE_CORES, SPLASH2_SUBSET


def test_fig11_distribution_splash2(once, records):
    dist = once(dirs_distribution, records, SPLASH2_SUBSET)
    print()
    print(render_distribution(dist, "11", "SPLASH-2", LARGE_CORES))

    for app, pct in dist.items():
        total = sum(pct.values())
        assert abs(total - 100.0) < 1e-6, app

    # Radix's mass sits at high directory counts; LU's at low counts
    radix_low = sum(v for k, v in dist["Radix"].items()
                    if isinstance(k, int) and k <= 3)
    lu_low = sum(v for k, v in dist["LU"].items()
                 if isinstance(k, int) and k <= 3)
    assert lu_low > 80
    assert radix_low < 40
