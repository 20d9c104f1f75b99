"""Figure 10: directories accessed per chunk commit, PARSEC."""

from repro.harness.experiments import dirs_per_commit, render_dirs_per_commit

from conftest import CORE_COUNTS, PARSEC_SUBSET


def test_fig10_dirs_per_commit_parsec(once, records):
    rows = once(dirs_per_commit, records, PARSEC_SUBSET)
    big = max(CORE_COUNTS)
    print()
    print(render_dirs_per_commit(rows, "10", "PARSEC", big))

    by_app = {r.app: r for r in rows if r.n_cores == big}

    # Canneal and Blackscholes have the large groups (Section 6.2)
    assert by_app["Canneal"].mean_dirs > by_app["Swaptions"].mean_dirs
    assert by_app["Blackscholes"].mean_dirs > by_app["Swaptions"].mean_dirs
    # every app engages at least its own directory
    for r in rows:
        assert r.mean_dirs >= 1.0
        assert 0 <= r.mean_write_dirs <= r.mean_dirs
