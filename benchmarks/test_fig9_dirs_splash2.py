"""Figure 9: directories accessed per chunk commit, SPLASH-2.

Shape: applications average 2-6 directories; Radix is the outlier with a
large group in which nearly every module records writes.
"""

from repro.harness.experiments import dirs_per_commit, render_dirs_per_commit

from conftest import CORE_COUNTS, SPLASH2_SUBSET


def test_fig9_dirs_per_commit_splash2(once, records):
    rows = once(dirs_per_commit, records, SPLASH2_SUBSET)
    big = max(CORE_COUNTS)
    print()
    print(render_dirs_per_commit(rows, "9", "SPLASH-2", big))

    by_app = {r.app: r for r in rows if r.n_cores == big}

    radix = by_app["Radix"]
    assert radix.mean_dirs >= 7, "Radix must access many directories"
    # nearly all of Radix's group records writes (Section 6.2)
    assert radix.mean_write_dirs / radix.mean_dirs > 0.8

    lu = by_app["LU"]
    assert lu.mean_dirs < 4, "blocked LU has small groups"

    assert radix.mean_dirs > 2 * lu.mean_dirs
