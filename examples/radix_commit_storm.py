#!/usr/bin/env python
"""Radix's commit storm: the workload that stresses every protocol.

Radix sort scatters writes across random bucket pages with no spatial
locality, so each 2000-instruction chunk commits through ~a dozen
directory modules, nearly all of them recording writes (paper Fig. 9).
This example characterizes that behaviour: the directory-spread
distribution (Fig. 11), and how group formation behaves as core count
grows.

Run:  python examples/radix_commit_storm.py
"""

from repro import ProtocolKind, SimulationRunner, SystemConfig
from repro.harness.experiments import dirs_percentages


def main() -> None:
    print("=== Radix directory spread (paper Figs. 9/11) ===\n")
    for n_cores in (16, 36):
        config = SystemConfig(n_cores=n_cores,
                              protocol=ProtocolKind.SCALABLEBULK)
        runner = SimulationRunner("Radix", config, chunks_per_partition=3)
        result = runner.run(keep_machine=True)
        stats = result.machine.protocol.stats

        print(f"{n_cores} cores: {result.mean_dirs_per_commit:.2f} "
              f"directories per commit "
              f"({result.mean_write_dirs_per_commit:.2f} in the write group)")
        pct = dirs_percentages(stats.dirs_per_commit_hist)
        print("  dirs:  " + " ".join(f"{d:>4}" for d in range(15)) + " more")
        print("  pct :  " + " ".join(
            f"{pct.get(d, 0):4.0f}" for d in range(15))
            + f" {pct['more']:4.0f}")

        print(f"  group formation: {stats.group_collisions} collisions, "
              f"{stats.commit_failures} formation failures, "
              f"{stats.commit_recalls} OCI recalls")
        print(f"  bottleneck ratio {result.bottleneck_ratio:.2f}, "
              f"commit latency {result.mean_commit_latency:.0f} cycles\n")

    print("=== Who survives the storm? (16 cores) ===\n")
    for proto in (ProtocolKind.SCALABLEBULK, ProtocolKind.SEQ):
        config = SystemConfig(n_cores=16, protocol=proto)
        result = SimulationRunner("Radix", config,
                                  chunks_per_partition=3).run()
        frac = result.breakdown_fractions()
        print(f"{proto.value:14s} total {result.total_cycles:8,d} cycles | "
              f"commit stall {frac['Commit'] * 100:5.1f}% | "
              f"queue {result.mean_queue_length:5.2f}")
    print("\nSEQ must occupy ~a dozen modules one by one per commit; "
          "ScalableBulk forms the whole group in parallel and overlaps "
          "non-conflicting groups on the same modules.")


if __name__ == "__main__":
    main()
