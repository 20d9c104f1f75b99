#!/usr/bin/env python
"""Trace a chunk's life through the protocol.

Runs a small contended machine with an instrumentation bus as its one
instrument and prints (1) the machine-wide event summary and (2) the full
timeline of one chunk that lost a group-formation collision and retried —
the debugging workflow for protocol investigations.

Run:  python examples/debug_timeline.py
"""

from repro import Machine, ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.obs.bus import (COMMIT_COMPLETE, GROUP_FAILED, SQUASH,
                           InstrumentationBus, ctag_str)


def chunk_of(ctag):
    """The chunk tag of an event as text; commit ids render as
    ``tag#attempt``, so every attempt maps back to its chunk."""
    text = ctag_str(ctag)
    return text.split("#")[0] if text else None


def timeline(bus, tag) -> str:
    """Every recorded event of one chunk, across all its commit attempts."""
    lines = [f"timeline for {tag}:"]
    for e in bus.events:
        if chunk_of(e.ctag) == tag:
            detail = " ".join(f"{k}={v}" for k, v in sorted(e.fields.items()))
            lines.append(f"  t={e.time:>8d} {e.kind:16s} {e.src:7s} {detail}")
    return "\n".join(lines)


def main() -> None:
    config = SystemConfig(n_cores=9, seed=11,
                          protocol=ProtocolKind.SCALABLEBULK)
    # every core hammers the same two pages: guaranteed collisions
    pages = (32 * 128 * 300, 32 * 128 * 460)

    def specs(core):
        return [ChunkSpec(250, [
            ChunkAccess(1, pages[0] + 32 * core, True),
            ChunkAccess(1, pages[1] + 32 * core, True),
            ChunkAccess(1, pages[0] + 32 * ((core + 1) % 9), False),
        ]) for _ in range(3)]

    remaining = {c: specs(c) for c in range(9)}
    machine = Machine(config, next_spec=lambda c: (
        remaining.get(c).pop(0) if remaining.get(c) else None))
    bus = InstrumentationBus(record_messages=False)
    machine.run(instruments=[bus])

    print("machine-wide event summary:")
    for kind, count in sorted(bus.summary().items()):
        print(f"  {kind:16s} {count}")

    failures = bus.of_kind(GROUP_FAILED)
    print(f"\n{len(failures)} group-formation failures; "
          f"{machine.protocol.stats.commit_recalls} OCI recalls")

    interesting = chunk_of((failures or bus.of_kind(COMMIT_COMPLETE))[0].ctag)
    print("\n" + timeline(bus, interesting))

    squashes = bus.of_kind(SQUASH)
    if squashes:
        print("\n" + timeline(bus, chunk_of(squashes[0].ctag)))


if __name__ == "__main__":
    main()
