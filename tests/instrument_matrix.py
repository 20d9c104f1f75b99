"""Shared check for the instrument tests: an instrument list must leave
the simulated run byte-identical (Radix, 4 cores, 2 chunks/partition)."""

import dataclasses
import functools

from repro.harness.runner import run_app


def result_fields(result):
    fields = dataclasses.asdict(result)
    fields.pop("machine")
    return fields


def run_radix(protocol, instruments=()):
    return run_app("Radix", n_cores=4, protocol=protocol,
                   chunks_per_partition=2, instruments=instruments)


@functools.lru_cache(maxsize=None)
def _plain(protocol):
    return result_fields(run_radix(protocol))


def assert_transparent(protocol, instruments):
    """The run watched by ``instruments`` equals the unwatched run."""
    watched = result_fields(run_radix(protocol, instruments))
    assert watched == _plain(protocol), (protocol, instruments)
