"""Golden ``RunResult`` digests: a host-speed change must not move a byte.

Every protocol runs Radix and LU at 8 cores, 2 chunks per partition, on
two seeds.  Each run's digest is the sha256 of the sorted-key JSON of
every ``RunResult`` field except ``machine``, with ``protocol`` by value:
the field set ``benchmarks/perf/child.result_payload`` digests.  The
digests were recorded before the event heap and the message path were
optimised; an engine, NoC or message edit that changes any simulated
behaviour (an event order, a latency, a byte count) changes a digest.

Regenerate, only for a change that means to alter simulated behaviour::

    PYTHONPATH=src python tests/test_golden_results.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

import pytest

from repro.config import ProtocolKind
from repro.harness.runner import RunResult, run_app

CORES = 8
CHUNKS = 2

#: (protocol, app, seed) -> digest
GOLDEN = {
    ("ScalableBulk", "Radix", 7):
        "0a6366d8775378076d5c5b588a5fe4a4ab63af7dae0d4dbcfbf824b48aeb129a",
    ("ScalableBulk", "Radix", 2010):
        "a379ff52011379d9dcc91f41ac4f23df5ae080623be7e43cebcb0a4cf64d91ca",
    ("ScalableBulk", "LU", 7):
        "bb8956fe86c6c795326e0e1ed260348042a823413cb0a894096403a5f3362909",
    ("ScalableBulk", "LU", 2010):
        "e06979492663cc93131e6733398a07ffd5c430969e3f328f3c066e7977f0b364",
    ("TCC", "Radix", 7):
        "559caad2a8b9027bc915110da25554772c15751f3117a1e882f16fde6ebc96b7",
    ("TCC", "Radix", 2010):
        "6fcc746d3fc0d7a89c30715650cdab3f6e32d618011daa9cec4ec0cd229bc9d2",
    ("TCC", "LU", 7):
        "3d55273799ea9ec9612d161d64221496ba216d0e215cd9a8759e53b8604bda24",
    ("TCC", "LU", 2010):
        "aad6ec1c848a96fc22c3f8ecad5f095ccbc6d52f20a8a9118a7ccbf86e7ffe77",
    ("SEQ", "Radix", 7):
        "aa77b07c853e5aeb04bc2558ee6b6c406a67cf2a7e3348ec472566d930ffa4a3",
    ("SEQ", "Radix", 2010):
        "94669b661298270ee78f1fe90cd2f55f7ed396d7bc4f9435cc40105d7c3e4bd0",
    ("SEQ", "LU", 7):
        "a3997b9c8f8bb4c3a0636d9870d62cfccc3b70871e62cb45b8e41ddd3aa23e28",
    ("SEQ", "LU", 2010):
        "f7a1ea91296680e45b9dc0a74d9bd15c8ffea6a54c25f7771e789ec478659025",
    ("BulkSC", "Radix", 7):
        "68f81ee9a7eb56936c09de2052c25c24ba55385790681d449b95a2fce82aee3f",
    ("BulkSC", "Radix", 2010):
        "869f722f5cd0d28ebb19ffb142bfaf9dad77e9b5b945404a3988cc2d376b13d7",
    ("BulkSC", "LU", 7):
        "1f44ba2abde3fe7b1b6735f69c37ec0df6e7ae4863138b43bf22327b268541ec",
    ("BulkSC", "LU", 2010):
        "7f95e9adcefb2ebc7e30d10e3714cdaa57732c07fc9414a7c8e0acc9e6eb3cc5",
}


def result_digest(result: RunResult) -> str:
    payload = {f.name: getattr(result, f.name) for f in fields(result)
               if f.name != "machine"}
    payload["protocol"] = result.protocol.value
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def run_digest(protocol: str, app: str, seed: int) -> str:
    return result_digest(run_app(app, n_cores=CORES,
                                 protocol=ProtocolKind(protocol),
                                 chunks_per_partition=CHUNKS, seed=seed))


@pytest.mark.parametrize("protocol,app,seed", sorted(GOLDEN))
def test_run_result_digest_is_golden(protocol, app, seed):
    assert run_digest(protocol, app, seed) == GOLDEN[(protocol, app, seed)]


if __name__ == "__main__":
    for kind in ProtocolKind:
        for app in ("Radix", "LU"):
            for seed in (7, 2010):
                print(f'    ("{kind.value}", "{app}", {seed}):\n'
                      f'        "{run_digest(kind.value, app, seed)}",')
