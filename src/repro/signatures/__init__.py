"""Bulk-style hardware address signatures.

Signatures are banked Bloom filters over cache-line addresses, as in
Bulk [Ceze et al., ISCA'06].  They support the operations the ScalableBulk
protocol needs at directory modules and processors:

* ``insert`` a line address (done as the chunk executes),
* ``contains`` membership test (load filtering at a directory, Fig. 2),
* ``intersects`` emptiness-of-intersection test between two signatures
  (chunk disambiguation and group-compatibility checks),
* ``expand`` against a candidate line set (directory-side W expansion),
* ``WriteSet.probe`` / ``chunks_collide``: a committing chunk's write set,
  its per-line masks cached, probed against another chunk's R and W
  (CST admission, BulkSC arbiter grants, bulk-invalidation disambiguation).

False positives are inherent and harmless for correctness: at worst they
nack or squash unnecessarily (paper Section 3.1), which the simulator
reports as *aliasing squashes*.
"""

from repro.signatures.hashing import MultiplicativeHashFamily
from repro.signatures.bulk_signature import (
    BulkSignature, SignatureFactory, WriteSet, chunks_collide,
)

__all__ = [
    "BulkSignature",
    "SignatureFactory",
    "WriteSet",
    "chunks_collide",
    "MultiplicativeHashFamily",
]
