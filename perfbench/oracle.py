"""Independent correctness oracle for the benchmark's joins.

The expected match set is computed with a plain numpy sort-merge
equi-join over the generated shards, sharing no code with MG-Join's
radix partitioning, assignment or probe.  Only the final hashing goes
through ``repro.core.recovery.canonical_match_digest``, so a digest
from the oracle and one from ``JoinResult.match_digest`` are equal
exactly when the two match sets are equal.
"""

from __future__ import annotations

import numpy as np

from repro.core.recovery import canonical_match_digest


def _columns(relation, gpu_ids):
    shards = [relation.shard(g) for g in sorted(gpu_ids)]
    keys = np.concatenate([shard.keys for shard in shards])
    ids = np.concatenate([shard.ids for shard in shards])
    return keys, ids


def expected_matches(workload) -> tuple[int, str]:
    """``(match count, canonical digest)`` of ``R ⋈ S`` on the key."""
    r_keys, r_ids = _columns(workload.r, workload.gpu_ids)
    s_keys, s_ids = _columns(workload.s, workload.gpu_ids)
    order = np.argsort(s_keys, kind="stable")
    s_keys, s_ids = s_keys[order], s_ids[order]
    # Probing in key order keeps the binary searches cache-friendly; the
    # digest does not depend on the order of the matches.
    order = np.argsort(r_keys, kind="stable")
    r_keys, r_ids = r_keys[order], r_ids[order]
    lo = np.searchsorted(s_keys, r_keys, side="left")
    hi = np.searchsorted(s_keys, r_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    r_out = np.repeat(r_ids, counts)
    # Position of every match inside the sorted S column: the run start
    # of its R tuple plus its offset within that run.
    run_start = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    s_out = s_ids[run_start + np.arange(total)]
    return total, canonical_match_digest(r_out, s_out)
