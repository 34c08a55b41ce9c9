"""Campaign-as-a-service: requests, stores, and the job-queue service.

The service layer turns one-shot CLI campaigns into submittable jobs:

* :class:`CampaignRequest` — the frozen, schema-versioned identity of one
  campaign cell.  It owns the results-cache key derivation (replacing the
  legacy hand-concatenated key string), serializes as the job
  payload, and is accepted everywhere a ``(workload, tool, category,
  config)`` tuple used to be threaded.
* :class:`CampaignStore` — where results live: the classic file-per-key
  results directory (:class:`DirectoryStore`, compat) or a single SQLite
  database (:class:`SQLiteStore`) that also holds job-queue state and
  content-addressed golden-run artifacts, so overlapping campaigns dedup
  their preparation work across submissions.
* the job-queue service — ``python -m repro.service serve`` plus
  ``submit`` / ``poll`` / ``cancel`` / ``fetch`` client commands over a
  localhost HTTP JSON API.  A submitted request is split into trial-index
  shards, dispatched to worker processes sharing the store, and merged
  bit-identically to a local single-process run (the deterministic
  per-trial RNG streams make any partition of slot indices exact).

See SERVICE.md for the API, the store schema, the shard protocol and the
dedup guarantees.
"""

from repro.service.request import (
    CACHE_FORMAT_VERSION, REQUEST_SCHEMA_VERSION, CampaignRequest,
    split_shard_indices,
)
from repro.service.runtime import (
    prime_injector, persist_prep, run_request, run_shard,
)
from repro.service.store import (
    CampaignStore, DirectoryStore, SQLiteStore, as_store, atomic_write_json,
    open_store,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "REQUEST_SCHEMA_VERSION",
    "CampaignRequest",
    "CampaignStore",
    "DirectoryStore",
    "SQLiteStore",
    "as_store",
    "atomic_write_json",
    "open_store",
    "prime_injector",
    "persist_prep",
    "run_request",
    "run_shard",
    "split_shard_indices",
]
