"""Write ``reference.json``: the digest of every cell of every workload
(full and ``--smoke`` sizes) at the reference campaign seed, computed on
the scalar path (no checkpoints, no block compilation, no batching, one
process), which every accelerated path must reproduce byte for byte."""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.experiments.common import campaign_cell
from repro.service.store import DirectoryStore

from stats import digest
from workloads import (
    CAMPAIGN_SEED, reference_key, scalar_config, workload_defs,
)


def write_reference(path: str, work: str) -> int:
    digests = {}
    t0 = time.perf_counter()
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for smoke in (False, True):
            for workload in workload_defs(smoke).values():
                config = workload.config()
                service = workload.kind == "service"
                for cell in workload.cells():
                    key = reference_key(cell, config, service)
                    if key in digests:
                        continue
                    result = campaign_cell(
                        cell.workload, cell.tool, cell.category,
                        scalar_config(config),
                        store=DirectoryStore(os.path.join(tmp, key)))
                    digests[key] = digest(
                        result.to_json() if service
                        else result.to_json(include_records=True))
                    print(f"{key} {digests[key][:12]} "
                          f"({time.perf_counter() - t0:.0f} s)", flush=True)
    with open(path, "w") as f:
        json.dump({"seed": CAMPAIGN_SEED, "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {path}")
    return 0
