"""Per-campaign JSONL run manifests.

A manifest is the auditable record of one (tool, category) campaign: what
was configured, what the preparation phase cost, what every trial did, how
the work was spread over workers, and what the totals were.  Every
instruction count a benchmark or test claims for a campaign can be
re-derived from the manifest alone.

One manifest is one JSONL file.  Line kinds, in file order:

``manifest``
    Header: ``schema`` (see :data:`MANIFEST_SCHEMA_VERSION`), ``workload``,
    ``tool``, ``category``, ``trials`` (the *requested* budget), ``seed``,
    ``jobs``, ``hang_factor``, ``max_attempts_factor``, ``model``,
    ``checkpoint_stride``, ``ci_margin`` (early-stopping target, 0 = off)
    and ``round_size`` (resolved scheduling round, 0 when not adaptive).
``setup``
    Preparation phase: ``golden_instructions``, ``dynamic_candidates``,
    ``checkpoints`` (recorded golden checkpoints), ``prep_executions`` /
    ``prep_instructions`` (whole-program runs and instructions this
    campaign's preparation actually executed — 0 when the injector's
    memoised golden/profiling runs were reused).
``trial``
    One per trial slot, ordered by ``index``: ``outcome`` (an
    ``Outcome.value``, or ``"gave_up"`` when every redraw failed to
    activate), ``k`` (injected dynamic instance, None when gave up),
    ``runs`` (injection runs including redraws), ``redraws``, ``wall_s``,
    ``instructions`` (simulated, i.e. post-checkpoint suffix only),
    ``ckpt_restores`` and ``ckpt_skipped`` (golden-prefix instructions
    skipped via checkpoint restore).
``round``
    One per scheduling round, ordered by ``round``: the stop decision at
    its boundary — ``executed`` (slots so far), ``activated``, ``margins``
    (outcome -> Wilson CI half-width), ``max_margin``, ``stop``.
``bucket``
    One per non-empty (round, checkpoint) scheduling bucket: ``round``,
    ``checkpoint`` (golden checkpoint index, -1 = cold start) and
    ``slots`` (trials that restore from that shared snapshot).
``batch``
    One per batch group (batched dispatch only, see
    :mod:`repro.vm.batch`): ``round``, ``group`` (per-round ordinal),
    ``checkpoint`` (the group's bucket, -1 = cold start), ``lanes``
    (slots requested), ``forked`` (lanes served by a COW fork of the
    shared sweep), ``detached`` (lanes that fell back to the scalar
    path), ``shared_instructions`` (instructions the one shared sweep
    executed for the whole group), ``lane_instructions`` (post-fork
    suffix instructions across all lanes), ``sweep_wall_s``, plus the
    COW memory counters ``forks`` / ``pages_shared`` / ``pages_cow``.
``compile``
    Per-program block-compilation statistics (one per compiled program):
    ``tool``, ``enabled`` (False under ``--no-compile``),
    ``blocks_compiled`` (distinct segments compiled into generated
    regions), ``superinstructions`` (compare+branch pairs among them
    whose branch is decided from the compare's operands) and
    ``compile_wall_s`` (one-time compilation cost, shared by every run
    over the program).
``chunk``
    One per engine work chunk (parallel campaigns), ordered by ``chunk``:
    ``worker`` (PID), ``slots`` (slot indices), ``wall_s``; batched
    chunks also list their ``batches`` (group ids).
``shard``
    One per service shard (campaigns run through
    :mod:`repro.service`), ordered by ``(round, shard)``: ``round``,
    ``shard`` (per-round ordinal), ``worker`` (the claiming worker's
    ``host:pid`` name or PID), ``slots`` (slot indices the shard
    executed), ``wall_s``, ``primed`` (golden run adopted from a store
    artifact instead of executed) and ``prep_executions`` /
    ``prep_instructions`` (preparation cost this shard actually paid —
    0 on every shard that reused a memoised or primed injector).
    Sharded campaigns additionally carry a ``service`` block in the
    header: ``shards`` (requested split) and, when run through the job
    queue, ``store`` and ``job``.
``summary``
    Totals: ``wall_s``, ``activated``, ``not_activated``, ``counts``
    (outcome histogram), ``instructions`` (sum of trial instructions),
    ``ckpt_restores``, ``ckpt_skipped``, the early-stopping verdict
    (``trials_requested``, ``n_stop``, ``stopped``, ``trials_saved``,
    ``margin_at_stop``, ``rounds``), the batching totals
    (``batch_groups``, ``batch_shared_instructions``, ``batch_lanes``,
    ``batch_detached``), a ``compile`` block (the compile-record fields
    plus runtime counts ``dispatches``, ``compiled_blocks`` and
    ``fallback_blocks``, merged over workers), plus the merged recorder
    ``counters``.

The accounting identity that makes manifests auditable: for a fresh
injector, ``setup.prep_instructions`` plus the sum of per-trial
``instructions`` plus the sum of per-batch ``shared_instructions``
equals the injector's ``instructions_simulated`` total.  (Without
batching the batch term is zero and the identity is the pre-v3 one.)
The real-workload tests of tier-1 and ``benchmarks/bench_batch.py``
check it.

Workers never write manifests; they return per-slot statistics to the
engine, which merges them **deterministically** (trials sorted by slot
index, chunks by chunk index) so two runs of the same campaign produce
manifests that differ only in wall-clock fields.

Forward compatibility: record kinds this build does not know are
preserved verbatim in :attr:`RunManifest.extras` instead of rejected, so
a newer writer's manifests stay readable by older report tooling.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError

#: Bump when a line kind gains/loses required fields or changes meaning.
#: v2: adaptive campaigns — ``round``/``bucket`` record kinds, header
#: gained ``ci_margin``/``round_size``, summary gained the early-stopping
#: verdict fields.
#: v3: batched suffix execution — ``batch`` record kind, header gained
#: ``batch``, summary gained the batching totals; unknown record kinds
#: are now preserved (``extras``) instead of rejected.
#: v4: block-compiled execution — ``compile`` record kind, summary gained
#: the ``compile`` block.
#: v5: fault-model registry — the header ``model`` field now carries the
#: registry spec of any registered model (not just the paper's
#: ``bitflip``), and non-default models are part of the canonical
#: manifest filename so sweep cells never overwrite each other.
#: v6: campaign service — ``shard`` record kind (one per service shard,
#: with worker attribution and per-shard preparation accounting) and an
#: optional ``service`` header block on sharded campaigns.
MANIFEST_SCHEMA_VERSION = 6


@dataclass
class RunManifest:
    """In-memory form of one campaign manifest."""

    header: dict
    setup: dict
    trials: List[dict] = field(default_factory=list)
    chunks: List[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    rounds: List[dict] = field(default_factory=list)
    buckets: List[dict] = field(default_factory=list)
    batches: List[dict] = field(default_factory=list)
    compiles: List[dict] = field(default_factory=list)
    shards: List[dict] = field(default_factory=list)
    #: Records of kinds this build does not know (newer writers); kept
    #: verbatim, each as ``{"kind": ..., **fields}``, in file order.
    extras: List[dict] = field(default_factory=list)

    @property
    def schema(self) -> int:
        return self.header.get("schema", 0)

    def lines(self) -> List[dict]:
        """The manifest as ordered JSONL records (deterministic order:
        header, setup, trials by index, rounds by round id, buckets by
        (round, checkpoint), batches by (round, group), compiles by tool,
        chunks by chunk id, shards by (round, shard), extras in file
        order, summary)."""
        out = [dict(self.header, kind="manifest"),
               dict(self.setup, kind="setup")]
        out += [dict(t, kind="trial")
                for t in sorted(self.trials, key=lambda t: t["index"])]
        out += [dict(r, kind="round")
                for r in sorted(self.rounds, key=lambda r: r["round"])]
        out += [dict(b, kind="bucket")
                for b in sorted(self.buckets,
                                key=lambda b: (b["round"], b["checkpoint"]))]
        out += [dict(b, kind="batch")
                for b in sorted(self.batches,
                                key=lambda b: (b["round"], b["group"]))]
        out += [dict(c, kind="compile")
                for c in sorted(self.compiles,
                                key=lambda c: c.get("tool", ""))]
        out += [dict(c, kind="chunk")
                for c in sorted(self.chunks, key=lambda c: c["chunk"])]
        out += [dict(s, kind="shard")
                for s in sorted(self.shards,
                                key=lambda s: (s["round"], s["shard"]))]
        out += [dict(e) for e in self.extras]
        out.append(dict(self.summary, kind="summary"))
        return out

    # -- derived views used by the report CLI -------------------------------
    def total_trial_instructions(self) -> int:
        return sum(t["instructions"] for t in self.trials)

    def total_batch_shared(self) -> int:
        """Instructions executed by shared batch sweeps (0 when the
        campaign did not batch)."""
        return sum(b["shared_instructions"] for b in self.batches)

    def total_instructions(self) -> int:
        """Preparation + trial + shared-sweep instructions: the
        injector's ``instructions_simulated`` for a fresh injector."""
        return self.setup.get("prep_instructions", 0) + \
            self.total_trial_instructions() + self.total_batch_shared()

    def total_skipped(self) -> int:
        return sum(t["ckpt_skipped"] for t in self.trials)


def manifest_filename(workload: str, tool: str, category: str,
                      trials: int, seed: int, checkpoint_stride: int = 0,
                      ci_margin: float = 0.0,
                      model: str = "bitflip") -> str:
    """Canonical manifest name for one campaign cell.  The checkpoint
    stride is part of the name so the same cell run at different strides
    into one directory never overwrites itself; the
    early-stopping margin and a non-default fault model likewise,
    appended only when set so default names are unchanged (and sweep
    cells that differ only in fault model never collide)."""
    name = (f"manifest-{workload}-{tool}-{category}"
            f"-t{trials}-s{seed}-c{checkpoint_stride}")
    if ci_margin:
        name += f"-ci{ci_margin:g}"
    if model != "bitflip":
        name += f"-m{model}"
    return name + ".jsonl"


def write_manifest(path: str, manifest: RunManifest) -> str:
    """Write one manifest as JSONL; creates parent directories."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as f:
        for line in manifest.lines():
            f.write(json.dumps(line, sort_keys=True))
            f.write("\n")
    return path


def read_manifest(path: str) -> RunManifest:
    """Parse one JSONL manifest, validating structure and schema version."""
    header: Optional[dict] = None
    setup: dict = {}
    trials: List[dict] = []
    chunks: List[dict] = []
    summary: dict = {}
    rounds: List[dict] = []
    buckets: List[dict] = []
    batches: List[dict] = []
    compiles: List[dict] = []
    shards: List[dict] = []
    extras: List[dict] = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ReproError(
                    f"{path}:{lineno}: not valid JSON: {exc}") from None
            kind = record.pop("kind", None)
            if kind == "manifest":
                if record.get("schema") != MANIFEST_SCHEMA_VERSION:
                    raise ReproError(
                        f"{path}: unsupported manifest schema "
                        f"{record.get('schema')!r} (this build reads "
                        f"schema {MANIFEST_SCHEMA_VERSION})")
                header = record
            elif kind == "setup":
                setup = record
            elif kind == "trial":
                trials.append(record)
            elif kind == "round":
                rounds.append(record)
            elif kind == "bucket":
                buckets.append(record)
            elif kind == "batch":
                batches.append(record)
            elif kind == "compile":
                compiles.append(record)
            elif kind == "chunk":
                chunks.append(record)
            elif kind == "shard":
                shards.append(record)
            elif kind == "summary":
                summary = record
            elif kind is None:
                raise ReproError(
                    f"{path}:{lineno}: record without a kind field")
            else:
                # Unknown kinds are a newer writer's records, not an
                # error: keep them verbatim so re-serializing is lossless.
                extras.append(dict(record, kind=kind))
    if header is None:
        raise ReproError(f"{path}: no manifest header record")
    return RunManifest(header=header, setup=setup, trials=trials,
                       chunks=chunks, summary=summary, rounds=rounds,
                       buckets=buckets, batches=batches, compiles=compiles,
                       shards=shards, extras=extras)


def merge_counters(dicts: List[Dict[str, int]]) -> Dict[str, int]:
    """Sum recorder counter snapshots from several workers."""
    merged: Dict[str, int] = {}
    for d in dicts:
        for name, value in d.items():
            merged[name] = merged.get(name, 0) + value
    return merged
