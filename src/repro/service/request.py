"""CampaignRequest: the canonical identity of one campaign cell.

A campaign cell used to be a ``(workload, tool, category, config)`` tuple
threaded by hand through the experiment modules, with its disk-cache key
assembled by string concatenation in ``repro.experiments.common``.  The
request object replaces that: it is **frozen** (a cell's identity never
mutates), **schema-versioned** (it travels as the job payload of the
campaign service) and it owns the key derivation — every field that can
change a campaign's outcome is a field of the request, and *only* those
fields are.  Accelerator knobs (``jobs``, ``checkpoint_stride``,
``batch``, ``no_compile``, tracing) are deliberately absent: they are
proven result-inert, so they belong to the execution environment
(:meth:`to_config`'s ``like`` argument), never to the identity.

Key compatibility: :meth:`key` produces byte-identical strings to the
legacy hand-concatenated key (format ``v4-...``), so every existing
results cache — file-per-key directories and SQLite stores alike —
stays valid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import FaultInjectionError
from repro.fi.campaign import DEFAULT_ROUND_SIZE, CampaignConfig
from repro.fi.categories import CATEGORIES
from repro.fi.engine import InjectorSpec
from repro.fi.fault import get_fault_model
from repro.fi.llfi import LLFIOptions
from repro.fi.pinfi import PINFIOptions

#: Disk-cache key version; bump when the key schema or the campaign
#: procedure changes in a result-affecting way (v2: per-trial RNG
#: streams + hang/attempt factors + fault model in the key.  v3: entries
#: hold the schema-versioned ``CampaignResult.to_json`` form.  v4:
#: adaptive early stopping — ci-margin/round-size key component and
#: ``CampaignResult.trials`` records executed trials).  Lives here
#: because the request owns the key; ``repro.experiments.common``
#: re-exports it for compatibility.
CACHE_FORMAT_VERSION = 4

#: Schema of :meth:`CampaignRequest.to_json`; bump on any field change.
REQUEST_SCHEMA_VERSION = 1

_TOOLS = ("LLFI", "PINFI")

#: The type each identity field must have.  A ``bool`` is an ``int`` to
#: Python but never a count, a seed or a margin here.
_FIELD_TYPES = {
    "workload": (str,), "variant": (str,), "fault_model": (str,),
    "trials": (int,), "seed": (int,), "hang_factor": (int,),
    "max_attempts_factor": (int,), "round_size": (int,),
    "ci_margin": (int, float),
}


@dataclass(frozen=True)
class CampaignRequest:
    """One campaign cell: everything that decides its result, nothing
    that merely decides how fast it runs."""

    workload: str
    tool: str  # "LLFI" | "PINFI"
    category: str
    trials: int = 1000
    seed: int = 20140623  # DSN'14
    hang_factor: int = 20
    max_attempts_factor: int = 10
    #: Fault-model registry spec (``repro.fi.fault``).
    fault_model: str = "bitflip"
    #: Wilson-CI early-stopping target (0 = off).  Result-affecting: it
    #: decides how many trial slots run.
    ci_margin: float = 0.0
    #: Scheduling round size; only meaningful with ``ci_margin`` > 0
    #: (0 picks :data:`repro.fi.campaign.DEFAULT_ROUND_SIZE`).
    round_size: int = 0
    #: Free-form tag separating cells that differ only in injector
    #: options (the ablation experiments' ``gep_arith`` etc.).
    variant: str = ""
    llfi_options: Optional[LLFIOptions] = None
    pinfi_options: Optional[PINFIOptions] = None

    def __post_init__(self) -> None:
        """Reject a malformed cell where it enters (library call, CLI or
        ``/submit``), before any run.  The workload is left to the
        workers: an unknown one fails its job there."""
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise FaultInjectionError(
                    f"{name} must be "
                    f"{' or '.join(kind.__name__ for kind in kinds)}, "
                    f"got {value!r}")
        if self.tool not in _TOOLS:
            raise FaultInjectionError(
                f"unknown tool {self.tool!r}; expected one of {_TOOLS}")
        if self.category not in CATEGORIES:
            raise FaultInjectionError(
                f"unknown category {self.category!r}; expected one of "
                f"{CATEGORIES}")
        for name in ("trials", "hang_factor", "max_attempts_factor"):
            if not getattr(self, name) >= 1:
                raise FaultInjectionError(
                    f"{name} must be at least 1: {getattr(self, name)!r}")
        # Written as "not >=" so that a NaN margin fails too.
        if not self.ci_margin >= 0:
            raise FaultInjectionError(
                f"ci_margin must be non-negative: {self.ci_margin!r}")
        if not self.round_size >= 0:
            raise FaultInjectionError(
                f"round_size must be non-negative: {self.round_size!r}")
        get_fault_model(self.fault_model)  # an unknown spec raises here

    # -- derived identity ----------------------------------------------------
    @property
    def adaptive(self) -> bool:
        return self.ci_margin > 0

    def resolved_round_size(self) -> int:
        return self.round_size if self.round_size > 0 else DEFAULT_ROUND_SIZE

    def key(self) -> str:
        """The results-store key: every request field that can change the
        result, in the exact format the legacy hand-concatenated key used
        (existing caches stay valid byte for byte)."""
        model = get_fault_model(self.fault_model)
        key = (f"v{CACHE_FORMAT_VERSION}-{self.workload}-{self.tool}"
               f"-{self.category}-t{self.trials}-s{self.seed}"
               f"-h{self.hang_factor}-a{self.max_attempts_factor}"
               f"-m{model.name}")
        if self.adaptive:
            key += f"-ci{self.ci_margin:g}-r{self.resolved_round_size()}"
        if self.variant:
            key += f"-{self.variant}"
        return key

    def injector_spec(self) -> InjectorSpec:
        """The engine spec workers rebuild the injector from."""
        return InjectorSpec(self.workload, self.tool,
                            llfi_options=self.llfi_options,
                            pinfi_options=self.pinfi_options)

    def prep_ref(self) -> str:
        """Name of this cell's shared preparation artifact: golden run +
        profiling counts depend on (workload, tool, injector options)
        only, so every cell over that triple — any category, trial
        count, seed or fault model — resolves to the same ref."""
        return f"prep|{self.injector_spec().key()}"

    # -- config bridge -------------------------------------------------------
    @classmethod
    def from_config(cls, workload: str, tool: str, category: str,
                    config: CampaignConfig, variant: str = "",
                    llfi_options: Optional[LLFIOptions] = None,
                    pinfi_options: Optional[PINFIOptions] = None,
                    ) -> "CampaignRequest":
        """Build the request for the cell a ``(workload, tool, category,
        config)`` call used to describe.  Only identity fields are read
        from the config; its accelerator knobs are ignored (pass the
        config again as ``to_config(like=...)`` to keep them)."""
        return cls(workload=workload, tool=tool, category=category,
                   trials=config.trials, seed=config.seed,
                   hang_factor=config.hang_factor,
                   max_attempts_factor=config.max_attempts_factor,
                   fault_model=config.resolved_model().name,
                   ci_margin=config.ci_margin,
                   round_size=config.round_size if config.adaptive else 0,
                   variant=variant, llfi_options=llfi_options,
                   pinfi_options=pinfi_options)

    def to_config(self, like: Optional[CampaignConfig] = None,
                  ) -> CampaignConfig:
        """The :class:`CampaignConfig` that executes this request.
        ``like`` supplies the accelerator knobs (jobs, checkpoint stride,
        batching, compilation, tracing) — all proven result-inert — while
        every result-affecting field comes from the request itself."""
        like = like or CampaignConfig()
        return CampaignConfig(
            trials=self.trials, seed=self.seed,
            hang_factor=self.hang_factor,
            max_attempts_factor=self.max_attempts_factor,
            fault_model=self.fault_model,
            ci_margin=self.ci_margin, round_size=self.round_size,
            jobs=like.jobs, checkpoint_stride=like.checkpoint_stride,
            batch=like.batch, no_compile=like.no_compile, trace=like.trace,
            trace_dir=like.trace_dir)

    # -- schema-versioned serialization (the job payload) --------------------
    def to_json(self) -> dict:
        data = {
            "schema": REQUEST_SCHEMA_VERSION,
            "workload": self.workload,
            "tool": self.tool,
            "category": self.category,
            "trials": self.trials,
            "seed": self.seed,
            "hang_factor": self.hang_factor,
            "max_attempts_factor": self.max_attempts_factor,
            "fault_model": self.fault_model,
            "ci_margin": self.ci_margin,
            "round_size": self.round_size,
            "variant": self.variant,
            "llfi_options": (dataclasses.asdict(self.llfi_options)
                             if self.llfi_options is not None else None),
            "pinfi_options": (dataclasses.asdict(self.pinfi_options)
                              if self.pinfi_options is not None else None),
        }
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignRequest":
        schema = data.get("schema")
        if schema != REQUEST_SCHEMA_VERSION:
            raise FaultInjectionError(
                f"unsupported CampaignRequest schema {schema!r}: this "
                f"build reads schema {REQUEST_SCHEMA_VERSION}")
        llfi = data.get("llfi_options")
        pinfi = data.get("pinfi_options")
        return cls(
            workload=data["workload"], tool=data["tool"],
            category=data["category"], trials=data["trials"],
            seed=data["seed"], hang_factor=data["hang_factor"],
            max_attempts_factor=data["max_attempts_factor"],
            fault_model=data["fault_model"],
            ci_margin=data["ci_margin"], round_size=data["round_size"],
            variant=data.get("variant", ""),
            llfi_options=LLFIOptions(**llfi) if llfi is not None else None,
            pinfi_options=PINFIOptions(**pinfi) if pinfi is not None
            else None)


def split_shard_indices(indices: Sequence[int],
                        shards: int) -> List[List[int]]:
    """Partition slot indices into up to ``shards`` contiguous,
    non-empty pieces (ragged: the first ``len % shards`` pieces get one
    extra).  Contiguity keeps each shard inside few checkpoint buckets;
    any partition would still merge bit-identically — per-slot RNG
    streams make every slot independent of where it runs."""
    if shards <= 0:
        raise FaultInjectionError(f"shard count must be positive: {shards}")
    indices = list(indices)
    shards = min(shards, len(indices)) or 1
    base, extra = divmod(len(indices), shards)
    out: List[List[int]] = []
    pos = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(indices[pos:pos + size])
        pos += size
    return out
