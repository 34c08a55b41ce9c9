"""Cross-campaign golden-run deduplication: overlapping sweeps against
one SQLite store simulate each workload's golden run exactly once.

The proof is run accounting: the first cell of a (workload, tool) pays
``prep_executions > 0`` (golden + profiling); every later cell — even in
a *fresh process*, simulated by clearing the engine's injector memo —
adopts the store's prep artifact (``primed``) and pays zero preparation
runs.  A shard worker, checkpointed by default, pays one: the
recording.  Results stay byte-identical to direct engine runs
throughout."""

import pytest

from repro.fi.engine import _INJECTORS, run_parallel_campaign
from repro.service import CampaignRequest, SQLiteStore
from repro.service.runtime import run_request, run_shard
from repro.service.worker import config_from_accel

WORKLOAD = "libquantumm"
TRIALS = 4
SEED = 31


def _req(category, tool="LLFI"):
    return CampaignRequest(workload=WORKLOAD, tool=tool, category=category,
                           trials=TRIALS, seed=SEED)


def _direct(request):
    return run_parallel_campaign(request.injector_spec(), request.category,
                                 request.to_config()).to_json()


@pytest.fixture
def store(tmp_path):
    with SQLiteStore(str(tmp_path / "campaigns.db")) as s:
        yield s


@pytest.fixture(autouse=True)
def fresh_process():
    """Each test starts like a fresh worker process: no memoised
    injectors, so preparation accounting is attributable."""
    _INJECTORS.clear()
    yield
    _INJECTORS.clear()


class TestGoldenRunDedup:
    def test_overlapping_sweeps_prepare_once(self, store, built_workloads):
        # Sweep 1: two cells. The first pays preparation; the second
        # reuses the in-process injector memo (also zero prep runs).
        first, second = {}, {}
        r_cmp = run_request(_req("cmp"), store, stats=first)
        r_load = run_request(_req("load"), store, stats=second)
        assert not first["cached"] and not first["primed"]
        assert first["prep_executions"] > 0
        assert not second["cached"]
        assert second["prep_executions"] == 0

        # Sweep 2 in a "fresh process": the injector memo is gone, so
        # without the store artifact the golden would rerun.
        _INJECTORS.clear()
        hit, fresh = {}, {}
        r_load2 = run_request(_req("load"), store, stats=hit)
        r_arith = run_request(_req("arithmetic"), store, stats=fresh)
        # Overlapping cell: served from the results table outright.
        assert hit["cached"] and hit["prep_executions"] == 0
        assert r_load2.to_json() == r_load.to_json()
        # New cell: primed from the prep artifact — zero golden runs.
        assert not fresh["cached"] and fresh["primed"]
        assert fresh["prep_executions"] == 0

        # Byte-identity against direct engine runs for every cell.
        _INJECTORS.clear()
        assert r_cmp.to_json() == _direct(_req("cmp"))
        _INJECTORS.clear()
        assert r_arith.to_json() == _direct(_req("arithmetic"))

    def test_injection_runs_only_after_priming(self, store, built_workloads):
        """Executions on a primed injector are injection runs alone: the
        golden run the artifact carries is never re-simulated."""
        from repro.fi.engine import injector_for_spec

        warm = {}
        run_request(_req("cmp"), store, stats=warm)
        assert warm["prep_executions"] > 0

        _INJECTORS.clear()
        stats = {}
        result = run_request(_req("all"), store, stats=stats)
        assert stats["primed"] and stats["prep_executions"] == 0
        injector = injector_for_spec(_req("all").injector_spec())
        # Every execution this fresh injector performed served a trial.
        assert injector.executions >= result.activated
        golden = injector.golden_cached()
        assert golden.completed  # adopted, not re-run

    def test_primed_checkpointed_worker_pays_one_recording(
            self, store, built_workloads):
        """Shard workers run at the automatic checkpoint stride unless
        the job's ``accel`` says otherwise: a primed worker's first shard
        of an injector pays exactly one preparation run, the recording,
        and its later shards none; ``checkpoint_stride: 0`` pays none."""
        run_request(_req("cmp"), store)  # publishes the prep artifact
        _INJECTORS.clear()
        request = _req("all")
        first = run_shard(request, [0, 1], store=store,
                          config=config_from_accel({}))
        assert first["primed"] and first["prep_executions"] == 1
        later = run_shard(request, [2, 3], store=store,
                          config=config_from_accel({}))
        assert later["prep_executions"] == 0

        _INJECTORS.clear()
        scalar = run_shard(request, [0, 1], store=store,
                           config=config_from_accel({"checkpoint_stride": 0}))
        assert scalar["primed"] and scalar["prep_executions"] == 0
        # Checkpointed shards list slots in bucket order, not index order.
        assert scalar["slots"] == sorted(first["slots"],
                                         key=lambda slot: slot["index"])

    def test_prep_artifact_is_shared_not_duplicated(self, store,
                                                    built_workloads):
        run_request(_req("cmp"), store)
        run_request(_req("load"), store)
        stats = store.artifact_stats()
        # One (workload, tool) pair -> one prep ref, one blob.
        assert stats["refs"] == 1
        assert stats["blobs"] == 1
