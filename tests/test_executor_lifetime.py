"""One executor per campaign: a pool starts once.

Every cell of a campaign dispatches through the same executor: a
``run_campaign`` without one builds the one for its worker count once,
and ``repro campaign`` does the same and shuts it down at the end.  The
supervisor drives the executor it is given and hands it back idle; a
run of a single task never starts a pool.  None of this may move an
estimate.
"""

import concurrent.futures as cf
import json

import pytest

from repro.cli import main
from repro.rs import RSCode
from repro.runtime import (
    ChunkSupervisor,
    PoolExecutor,
    RuntimeConfig,
    StoppingRule,
)
from repro.simulator import (
    default_validation_campaign,
    run_campaign,
    simulate_fail_probability_batched,
)

CODE = RSCode(18, 16, m=8)
LAM = 2e-3 / 24.0


@pytest.fixture
def pools_started(monkeypatch):
    """Every ``ProcessPoolExecutor`` constructed while the test runs."""
    started = []

    class CountingPool(cf.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", CountingPool)
    return started


def _estimates(rows):
    return [row.estimate for row in rows]


def test_campaign_cells_share_one_pool(pools_started):
    """Four cells of four one-block tasks each on two workers: one pool
    serves them all (one per cell before), and the estimates equal the
    one-worker serial run."""
    cells = default_validation_campaign()[:4]
    kwargs = dict(trials=200, chunk_size=50, base_seed=7)
    serial = run_campaign(cells, workers=1, **kwargs)
    assert pools_started == []
    pooled = run_campaign(cells, workers=2, **kwargs)
    assert pools_started == [2]
    assert _estimates(pooled) == _estimates(serial)


def test_single_task_cells_start_no_pool(pools_started):
    """300 trials in one 512-trial block per cell: each of the eight
    cells is one task, which runs in-process, so no pool ever starts."""
    rows = run_campaign(default_validation_campaign(), trials=300, workers=2)
    assert len(rows) == 8
    assert pools_started == []


def test_caller_executor_outlives_the_cells(pools_started):
    """An executor passed in ``RuntimeConfig`` is driven, never shut
    down: its pool is still up after two cells, and it is the caller's
    to shut down."""
    with PoolExecutor(2) as executor:
        runtime = RuntimeConfig(executor=executor)
        for seed in (1, 2):
            simulate_fail_probability_batched(
                "simplex", CODE, 48.0, LAM, 0.0, 200,
                seed=seed, chunk_size=50, runtime=runtime,
            )
        assert executor._pool is not None
    assert executor._pool is None
    assert pools_started == [2]


class _TwoSlots(cf.Executor):
    """Holds two submissions; the second one finishes the first."""

    capacity = 2

    def __init__(self):
        self.futures = []
        self.restarts = 0
        self.shut_down = False

    def submit(self, fn, /, *args, **kwargs):
        self.futures.append(cf.Future())
        if len(self.futures) == 2:
            self.futures[0].set_result({"trials": 1})
        return self.futures[-1]

    def restart(self):
        self.restarts += 1

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shut_down = True


def test_stopped_run_hands_the_executor_back_idle():
    """An early stop leaves the second task in flight: the supervisor
    cancels its future (no restart needed) and never shuts the executor
    down."""
    executor = _TwoSlots()
    supervisor = ChunkSupervisor(executor=executor)
    done = supervisor.run(
        [(0, None), (1, None)],
        primary=lambda _args: None,
        should_stop=lambda: True,
    )
    assert list(done) == [0]
    assert executor.futures[1].cancelled()
    assert executor.restarts == 0
    assert not executor.shut_down
    assert [e.kind for e in supervisor.events] == ["early_stop"]


def test_stopped_pooled_cell_leaves_the_pool_usable(pools_started):
    """A cell that stops early with pool tasks in flight, then a full
    cell on the same executor: both equal their serial runs."""
    stop = StoppingRule(rel_ci=1.0, min_trials=100)

    def cell(executor, stop):
        return simulate_fail_probability_batched(
            "simplex", CODE, 48.0, LAM, 0.0, 600, seed=17, chunk_size=50,
            runtime=RuntimeConfig(executor=executor, stop=stop),
        )

    expected = [cell(None, stop), cell(None, None)]
    with PoolExecutor(2) as executor:
        got = [cell(executor, stop), cell(executor, None)]
    assert got == expected
    assert got[0].stopped_early and not got[1].stopped_early



def _manifest_rows(path):
    return [
        (r["cell"], r["probability"], r["failures"], r["trials"],
         r["outcome_counts"])
        for r in json.loads(path.read_text())["results"]
    ]


def test_cli_campaign_starts_one_pool(tmp_path, pools_started):
    """``repro campaign --workers 2`` on a two-cell preset starts one
    pool for the whole campaign, with the serial manifest's results."""
    argv = ["campaign", "--scenario", "iid-baseline", "--trials", "200",
            "--chunk-size", "50", "--seed", "7"]
    assert main([*argv, "--manifest", str(tmp_path / "ref.json")]) == 0
    assert pools_started == []
    assert main([*argv, "--workers", "2",
                 "--manifest", str(tmp_path / "pool.json")]) == 0
    assert pools_started == [2]
    assert _manifest_rows(tmp_path / "pool.json") == _manifest_rows(
        tmp_path / "ref.json"
    )
