"""Checks on the benchmark's own inputs, drivers and files.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

SEEDS = (bw.DEFAULT_SEED, bw.HELD_OUT_SEED)


def test_replan_waves_same_seed_same_timeline():
    a, b = bw.replan_waves_run(11), bw.replan_waves_run(11)
    assert a.timeline == b.timeline
    assert a.services == b.services
    assert bw.replan_waves_run(12).timeline != a.timeline


@pytest.mark.parametrize("seed", SEEDS)
def test_replan_waves_take_the_full_path_at_every_wave(seed):
    replay = bw.replay_offline(bw.prepare("replan-waves", seed))
    paths = [r.path for r in replay.report.intervals]
    assert paths == ["full"] * (bw.WAVE_COUNT + 1)
    assert all(r.services == bw.WAVE_FLEET for r in replay.report.intervals)


@pytest.mark.parametrize("workload", ["fleet-day", "chaos-week"])
@pytest.mark.parametrize("seed", SEEDS)
def test_steps_after_bootstrap_are_incremental(workload, seed):
    replay = bw.replay_offline(bw.prepare(workload, seed))
    paths = [r.path for r in replay.report.intervals]
    assert paths[0] == "full"
    assert set(paths[1:]) == {"incremental"}


def test_driver_matches_the_controllers_own_run_loop():
    prep = bw.prepare("chaos-week", bw.DEFAULT_SEED)
    mine = bw.replay_offline(prep)
    run = prep.run
    theirs = prep.controller.run(
        run.services, run.timeline, run.horizon_s, measure_s=bw.MEASURE_S,
        warmup_s=bw.WARMUP_S, sim_seed=prep.seed,
    )
    assert bw.report_digest(mine.report) == bw.report_digest(theirs)
    assert mine.applied == mine.offered == len(run.timeline)


@pytest.mark.parametrize("seed", [1, 2, *SEEDS])
def test_panels_are_stable_distinct_seeds_of_the_recorded_pool(seed):
    for workload in bw.WORKLOADS:
        pool = bw.pool_seeds(workload)
        panel = bw.panel_seeds(workload, seed)
        assert panel == bw.panel_seeds(workload, seed)
        assert len(set(panel)) == len(panel) == bw.PANEL[workload]
        assert set(panel) <= set(pool)
        if seed in pool:
            assert panel[0] == seed
    assert bw.panel_seeds("fleet-day", 1) != bw.panel_seeds("fleet-day", 2)


def test_benchmark_json_matches_the_metrics_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bw.WORKLOADS)
    for key, specs in (("end_to_end", bench_run.END_TO_END), ("per_layer", bench_run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in doc[key]} == specs


def test_record_holds_a_digest_for_every_pool_seed():
    record = json.loads(bench_run.RECORD.read_text())
    for workload in bw.WORKLOADS:
        digests = record["workloads"][workload]["digests"]
        assert set(digests) == {str(s) for s in bw.pool_seeds(workload)}
        assert all(len(d) == 64 for d in digests.values())


def test_host_speed_laps_add_up_and_leave_calibration_out():
    watch = HostSpeed()
    laps = [watch.lap() for _ in range(20)]
    # twenty calibrations ran between the laps; the laps hold only the
    # bookkeeping around them, far less than one calibration each
    assert sum(laps) == pytest.approx(watch.elapsed(), abs=1e-3)
    assert sum(laps) < 0.2 * len(laps) * min(watch._times)
    assert len(watch.factors) == len(laps)
