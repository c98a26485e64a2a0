"""Controller checkpoint/restore: bit-identical resume, hostile files.

The contract under test: a run killed at *any* interval boundary and
resumed from its checkpoint produces the same per-interval fingerprints
and the same final ``OpsReport.to_doc()`` as the run that was never
interrupted — and a damaged or mismatched checkpoint is refused loudly
(:class:`~repro.ops.checkpoint.CheckpointError`), never half-restored.
"""

import json

import pytest

from repro.ops import (
    CheckpointError,
    FleetController,
    read_checkpoint,
    write_checkpoint,
)
from repro.ops.controller import assert_reports_identical
from repro.resilience import flip_bit, truncate_tail
from repro.scenarios.ops import bench_ops_run

SEED = 7
SIM_SEED = 3
MEASURE_S = 0.2


@pytest.fixture(scope="module")
def workload():
    return bench_ops_run(60)


def controller():
    return FleetController(seed=SEED)


def full_run(run, **kwargs):
    return controller().run(
        run.services, run.timeline, run.horizon_s,
        measure_s=MEASURE_S, sim_seed=SIM_SEED, **kwargs,
    )


@pytest.fixture(scope="module")
def reference(workload):
    return full_run(workload)


class TestFileFormat:
    def test_write_read_round_trip(self, tmp_path, workload):
        ctrl = controller()
        full_run(workload)  # warm nothing; just build a state to save
        ctrl.begin(workload.services, workload.horizon_s,
                   measure_s=MEASURE_S, sim_seed=SIM_SEED)
        ctrl.step(0.0, [])
        state = ctrl.checkpoint()
        path = tmp_path / "ck.json"
        write_checkpoint(path, state)
        assert read_checkpoint(path) == state
        ctrl.finish()

    def test_bit_flip_is_caught(self, tmp_path, workload):
        ctrl = controller()
        ctrl.begin(workload.services, workload.horizon_s,
                   measure_s=MEASURE_S, sim_seed=SIM_SEED)
        ctrl.step(0.0, [])
        path = tmp_path / "ck.json"
        write_checkpoint(path, ctrl.checkpoint())
        ctrl.finish()
        # any single-bit flip must be caught by the checksum (or fail
        # JSON parsing outright) — try several seeded offsets
        pristine = path.read_bytes()
        for seed in range(8):
            path.write_bytes(pristine)
            flip_bit(path, seed=seed)
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_truncation_is_caught(self, tmp_path, workload):
        ctrl = controller()
        ctrl.begin(workload.services, workload.horizon_s,
                   measure_s=MEASURE_S, sim_seed=SIM_SEED)
        ctrl.step(0.0, [])
        path = tmp_path / "ck.json"
        write_checkpoint(path, ctrl.checkpoint())
        ctrl.finish()
        truncate_tail(path, 16)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_unknown_version_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "format": "parvagpu-checkpoint", "version": 999,
            "sha256": "0" * 64, "state": {},
        }))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


class TestKillResume:
    @pytest.mark.parametrize("kill_at", [1, 2, 17])
    def test_resume_is_bit_identical(
        self, tmp_path, workload, reference, kill_at
    ):
        path = tmp_path / "ck.json"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path,
            max_steps=kill_at,
        )
        resumed = full_run(workload, resume=path)
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()

    def test_resume_across_worker_counts(self, tmp_path, workload, reference):
        # the checkpoint is worker-count-invariant: a serial run's
        # checkpoint resumes on the sharded control plane bit-identically
        path = tmp_path / "ck.json"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path, max_steps=3,
        )
        sharded = FleetController(seed=SEED, workers=2)
        resumed = sharded.run(
            workload.services, workload.timeline, workload.horizon_s,
            measure_s=MEASURE_S, sim_seed=SIM_SEED, resume=path,
        )
        assert_reports_identical(resumed, reference)
        ref_doc = dict(reference.to_doc())
        res_doc = dict(resumed.to_doc())
        assert res_doc.pop("workers") == 2
        ref_doc.pop("workers")
        assert res_doc == ref_doc


class TestResumeValidation:
    @pytest.fixture()
    def checkpoint_path(self, tmp_path, workload):
        path = tmp_path / "ck.json"
        full_run(
            workload, checkpoint_every=1, checkpoint_path=path, max_steps=2,
        )
        return path

    def test_config_mismatch_is_refused(self, checkpoint_path, workload):
        other = FleetController(seed=SEED + 1)
        with pytest.raises(CheckpointError, match="seed"):
            other.run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_run_args_mismatch_is_refused(self, checkpoint_path, workload):
        with pytest.raises(CheckpointError, match="measure_s"):
            controller().run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S + 0.05, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_timeline_mismatch_is_refused(self, checkpoint_path, workload):
        shorter = [e for e in workload.timeline][:-2]
        with pytest.raises(CheckpointError, match="timeline"):
            controller().run(
                workload.services, shorter, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED,
                resume=checkpoint_path,
            )

    def test_retired_sim_fast_key_still_resumes(
        self, tmp_path, checkpoint_path, workload, reference
    ):
        """Older checkpoints carry a ``run.sim_fast`` serving-engine flag;
        the engine now follows the controller's ``fast_path`` (checked
        with the config), so restore ignores the stale key."""
        state = read_checkpoint(checkpoint_path)
        assert "sim_fast" not in state["run"]
        state["run"]["sim_fast"] = True
        legacy = tmp_path / "legacy.json"
        write_checkpoint(legacy, state)
        resumed = full_run(workload, resume=legacy)
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()

    def test_engine_mismatch_is_refused(self, checkpoint_path, workload):
        state = read_checkpoint(checkpoint_path)
        state["config"]["fast_path"] = False
        with pytest.raises(CheckpointError, match="fast_path"):
            controller().run(
                workload.services, workload.timeline, workload.horizon_s,
                measure_s=MEASURE_S, sim_seed=SIM_SEED, resume=state,
            )
