"""The O(delta) incremental path under the controller's checks.

The fast path keeps one allocator state alive across events; the naive
reference rebuilds it per event.  Three guarantees are pinned here:

- the per-step state check catches seeded corruption of the persistent
  state, of a cached per-GPU plan and of the cluster mirror at the very
  next step (raising :class:`OpsIdentityError`);
- fast and naive replays stay bit-identical on every geometry the
  controller accepts, over the whole event alphabet;
- a run cut while spares *and* retired GPUs are outstanding resumes to
  the uninterrupted run's report, interval for interval.
"""

import pytest

from repro.core.deployment import DeploymentManager
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.ops import FleetController, run_identity_checked
from repro.ops.controller import OpsIdentityError, assert_reports_identical
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
)
from repro.profiler import profile_workloads

HORIZON_S = 200.0
MEASURE_S = 0.05


def fleet():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        Service("c", "densenet-121", slo_latency_ms=200, request_rate=1500),
        Service("d", "inceptionv3", slo_latency_ms=300, request_rate=1200),
        Service("e", "bert-large", slo_latency_ms=400, request_rate=300),
        Service("f", "vgg-16", slo_latency_ms=500, request_rate=800),
    ]


#: every event kind: rate epochs, SLO changes, arrivals, departures, a
#: failure, a preemption wave with scheduled restores, and recoveries
TIMELINE = (
    RateEpoch(time_s=10.0, service_id="a", rate=5000.0),
    SloChange(time_s=20.0, service_id="b", slo_latency_ms=120.0),
    ServiceArrival(time_s=30.0, service_id="g", model="resnet-50",
                   request_rate=2500.0, slo_latency_ms=300.0),
    GpuFailure(time_s=40.0, event_id="f0", draw=0.3),
    ServiceDeparture(time_s=50.0, service_id="c"),
    SpotPreemptionWave(time_s=60.0, event_id="w0", fraction=0.3, draw=0.6,
                       restore_delay_s=40.0),
    RateEpoch(time_s=70.0, service_id="d", rate=3000.0),
    GpuRecovery(time_s=80.0, ref="f0"),
    RateEpoch(time_s=110.0, service_id="a", rate=9000.0),
    SloChange(time_s=120.0, service_id="e", slo_latency_ms=600.0),
    ServiceDeparture(time_s=130.0, service_id="f"),
    RateEpoch(time_s=140.0, service_id="b", rate=1500.0),
)

GEOMETRIES = ("mig", "mi300x")


@pytest.fixture(scope="module")
def geometry_profiles():
    return {
        name: profile_workloads(geometry=get_geometry(name))
        for name in GEOMETRIES
    }


class TestSeededCorruption:
    """Each corruption raises at the next step; an uncorrupted step passes."""

    @staticmethod
    def seeded(profiles):
        ctrl = FleetController(profiles)
        ctrl.begin(fleet(), HORIZON_S)
        ctrl.step(0.0)
        first = ctrl.manager.current
        ctrl.step(10.0, [RateEpoch(time_s=10.0, service_id="a", rate=3000.0)])
        return ctrl, first

    def test_clean_step_passes(self, profiles):
        ctrl, _ = self.seeded(profiles)
        ctrl.step(20.0)
        ctrl.finish()

    def test_dropped_segment_in_untouched_state(self, profiles):
        ctrl, first = self.seeded(profiles)
        untouched = [
            s for s in ctrl.manager._live.states
            if any(s.plan is g for g in first.gpus)
        ]
        assert untouched, "the rate epoch re-planned every GPU"
        untouched[0].placed.pop()
        with pytest.raises(OpsIdentityError, match="allocator state"):
            ctrl.step(20.0)

    def test_mutated_cached_plan(self, profiles):
        ctrl, _ = self.seeded(profiles)
        plan = ctrl.manager.current.gpus[0]
        plan.segments[0] = plan.segments[0].with_served_rate(1.0)
        with pytest.raises(OpsIdentityError, match="round trip"):
            ctrl.step(20.0)

    def test_stale_service_map(self, profiles):
        ctrl, _ = self.seeded(profiles)
        hosts = ctrl.manager._live.hosts
        hosts[next(iter(hosts))].add(10_000)
        with pytest.raises(OpsIdentityError, match="service-to-GPU"):
            ctrl.step(20.0)

    def test_destroyed_cluster_instance(self, profiles):
        ctrl, _ = self.seeded(profiles)
        gpu, inst = next(iter(ctrl.manager.cluster.instances()))
        gpu.destroy_instance(inst)
        with pytest.raises(OpsIdentityError, match="mirror"):
            ctrl.step(20.0)


class TestIdentityAcrossGeometries:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_fast_vs_naive_over_every_event_kind(
        self, geometry_profiles, geometry
    ):
        fast, naive = run_identity_checked(
            fleet(), TIMELINE, HORIZON_S, measure_s=MEASURE_S,
            profiles=geometry_profiles[geometry], geometry=geometry,
        )
        assert fast.to_doc()["intervals"] == naive.to_doc()["intervals"]
        assert fast.failures and fast.restored_count == len(fast.failures)
        paths = {r.path for r in fast.intervals[1:]}
        assert paths == {"incremental"}

    def test_naive_reference_never_takes_the_fast_path(
        self, profiles, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("naive reference reached the O(delta) path")

        monkeypatch.setattr(DeploymentManager, "_live_state", refuse)
        report = FleetController(profiles, fast_path=False).run(
            fleet(), TIMELINE, HORIZON_S
        )
        assert report.intervals[-1].time_s == 140.0


class TestResumeWithOutstandingGpus:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_cut_with_spares_and_retired_resumes_identically(
        self, tmp_path, geometry_profiles, geometry
    ):
        def controller():
            return FleetController(
                geometry_profiles[geometry], geometry=geometry, seed=5
            )

        def run(**kwargs):
            return controller().run(
                fleet(), TIMELINE, HORIZON_S, measure_s=MEASURE_S, **kwargs
            )

        reference = run()
        # the step at t=80 restores f0 (a spare) while the wave's victims
        # stay retired until t=100
        cut = next(
            i for i, r in enumerate(reference.intervals) if r.time_s == 80.0
        ) + 1
        path = tmp_path / "ck.json"
        ctrl = controller()
        ctrl.run(
            fleet(), TIMELINE, HORIZON_S, measure_s=MEASURE_S,
            checkpoint_every=1, checkpoint_path=path, max_steps=cut,
        )
        assert ctrl.manager.spare_gpus and ctrl.manager.retired_gpus
        resumed = run(resume=path)
        assert_reports_identical(resumed, reference)
        assert resumed.to_doc() == reference.to_doc()
