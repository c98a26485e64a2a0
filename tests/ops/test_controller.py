"""The closed-loop fleet controller: event application, identity, spares."""

import pytest

from repro.core.service import Service
from repro.ops import FleetController, merge_timeline, run_identity_checked
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
)
from repro.ops.chaos import rate_epochs
from repro.scenarios.fleet import fleet_services, fleet_traces
from repro.sim.traces import surge_trace


@pytest.fixture
def services():
    return [
        Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
        Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        Service("c", "densenet-121", slo_latency_ms=200, request_rate=1500),
    ]


def controller(profiles, **kw):
    return FleetController(profiles, **kw)


class TestBootstrapAndRates:
    def test_empty_timeline_deploys_once(self, profiles, services):
        report = controller(profiles).run(services, (), horizon_s=100.0)
        assert len(report.intervals) == 1
        rec = report.intervals[0]
        assert rec.path == "full"
        assert rec.duration_s == 100.0
        assert rec.num_gpus > 0

    def test_surge_grows_and_shrinks_fleet(self, profiles, services):
        timeline = rate_epochs(
            [surge_trace("a", 2000, surge_factor=4.0,
                         surge_start_s=100.0, surge_end_s=200.0)]
        )
        report = controller(profiles).run(services, timeline, horizon_s=300.0)
        gpus = {r.time_s: r.num_gpus for r in report.intervals}
        assert gpus[100.0] > gpus[0.0]
        assert gpus[200.0] < gpus[100.0]
        assert all(r.path in ("full", "incremental") for r in report.intervals)
        assert report.intervals[1].path == "incremental"

    def test_unchanged_rate_is_cheap(self, profiles, services):
        timeline = [RateEpoch(time_s=50.0, service_id="a", rate=2000.0)]
        report = controller(profiles).run(services, timeline, horizon_s=100.0)
        assert report.intervals[1].reconfig_ops == 0

    def test_segment_memo_bounded_by_live_segments(self, profiles, services):
        """Every rate epoch mints fresh memo keys; the memo keeps only the
        rows the latest measurement used, so it never outgrows the fleet."""
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=1000.0, measure_s=0.05)
        for i in range(25):
            t = 10.0 * i
            ctrl.step(t, [RateEpoch(time_s=t, service_id="a",
                                    rate=2000.0 + 40.0 * i)] if i else [])
            live = sum(1 for _ in ctrl.manager.current.iter_segments())
            assert len(ctrl._run.shard.memo) <= live
        ctrl.finish()

    def test_bootstrap_records_work_but_no_downtime(self, profiles, services):
        """Initial deployment precedes serving: setup work is priced, but
        no tenant was interrupted — downtime starts at zero."""
        report = controller(profiles).run(services, (), horizon_s=50.0)
        rec = report.intervals[0]
        assert rec.reconfig_work_s > 0
        assert rec.downtime_total_s == 0.0
        assert rec.zero_downtime
        assert report.total_downtime_s == 0.0

    def test_gpu_hours_integrate_intervals(self, profiles, services):
        report = controller(profiles).run(services, (), horizon_s=7200.0)
        rec = report.intervals[0]
        assert report.gpu_hours == pytest.approx(rec.num_gpus * 2.0)

    def test_s10_diurnal_fleet_is_pinned(self, profiles):
        """The S10 trace run (perf harness ``"autoscaler"`` row): 200
        phase-shifted diurnal services over four epochs, one interval per
        epoch, every epoch after bootstrap on the incremental path.  The
        GPU counts and reconfiguration ops are the committed BENCH row's
        (peak 119, mean 115.75, 2562 ops)."""
        services = fleet_services(200)
        timeline = rate_epochs(fleet_traces(services, epochs=4))
        report = controller(profiles, spare_shadow_gpus=2).run(
            services, timeline,
            horizon_s=max(e.time_s for e in timeline) + 1.0,
        )
        assert [r.num_gpus for r in report.intervals] == [114, 116, 114, 119]
        assert [r.reconfig_ops for r in report.intervals] == [
            286, 784, 748, 744
        ]
        assert [r.path for r in report.intervals] == [
            "full", "incremental", "incremental", "incremental"
        ]


class TestChurn:
    def test_arrival_gets_capacity(self, profiles, services):
        timeline = [
            ServiceArrival(time_s=60.0, service_id="newbie", model="vgg-16",
                           request_rate=400.0, slo_latency_ms=300.0)
        ]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=120.0)
        placement = ctrl.manager.current
        assert placement.total_capacity("newbie") >= 400.0 * (1 - 1e-9)
        assert report.intervals[-1].services == 4

    def test_departure_releases_segments(self, profiles, services):
        timeline = [ServiceDeparture(time_s=60.0, service_id="b")]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=120.0)
        assert not ctrl.manager.current.segments_of("b")
        assert report.intervals[-1].services == 2

    def test_departure_can_release_gpus(self, profiles):
        fat = [
            Service("big", "vgg-19", slo_latency_ms=400, request_rate=4000),
            Service("small", "mobilenetv2", slo_latency_ms=150, request_rate=500),
        ]
        timeline = [ServiceDeparture(time_s=10.0, service_id="big")]
        report = controller(profiles).run(fat, timeline, horizon_s=20.0)
        assert (
            report.intervals[-1].num_gpus < report.intervals[0].num_gpus
        )

    def test_unknown_ids_are_skipped_not_fatal(self, profiles, services):
        timeline = [
            ServiceDeparture(time_s=10.0, service_id="ghost"),
            RateEpoch(time_s=10.0, service_id="phantom", rate=10.0),
            SloChange(time_s=10.0, service_id="spook", slo_latency_ms=99.0),
            GpuRecovery(time_s=10.0, ref="never-failed"),
        ]
        report = controller(profiles).run(services, timeline, horizon_s=20.0)
        assert report.intervals[1].skipped == 4

    def test_churn_burst_triggers_full_replan(self, profiles, services):
        timeline = [
            ServiceArrival(time_s=30.0, service_id=f"new-{i}",
                           model="mobilenetv2", request_rate=300.0,
                           slo_latency_ms=200.0)
            for i in range(4)
        ]
        ctrl = controller(profiles, full_replan_fraction=0.5)
        report = ctrl.run(services, timeline, horizon_s=60.0)
        # 4 arrivals > 0.5 * 3 services: the delta demands a re-schedule
        assert report.intervals[1].path == "full"
        assert report.intervals[1].services == 7

    def test_slo_renegotiation_replans_one_service(self, profiles, services):
        timeline = [SloChange(time_s=40.0, service_id="b", slo_latency_ms=400.0)]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=80.0)
        step = report.intervals[1]
        assert step.path == "incremental"
        # a/c keep serving through b's renegotiation
        assert step.max_downtime_s >= 0.0
        assert ctrl.manager.current.total_capacity("b") >= 4000 * (1 - 1e-9)


class TestFailuresAndSpares:
    def test_failure_restores_capacity(self, profiles, services):
        timeline = [GpuFailure(time_s=30.0, event_id="f0", draw=0.0)]
        ctrl = controller(profiles)
        ctrl.run(services, timeline, horizon_s=60.0)
        placement = ctrl.manager.current
        for svc in services:
            assert placement.total_capacity(svc.id) >= svc.request_rate * (
                1 - 1e-9
            )

    def test_recovery_registers_spare(self, profiles, services):
        timeline = [
            GpuFailure(time_s=30.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=60.0, ref="f0"),
        ]
        ctrl = controller(profiles)
        report = ctrl.run(services, timeline, horizon_s=90.0)
        assert report.intervals[-1].spare_gpus == 1
        assert report.restored_count == 1
        (failure,) = report.failures
        assert failure.time_to_restore_s == 30.0

    def test_wave_preempts_fraction_and_schedules_restores(
        self, profiles, services
    ):
        timeline = [
            SpotPreemptionWave(time_s=30.0, event_id="w0", fraction=0.5,
                               draw=0.3, restore_delay_s=40.0)
        ]
        ctrl = controller(profiles, seed=1)
        report = ctrl.run(services, timeline, horizon_s=120.0)
        preempted = [f for f in report.failures if f.kind == "preemption"]
        assert preempted
        assert all(f.restored_at_s == 70.0 for f in preempted)
        # the controller-scheduled restores created their own interval
        assert any(r.time_s == 70.0 for r in report.intervals)

    def test_failing_a_spare_is_recorded_and_restorable(self, profiles, services):
        """An explicit-id failure hitting a *spare* GPU tears down
        nothing, but is still a recorded loss whose recovery is
        stamped."""
        ctrl = controller(profiles)
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=20.0, ref="f0"),       # gpu 0 is now a spare
            GpuFailure(time_s=30.0, event_id="f1", gpu_id=0),  # lose the spare
            GpuRecovery(time_s=40.0, ref="f1"),
        ]
        report = ctrl.run(services, timeline, horizon_s=50.0)
        assert report.intervals[-1].skipped == 0
        assert len(report.failures) == 2
        spare_loss = report.failures[1]
        assert spare_loss.gpu_id == 0 and spare_loss.lost_capacity == 0.0
        assert spare_loss.restored_at_s == 40.0
        assert report.restored_count == 2
        assert ctrl.manager.spare_gpus == {0: "mig"}

    def test_failure_on_empty_fleet_is_skipped(self, profiles):
        lone = [Service("a", "resnet-50", slo_latency_ms=250, request_rate=500)]
        timeline = [
            ServiceDeparture(time_s=10.0, service_id="a"),
            GpuFailure(time_s=20.0, event_id="f0", draw=0.5),
        ]
        report = controller(profiles).run(lone, timeline, horizon_s=30.0)
        assert report.intervals[-1].skipped == 1
        assert not report.failures


class TestIdentityAndDeterminism:
    def test_controller_is_reentrant(self, profiles, services):
        """Regression: a second run() on one controller used to continue
        from the first run's final deployment instead of bootstrapping —
        silently non-deterministic results."""
        timeline = [GpuFailure(time_s=20.0, event_id="f0", draw=0.5)]
        ctrl = controller(profiles)
        first = ctrl.run(services, timeline, horizon_s=50.0)
        second = ctrl.run(services, timeline, horizon_s=50.0)
        assert second.intervals[0].path == "full"
        assert [r.fingerprint for r in first.intervals] == [
            r.fingerprint for r in second.intervals
        ]

    def test_two_runs_identical(self, profiles, services):
        timeline = merge_timeline(
            [GpuFailure(time_s=25.0, event_id="f0", draw=0.7)],
            [RateEpoch(time_s=50.0, service_id="a", rate=5000.0)],
            [GpuRecovery(time_s=75.0, ref="f0")],
        )
        runs = [
            controller(profiles).run(
                services, timeline, horizon_s=100.0, measure_s=0.2
            )
            for _ in range(2)
        ]
        a, b = runs
        assert [r.fingerprint for r in a.intervals] == [
            r.fingerprint for r in b.intervals
        ]
        assert [r.sim_fingerprint for r in a.intervals] == [
            r.sim_fingerprint for r in b.intervals
        ]

    def test_fast_vs_naive_replay_identical(self, profiles, services):
        timeline = merge_timeline(
            [GpuFailure(time_s=25.0, event_id="f0", draw=0.2)],
            [RateEpoch(time_s=50.0, service_id="b", rate=9000.0)],
            [ServiceArrival(time_s=60.0, service_id="n", model="resnet-101",
                            request_rate=200.0, slo_latency_ms=300.0)],
            [GpuRecovery(time_s=75.0, ref="f0")],
        )
        fast, naive = run_identity_checked(
            services, timeline, horizon_s=100.0, measure_s=0.2,
            profiles=profiles,
        )
        assert fast.fast_path and not naive.fast_path
        assert [r.fingerprint for r in fast.intervals] == [
            r.fingerprint for r in naive.intervals
        ]

    def test_caller_services_not_mutated(self, profiles, services):
        timeline = [RateEpoch(time_s=10.0, service_id="a", rate=9999.0)]
        before = [(s.id, s.request_rate, s.slo_latency_ms) for s in services]
        controller(profiles).run(services, timeline, horizon_s=20.0)
        assert before == [
            (s.id, s.request_rate, s.slo_latency_ms) for s in services
        ]
        for s in services:
            assert s.opt_tri_array == {}

    def test_measured_compliance_recorded(self, profiles, services):
        report = controller(profiles).run(
            services, (), horizon_s=50.0, measure_s=0.3
        )
        rec = report.intervals[0]
        assert rec.compliance is not None and 0.0 <= rec.compliance <= 1.0
        assert rec.sim_fingerprint
        assert rec.worst_service in {"a", "b", "c"}
        attainment = report.slo_attainment(target=0.0)
        assert set(attainment) == {"a", "b", "c"}
        assert all(v == 1.0 for v in attainment.values())


class TestRetiredIdReservation:
    def test_failed_gpu_id_never_reused_while_down(self, profiles, services):
        """Regression: failing the highest-id GPU then growing the fleet
        used to hand the dead device's id to a fresh GPU, so a later
        restore collided with live capacity."""
        ctrl = controller(profiles)
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.999),  # highest id
            RateEpoch(time_s=20.0, service_id="b", rate=20000.0),  # grow
            GpuRecovery(time_s=30.0, ref="f0"),
            RateEpoch(time_s=40.0, service_id="b", rate=4000.0),
        ]
        report = ctrl.run(services, timeline, horizon_s=60.0)
        assert report.restored_count == 1
        assert report.intervals[-1].skipped == 0

    def test_restored_capacity_visible_to_next_replan(self, profiles, services):
        """After a restore, growth drafts the spare before opening a new
        GPU id — the restored device rejoins the serving fleet."""
        ctrl = controller(profiles)
        timeline = [
            GpuFailure(time_s=10.0, event_id="f0", draw=0.0),
            GpuRecovery(time_s=20.0, ref="f0"),
            RateEpoch(time_s=30.0, service_id="b", rate=30000.0),
        ]
        ctrl.run(services, timeline, horizon_s=60.0)
        assert not ctrl.manager.spare_gpus  # the spare was drafted
        restored_id = 0  # draw=0.0 fails the lowest occupied id
        assert any(
            g.gpu_id == restored_id and not g.is_empty
            for g in ctrl.manager.current.gpus
        )


class TestStepApiOrdering:
    """The re-entrant step API refuses to move time backwards."""

    def test_backwards_instant_raises(self, profiles, services):
        from repro.ops import OutOfOrderEventError

        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(50.0)
        with pytest.raises(OutOfOrderEventError, match="non-decreasing"):
            ctrl.step(25.0)
        ctrl.finish()

    def test_same_instant_is_allowed(self, profiles, services):
        """Non-decreasing, not strictly increasing: a live gateway may
        clamp a late event onto the last applied instant."""
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        ctrl.step(50.0)
        ctrl.step(50.0, [RateEpoch(time_s=10.0, service_id="a", rate=1.0)])
        report = ctrl.finish()
        assert [r.time_s for r in report.intervals] == [0.0, 50.0, 50.0]

    def test_event_stamped_after_instant_raises(self, profiles, services):
        from repro.ops import OutOfOrderEventError

        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        ctrl.step(0.0)
        future = RateEpoch(time_s=80.0, service_id="a", rate=1.0)
        with pytest.raises(OutOfOrderEventError, match="cannot apply"):
            ctrl.step(50.0, [future])
        ctrl.finish()

    def test_step_beyond_horizon_raises(self, profiles, services):
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0)
        with pytest.raises(ValueError, match="beyond the horizon"):
            ctrl.step(100.0)
        ctrl.finish()

    def test_begin_step_finish_matches_run(self, profiles, services):
        """Driving the step API by hand is the run loop, bit for bit."""
        timeline = merge_timeline(
            [GpuFailure(time_s=20.0, event_id="f0", draw=0.3)],
            [RateEpoch(time_s=60.0, service_id="b", rate=8000.0)],
        )
        offline = controller(profiles).run(
            services, timeline, horizon_s=100.0, measure_s=0.2
        )
        ctrl = controller(profiles)
        ctrl.begin(services, horizon_s=100.0, measure_s=0.2)
        ctrl.step(0.0)
        ctrl.step(20.0, [timeline[0]])
        ctrl.step(60.0, [timeline[1]])
        manual = ctrl.finish()
        assert manual.to_doc() == offline.to_doc()


class TestVerifyEverySampling:
    """--verify-every N: sampled dual-replay smoke mode."""

    def timeline(self):
        return merge_timeline(
            [GpuFailure(time_s=20.0, event_id="f0", draw=0.4)],
            [RateEpoch(time_s=40.0, service_id="a", rate=6000.0)],
            [RateEpoch(time_s=60.0, service_id="b", rate=2000.0)],
            [GpuRecovery(time_s=80.0, ref="f0")],
        )

    def test_default_is_the_full_contract(self, profiles, services):
        """N=1 is byte-identical to what run_identity_checked always
        did: the naive reference measures every interval."""
        kwargs = dict(
            services=services, timeline=self.timeline(), horizon_s=100.0,
            measure_s=0.2, profiles=profiles,
        )
        fast_a, naive_a = run_identity_checked(**kwargs)
        fast_b, naive_b = run_identity_checked(verify_every=1, **kwargs)
        assert fast_a.to_doc() == fast_b.to_doc()
        assert naive_a.to_doc() == naive_b.to_doc()
        assert all(r.sim_fingerprint for r in naive_a.intervals)

    def test_sampling_skips_reference_measurement(self, profiles, services):
        fast, naive = run_identity_checked(
            services, self.timeline(), horizon_s=100.0, measure_s=0.2,
            verify_every=3, profiles=profiles,
        )
        # the fast replay still measures everywhere...
        assert all(r.sim_fingerprint for r in fast.intervals)
        # ...the reference only at sampled steps (1 of 3 here), and the
        # sampled ones still matched or the call would have raised
        measured = [bool(r.sim_fingerprint) for r in naive.intervals]
        assert measured == [True, False, False, True, False]
        # placement identity was checked at *every* interval regardless
        assert [r.fingerprint for r in fast.intervals] == [
            r.fingerprint for r in naive.intervals
        ]

    def test_verify_every_validation(self, profiles, services):
        with pytest.raises(ValueError, match="verify_every"):
            run_identity_checked(
                services, (), horizon_s=10.0, verify_every=0,
                profiles=profiles,
            )
