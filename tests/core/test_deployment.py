"""The deployment manager's persistent allocator state.

Incremental re-plans patch one long-lived allocator state instead of
rebuilding it per event.  The contract under test: a placement handed
out is never mutated by later events (copy-on-write plans), a re-plan
that raises leaves the manager exactly as a manager that never saw the
call, and the O(delta) path yields the naive reference's placements
*and* reconfiguration plans item for item.
"""

import pytest

from repro.core import DeploymentManager, ParvaGPU
from repro.core.failover import FailoverController
from repro.core.service import InfeasibleServiceError, Service
from repro.scenarios import scenario_services


def deployed(profiles, fast_path=True):
    services = scenario_services("S2")
    manager = DeploymentManager(profiles)
    manager.deploy(ParvaGPU(profiles).schedule(services))
    return services, manager, FailoverController(
        profiles, manager, fast_path=fast_path
    )


def occupied(manager):
    return sorted(g.gpu_id for g in manager.current.gpus if not g.is_empty)


def events(services, manager, failover, fast_path=True):
    """Ten mixed re-plans: rate and SLO updates, an arrival, a
    departure, a failure and a restore."""
    out = []
    # A rate changed in place is routed by the next re-plan of any
    # service, which rewrites that service's partitions on GPUs the
    # re-plan leaves untouched: the copy-on-write case.
    for svc in services[5:]:
        svc.request_rate *= 1.25
    for i, svc in enumerate(services[:4]):
        out.append(manager.update_slo(
            services, svc, new_rate=svc.request_rate * (1.5 + 0.5 * i),
            fast_path=fast_path,
        )[0])
    out.append(manager.update_slo(
        services, services[4], new_slo_ms=services[4].slo_latency_ms * 1.5,
        fast_path=fast_path,
    )[0])
    result = failover.fail_gpu(occupied(manager)[0], services)
    out.append(result.placement)
    failover.restore_gpu(result.failed_gpu)
    arrival = Service("late", "resnet-50", slo_latency_ms=300.0,
                      request_rate=3000.0)
    services.append(arrival)
    out.append(manager.update_slo(services, arrival, fast_path=fast_path)[0])
    departed = services.pop(1)
    out.append(manager.remove_service(
        services, departed.id, fast_path=fast_path
    )[0])
    for svc in services[:2]:
        out.append(manager.update_slo(
            services, svc, new_rate=svc.request_rate * 0.5,
            fast_path=fast_path,
        )[0])
    return out


class TestCopyOnWrite:
    @pytest.mark.parametrize("kind", ["update_slo", "remove_service", "fail_gpu"])
    def test_returned_placement_survives_ten_events(self, profiles, kind):
        services, manager, failover = deployed(profiles)
        if kind == "update_slo":
            placement, _ = manager.update_slo(
                services, services[0], new_rate=services[0].request_rate * 2
            )
        elif kind == "remove_service":
            departed = services.pop()
            placement, _ = manager.remove_service(services, departed.id)
        else:
            placement = failover.fail_gpu(occupied(manager)[-1], services).placement
        before = placement.fingerprint()
        later = events(services, manager, failover)
        assert len(later) == 10
        assert placement.fingerprint() == before
        assert manager.current.fingerprint() != before

    def test_every_returned_placement_is_frozen(self, profiles):
        services, manager, failover = deployed(profiles)
        handed_out = events(services, manager, failover)
        prints = [p.fingerprint() for p in handed_out]
        events(services, manager, failover)
        assert [p.fingerprint() for p in handed_out] == prints


class TestAtomicity:
    @staticmethod
    def failing_call(kind, services, manager):
        if kind == "infeasible":
            with pytest.raises(InfeasibleServiceError):
                manager.update_slo(services, services[2], new_slo_ms=0.01)
        else:  # the allocator refuses a fleet missing a hosted service
            with pytest.raises(ValueError, match="missing"):
                manager.update_slo(
                    services[1:], services[2],
                    new_rate=services[2].request_rate * 3,
                )

    @pytest.mark.parametrize("kind", ["infeasible", "missing-service"])
    def test_failed_update_leaves_no_trace(self, profiles, kind):
        witness_services, witness, _ = deployed(profiles)
        services, manager, _ = deployed(profiles)
        # seed the persistent state on both managers first
        for svcs, mgr in ((witness_services, witness), (services, manager)):
            mgr.update_slo(svcs, svcs[0], new_rate=svcs[0].request_rate * 2)
        slo, rate = services[2].slo_latency_ms, services[2].request_rate
        segments = services[2].segments()

        self.failing_call(kind, services, manager)

        assert manager.current.fingerprint() == witness.current.fingerprint()
        assert manager.cluster.snapshot() == witness.cluster.snapshot()
        assert services[2].slo_latency_ms == slo
        assert services[2].request_rate == rate
        assert services[2].segments() == segments
        got, got_plan = manager.update_slo(
            services, services[3], new_rate=services[3].request_rate * 2.5
        )
        want, want_plan = witness.update_slo(
            witness_services, witness_services[3],
            new_rate=witness_services[3].request_rate * 2.5,
        )
        assert got.fingerprint() == want.fingerprint()
        assert manager.cluster.snapshot() == witness.cluster.snapshot()
        assert (got_plan.destroy, got_plan.create, got_plan.unchanged) == (
            want_plan.destroy, want_plan.create, want_plan.unchanged
        )

    def test_failed_failover_restores_retired_ledger(self, profiles):
        services, manager, failover = deployed(profiles)
        manager.update_slo(services, services[0], new_rate=1000.0)
        before = manager.current.fingerprint()
        with pytest.raises(ValueError, match="no partitions"):
            # passes the up-front check (every hosted service is known),
            # then fails routing a service the map does not host
            failover.fail_gpu(
                occupied(manager)[0],
                [*services, Service("x", "resnet-50", 300.0, 10.0)],
            )
        assert not manager.retired_gpus
        assert manager.current.fingerprint() == before


class TestFastMatchesNaive:
    def test_placements_and_plans_identical(self, profiles):
        runs = {}
        for fast_path in (True, False):
            services, manager, failover = deployed(profiles, fast_path)
            placements = events(services, manager, failover, fast_path)
            runs[fast_path] = (
                [p.fingerprint() for p in placements],
                manager.cluster.snapshot(),
            )
        assert runs[True] == runs[False]

    def test_reconfiguration_plans_identical(self, profiles):
        plans = {}
        for fast_path in (True, False):
            services, manager, _ = deployed(profiles, fast_path)
            out = []
            for svc in services:
                _, plan = manager.update_slo(
                    services, svc, new_rate=svc.request_rate * 1.7,
                    fast_path=fast_path,
                )
                out.append((plan.destroy, plan.create, plan.unchanged))
            plans[fast_path] = out
        assert plans[True] == plans[False]

    def test_persistent_state_matches_a_rebuild(self, profiles):
        services, manager, failover = deployed(profiles)
        assert manager.live_state_mismatch(manager.build_states()) is None
        events(services, manager, failover)
        assert manager.live_state_mismatch(manager.build_states()) is None
        manager._live.states[0].placed.pop()
        assert "allocator state" in manager.live_state_mismatch(
            manager.build_states()
        )


def mixed_run(seed, fast_path):
    """A seeded run of re-plans over a heterogeneous (MIG + MI300X) map:
    GPU positions change occupants across geometries as GPUs empty,
    fail and come back."""
    import random

    from repro.core.hetero import make_mixed_scheduler
    from repro.models.zoo import TABLE_IV_ORDER
    from repro.profiler import profile_workloads

    rng = random.Random(seed)
    services = [
        Service(f"s{i}", rng.choice(TABLE_IV_ORDER),
                slo_latency_ms=rng.uniform(150, 1500),
                request_rate=rng.uniform(50, 6000))
        for i in range(rng.randint(8, 20))
    ]
    profiles = profile_workloads()
    manager = DeploymentManager(profiles)
    manager.deploy(make_mixed_scheduler().schedule(services))
    failover = FailoverController(profiles, manager, fast_path=fast_path)
    out = []
    for _ in range(30):
        r = rng.random()
        if r < 0.7:
            svc = rng.choice(services)
            placement, _ = manager.update_slo(
                services, svc, new_rate=svc.request_rate * rng.uniform(0.3, 2.5),
                fast_path=fast_path,
            )
        elif r < 0.85:
            placement = failover.fail_gpu(
                rng.choice(occupied(manager)), services
            ).placement
        else:
            if failover.failed:
                failover.restore_gpu(rng.choice(sorted(failover.failed)))
            continue
        out.append((placement.fingerprint(), manager.cluster.snapshot()))
    return out


@pytest.mark.parametrize("seed", [5, 6])
def test_mixed_geometry_fast_matches_naive(seed):
    assert mixed_run(seed, True) == mixed_run(seed, False)
