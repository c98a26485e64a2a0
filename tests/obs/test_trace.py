"""Trace spans: tree structure, exports, and replay byte-identity."""

import json

from repro.core.service import Service
from repro.obs import ObsHub, Tracer
from repro.ops import FleetController
from repro.ops.controller import assert_reports_identical
from repro.ops.events import RateEpoch
from repro.scenarios.ops import OPS_SEED, bench_ops_run, ops_run


class TestTracer:
    def test_nesting_records_parents(self):
        tr = Tracer()
        with tr.span("interval", t_s=10.0) as root:
            with tr.span("apply") as child:
                pass
        assert root.seq == 0 and root.parent == -1
        assert child.seq == 1 and child.parent == 0

    def test_t_s_inherits_from_enclosing_span(self):
        tr = Tracer()
        with tr.span("interval", t_s=42.0):
            with tr.span("apply") as child:
                pass
        assert child.t0_s == 42.0
        with tr.span("root") as top:
            pass
        assert top.t0_s == 0.0

    def test_wall_sidecar_pinned_to_zero_without_wall_track(self):
        tr = Tracer()
        with tr.span("x", t_s=1.0) as sp:
            pass
        assert sp.wall_s == 0.0

    def test_wall_sidecar_measured_with_wall_track(self):
        ticks = iter([1.0, 3.5])
        tr = Tracer(wall=lambda: next(ticks))
        with tr.span("x") as sp:
            pass
        assert sp.wall_s == 2.5

    def test_disabled_tracer_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("x") as sp:
            sp.args["ignored"] = True
        assert tr.spans == []

    def test_sink_receives_closed_spans(self):
        seen = []
        tr = Tracer(sink=seen.append)
        with tr.span("a", t_s=1.0):
            with tr.span("b"):
                pass
        # sink fires on exit: innermost closes first
        assert [sp.name for sp in seen] == ["b", "a"]

    def test_jsonl_lines_are_valid_json(self):
        tr = Tracer()
        with tr.span("interval", t_s=5.0, step=3):
            pass
        (line,) = tr.to_jsonl()
        doc = json.loads(line)
        assert doc["name"] == "interval"
        assert doc["t0_s"] == 5.0
        assert doc["args"] == {"step": 3}

    def test_chrome_doc_shape(self):
        tr = Tracer()
        with tr.span("interval", t_s=2.0) as sp:
            sp.t1_s = 2.5
        doc = tr.chrome_doc()
        assert doc["displayTimeUnit"] == "ms"
        (ev,) = doc["traceEvents"]
        assert ev["ph"] == "X"
        assert ev["ts"] == 2_000_000
        assert ev["dur"] == 500_000
        assert ev["args"]["parent"] == -1


def _traced_run(tmp_path, name):
    run = ops_run("S13", seed=OPS_SEED)
    ctrl = FleetController(fast_path=True, seed=OPS_SEED)
    ctrl.run(
        run.services, run.timeline, run.horizon_s,
        measure_s=0.0, sim_seed=OPS_SEED,
    )
    out = tmp_path / name
    ctrl.obs.tracer.write_chrome(out)
    return ctrl, out


class TestReplayIdentity:
    def test_span_tree_byte_identical_across_replays(self, tmp_path):
        ctrl1, p1 = _traced_run(tmp_path, "t1.json")
        ctrl2, p2 = _traced_run(tmp_path, "t2.json")
        assert p1.read_bytes() == p2.read_bytes()
        assert ctrl1.obs.tracer.to_jsonl() == ctrl2.obs.tracer.to_jsonl()

    def test_chrome_export_is_loadable_and_complete(self, tmp_path):
        ctrl, path = _traced_run(tmp_path, "t.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == len(ctrl.obs.tracer.spans)
        names = {ev["name"] for ev in events}
        assert {"interval", "apply", "fingerprint", "report"} <= names
        # every parent reference resolves inside the event list
        seqs = {ev["args"]["seq"] for ev in events}
        for ev in events:
            parent = ev["args"]["parent"]
            assert parent == -1 or parent in seqs

    def test_offline_wall_sidecars_are_zero(self, tmp_path):
        ctrl, _ = _traced_run(tmp_path, "t.json")
        assert all(sp.wall_s == 0.0 for sp in ctrl.obs.tracer.spans)

    def test_recording_never_moves_a_fingerprint(self):
        """The 100-service ops day, obs plane on vs off: recording is
        sidecar-only, so every interval's fingerprints must match."""
        run = bench_ops_run(100)

        def replay(hub):
            ctrl = FleetController(fast_path=True, seed=OPS_SEED, obs=hub)
            report = ctrl.run(
                run.services, run.timeline, run.horizon_s,
                measure_s=0.25, warmup_s=0.1, sim_seed=OPS_SEED,
            )
            return ctrl, report

        ctrl, on = replay(ObsHub())
        assert ctrl.obs.tracer.spans
        assert_reports_identical(on, replay(ObsHub(enabled=False))[1])


class TestMemoSpans:
    def test_every_measurement_records_memo_hits(self, profiles):
        """An unchanged rate leaves every segment as it was, so the
        second interval is all memo hits: it simulates nothing and has
        no scatter span, but its memo span still records the hits."""
        services = [
            Service("a", "resnet-50", slo_latency_ms=250, request_rate=2000),
            Service("b", "mobilenetv2", slo_latency_ms=150, request_rate=4000),
        ]
        ctrl = FleetController(profiles)
        ctrl.run(
            services,
            [RateEpoch(time_s=50.0, service_id="a", rate=2000.0)],
            horizon_s=100.0,
            measure_s=0.05,
        )
        spans = ctrl.obs.tracer.spans
        cold, warm = (sp for sp in spans if sp.name == "memo")
        n = cold.args["segments"]
        assert n > 0
        assert (cold.args["hits"], cold.args["misses"]) == (0, n)
        assert warm.args == {"segments": n, "hits": n, "misses": 0}
        assert warm.t0_s == 50.0
        assert spans[warm.parent].name == "measure"
        assert [sp.t0_s for sp in spans if sp.name == "scatter"] == [0.0]


class TestHubWiring:
    def test_hub_wall_rebinds_tracer(self):
        hub = ObsHub()
        assert hub.wall() == 0.0
        hub.set_wall(lambda: 7.0)
        assert hub.wall() == 7.0
        assert hub.tracer._wall() == 7.0

    def test_live_hub_has_a_wall_track(self):
        hub = ObsHub.live()
        assert hub.wall() > 0.0
