"""The control-plane benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fleet-day --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, replays them through the
public ``FleetController`` (or ``ServeGateway``) API for about
``--seconds`` seconds, checks the outputs, and prints one JSON object as
its last line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times untraced replays and reports the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced replay of the run's
own seed and reports the per-layer metrics (see ``bench_layers``).

Times are process time (see ``bench_workloads``): CPU time of the
replaying thread, scaled to the reference host speed offline
(``hostspeed``), plus the live session's idle waits, so time the host
takes the CPU away does not count.

Correctness, on every run:

- every replay's report digest (sha256 over each interval's placement and
  simulation fingerprint) must equal the one ``record.json`` holds for its
  seed.  A run replays only seeds of the recorded pool, so every replay
  is checked; a seed with no recorded digest fails the run, never passes.
  The traced replay is checked the same way, so its digest equals the
  untraced one's;
- every offered event must be applied by a step; for ``live-flash`` the
  journal must read back exactly the events the generator sent.

An operation is one offered event.  It fails if its replay raised, if
its digest mismatched, or if it was dropped or never applied.  A run
with any failure prints ``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_layers import TARGETS
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "record.json"

#: name -> (unit, better); reported with --trace 0
END_TO_END = {
    "replay_s": ("s", "lower"),
    "reaction_p50_ms": ("ms", "lower"),
    "gpu_hours": ("GPU-h", "lower"),
    "peak_gpus": ("GPUs", "lower"),
    "slo_compliance_min": ("fraction", "higher"),
    "tenants_at_slo_share": ("fraction", "higher"),
    "reconfig_gap_s": ("s", "lower"),
    "reconfig_ops": ("count", "lower"),
    "ops_ok_share": ("fraction", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better); reported with --trace 1
PER_LAYER = {
    "ops.apply_s": ("s", "lower"),
    "ops.check_s": ("s", "lower"),
    "ops.fingerprint_s": ("s", "lower"),
    "ops.measure_s": ("s", "lower"),
    "ops.apply_gap_s": ("s", "lower"),
    "ops.apply_accounted_share": ("fraction", "higher"),
    "ops.step_p50_ms": ("ms", "lower"),
    "ops.steps": ("count", "lower"),
    "ops.steps_full": ("count", "lower"),
    "ops.events_applied": ("count", "higher"),
    "ops.events_skipped": ("count", "lower"),
    **{
        name: spec
        for stem in TARGETS
        for name, spec in (
            (f"{stem}_s", ("s", "lower")),
            (f"{stem}_calls", ("count", "lower")),
        )
    },
    "gpu.unchanged_instance_share": ("fraction", "higher"),
    "sim.segments": ("count", "lower"),
    "sim.unchanged_segment_share": ("fraction", "higher"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.step_p50_ms": ("ms", "lower"),
    "serve.generator_late_p95_ms": ("ms", "lower"),
    "serve.journal_fsyncs": ("count", "lower"),
    "serve.late_steps": ("count", "lower"),
    "serve.deferrals": ("count", "lower"),
    "serve.busy_share": ("fraction", "lower"),
    "ckpt.bytes": ("bytes", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
}


class Checker:
    """Counts operations and failures, and holds every digest seen."""

    def __init__(self, workload: str, record: dict) -> None:
        self.recorded = record["workloads"].get(workload, {}).get("digests", {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked: set[int] = set()
        self.unchecked: set[int] = set()

    def fail(self, offered: int, why: str) -> None:
        self.attempted += offered
        self.failed += offered
        self.problems.append(why)

    def check(self, replay, label: str = "") -> None:
        digest = replay.digest
        want = self.recorded.get(str(replay.seed))
        problems = []
        if want is None:
            self.unchecked.add(replay.seed)
            problems.append(f"seed {replay.seed}{label}: no recorded digest, unchecked")
        elif digest != want:
            problems.append(f"seed {replay.seed}{label}: digest {digest[:12]} != recorded {want[:12]}")
        else:
            self.checked.add(replay.seed)
        if not replay.journal_ok:
            problems.append(f"seed {replay.seed}{label}: journal does not read back the sent events")
        if problems:
            self.fail(replay.offered, "; ".join(problems))
            return
        lost = replay.offered - replay.applied
        self.attempted += replay.offered
        self.failed += lost
        if lost:
            self.problems.append(f"seed {replay.seed}{label}: {lost} offered events never applied")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def import_seconds(repeats: int = 3) -> float:
    """Median process time a fresh interpreter takes to import the program."""
    code = (
        "from hostspeed import HostSpeed; watch = HostSpeed(); "
        "import bench_workloads; print(watch.lap())"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_untraced(bw, workload: str, seed: int, seconds: float, work: Path, checker: Checker):
    """Replay the seed panel in whole passes, so every timeline counts
    alike, until the next pass would overrun ``seconds`` (at least one)."""
    seeds = bw.panel_seeds(workload, seed)
    times: dict[int, list[float]] = {s: [] for s in seeds}
    firsts: dict[int, object] = {}
    setups: list[float] = []
    reactions: list[float] = []
    speeds: list[float] = []
    cost: dict[int, float] = {}
    watch = HostSpeed()
    start = time.perf_counter()
    i = 0
    while True:
        s = seeds[i % len(seeds)]
        t0 = time.perf_counter()
        watch.lap()
        prep = bw.prepare(workload, s)
        setups.append(watch.lap())
        try:
            replay = bw.replay(prep, work, watch=watch)
        except Exception as exc:  # a step raised: the whole timeline failed
            checker.fail(len(prep.run.timeline), f"seed {s}: {type(exc).__name__}: {exc}")
            break
        checker.check(replay)
        times[s].append(replay.elapsed_s)
        reactions.extend(replay.reactions_s)
        speeds.extend(replay.speeds)
        firsts.setdefault(s, replay)
        cost[s] = time.perf_counter() - t0
        i += 1
        if i % len(seeds) == 0 and time.perf_counter() - start + sum(cost.values()) > seconds:
            break
    return times, firsts, setups, reactions, speeds


def end_to_end_metrics(bw, times, firsts, setups, reactions, import_s, checker) -> dict[str, float]:
    reports = [r.report for r in firsts.values()]
    attainment = [v for rep in reports for v in rep.slo_attainment(0.99).values()]
    mean = statistics.fmean
    return {
        "replay_s": mean(statistics.median(t) for t in times.values() if t),
        "reaction_p50_ms": bw.percentile(reactions, 0.50) * 1e3,
        "gpu_hours": mean(rep.gpu_hours for rep in reports),
        "peak_gpus": mean(rep.peak_gpus for rep in reports),
        "slo_compliance_min": min(rep.min_compliance for rep in reports),
        "tenants_at_slo_share": sum(1 for v in attainment if v >= 1.0) / len(attainment),
        "reconfig_gap_s": mean(sum(r.downtime_total_s for r in rep.intervals) for rep in reports),
        "reconfig_ops": mean(rep.total_reconfig_ops for rep in reports),
        "ops_ok_share": (checker.attempted - checker.failed) / max(1, checker.attempted),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: the gateway's own figures; the wrapped serve calls come from the probe
SERVE_METRICS = tuple(
    name for name in PER_LAYER
    if name.startswith("serve.") and name.rsplit("_", 1)[0] not in TARGETS
)


def serve_metrics(bw, session) -> dict[str, float]:
    """The gateway's figures for one live session."""
    return {
        "serve.queue_wait_p50_ms": bw.percentile(session.waits_s, 0.5) * 1e3,
        "serve.step_p50_ms": bw.percentile(session.step_times_s, 0.5) * 1e3,
        "serve.generator_late_p95_ms": bw.percentile(session.generator_late_s, 0.95) * 1e3,
        "serve.journal_fsyncs": session.journal_fsyncs,
        "serve.late_steps": session.health.late_steps,
        "serve.deferrals": session.health.deferrals,
        "serve.busy_share": session.busy_s / session.elapsed_s,
    }


def run_traced(bw, workload: str, seed: int, seconds: float, work: Path, checker: Checker):
    """Pairs of (untraced, traced) replays of the panel's first seed while
    time allows."""
    from bench_layers import LayerProbe, layer_metrics
    from repro.obs import ObsHub

    live = workload == "live-flash"
    seed = bw.panel_seeds(workload, seed)[0]
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        hub = ObsHub.live()
        probe = LayerProbe()
        try:
            untraced = bw.replay(bw.prepare(workload, seed), work)
            prep = bw.prepare(workload, seed, obs=hub)
            with probe.installed(hub):
                replay = bw.replay(prep, work, on_step=probe.after_step)
        except Exception as exc:  # a step raised: the whole timeline failed
            checker.fail(len(bw.build(workload, seed).timeline), f"seed {seed}: {type(exc).__name__}: {exc}")
            break
        checker.check(untraced)
        checker.check(replay, " (traced)")
        # a live session's length is set by its clock; its busy time is not
        plain.append(untraced.busy_s if live else untraced.elapsed_s)
        traced.append(replay.busy_s if live else replay.elapsed_s)
        figures = layer_metrics(probe, hub, replay)
        figures.update(serve_metrics(bw, replay) if live else dict.fromkeys(SERVE_METRICS, 0))
        layers.append(figures)
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    if not layers:
        return {}, 0
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["obs.trace_overhead_pct"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    ) * 100.0
    return metrics, len(layers)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = bw.DEFAULT_SEED if args.seed is None else args.seed
    checker = Checker(args.workload, json.loads(RECORD.read_text()))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, pairs = run_traced(bw, args.workload, seed, args.seconds, work, checker)
            specs = PER_LAYER
            detail = f"{pairs} untraced/traced pairs of seed {bw.panel_seeds(args.workload, seed)[0]}"
        else:
            times, firsts, setups, reactions, speeds = run_untraced(
                bw, args.workload, seed, args.seconds, work, checker
            )
            specs = END_TO_END
            if not firsts:
                metrics = {}
            else:
                metrics = end_to_end_metrics(
                    bw, times, firsts, setups, reactions, import_seconds(), checker
                )
            detail = (
                f"seeds {sorted(times)}, replays {sum(len(t) for t in times.values())}, "
                f"reaction samples {len(reactions)}, p90 "
                f"{bw.percentile(reactions, 0.90) * 1e3:.1f} ms (no bound: it rests on a few "
                f"large steps and spread up to 20% over ten seeds)"
            )
            if speeds:
                detail += (
                    f"; host speed (reference = 1) median {statistics.median(speeds):.3f}, "
                    f"range {min(speeds):.3f}..{max(speeds):.3f}"
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(
        f"# {args.workload} seed={seed} trace={args.trace}: {detail}; "
        f"host {os.cpu_count()} cores, Python {platform.python_version()}, {platform.platform()}"
    )
    print(
        f"# digests: {len(checker.checked)} seeds checked against record.json, "
        f"{len(checker.unchecked)} unchecked (a failure) {sorted(checker.unchecked)}"
    )
    for problem in checker.problems:
        print(f"# FAILED: {problem}")
    for name, value in metrics.items():
        if name in specs:
            print(f"#   {name:<32} {value:>14.6g} {specs[name][0]}")
    result = {
        "correct": checker.correct and bool(metrics),
        "attempted": max(1, checker.attempted),
        "failed": checker.failed if checker.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _better) in specs.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
