"""Regenerate ``record.json``: the digests every benchmark run is checked
against, the measured properties of each workload, and the host they
were measured on.

    python3 perfbench/record.py [--workload NAME ...]

Digests are recorded for every seed of each workload's pool (the default
seed, one held-out seed and seeds hashed from the pool index); every run
draws its timelines from that pool.  Re-record only for a change that is meant to alter the
program's outputs; a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "record.json"

def properties(bw, workload: str, work: Path, plain) -> dict:
    """Input properties the workload's layer costs depend on.  Counts and
    the live busy share come from ``plain``, an untraced replay of the
    default seed; the unchanged shares need the probe, so they come from
    a traced replay whose digest must equal ``plain``'s."""
    from bench_layers import LayerProbe, layer_metrics
    from repro.obs import ObsHub

    hub = ObsHub.live()
    prep = bw.prepare(workload, bw.DEFAULT_SEED, obs=hub)
    probe = LayerProbe()
    with probe.installed(hub):
        traced = bw.replay(prep, work, on_step=probe.after_step)
    if traced.digest != plain.digest:
        raise SystemExit(f"{workload}: the traced replay's digest differs from the untraced one")
    m = layer_metrics(probe, hub, traced)
    intervals = plain.report.intervals
    full = sum(1 for r in intervals if r.path == "full")
    props = {
        "services": len(prep.run.services),
        "horizon_s": prep.run.horizon_s,
        "events": plain.offered,
        "steps": len(intervals),
        "steps_full": full,
        "steps_incremental": len(intervals) - full,
        "events_per_step": round(plain.offered / len(intervals), 2),
        "sim.unchanged_segment_share": round(m["sim.unchanged_segment_share"], 3),
        "gpu.unchanged_instance_share": round(m["gpu.unchanged_instance_share"], 3),
        "panel_size": bw.PANEL[workload],
        "pool_size": bw.POOL[workload],
    }
    if workload == "live-flash":
        props["time_scale"] = bw.LIVE_TIME_SCALE
        props["controller_busy_share"] = round(plain.busy_s / plain.elapsed_s, 3)
    return props


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads as bw

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=bw.WORKLOADS)
    args = parser.parse_args(argv)
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"workloads": {}}
    record["seeds"] = {"default": bw.DEFAULT_SEED, "held_out": bw.HELD_OUT_SEED}
    record["host"] = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in args.workload or bw.WORKLOADS:
            digests = {}
            for s in bw.pool_seeds(workload):
                replay = bw.replay(bw.prepare(workload, s), work)
                if replay.applied != replay.offered or not replay.journal_ok:
                    raise SystemExit(f"{workload} seed {s}: not every offered event was applied")
                digests[str(s)] = replay.digest
                print(f"{workload} seed {s}: {replay.digest}", flush=True)
                if s == bw.DEFAULT_SEED:
                    plain = replay
            props = properties(bw, workload, work, plain)
            print(f"{workload}: {props}", flush=True)
            record["workloads"][workload] = {"properties": props, "digests": digests}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
