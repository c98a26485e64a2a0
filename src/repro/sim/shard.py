"""The simulation fast path: one columnar, memoized segment executor.

``simulate_placement(fast_path=True)`` runs :func:`simulate_placement_sharded`
at every worker count: ``workers`` ≤ 1 executes the single shard inline
through :class:`~repro.parallel.ShardPool`'s inline mode, ``workers`` ≥ 2
fans the shards across processes.  Both go through the same lookup →
pack → run → scatter → serial-accumulate code, so the report is
bit-identical for any worker count.  The per-request event engine
(``fast_path=False``) stays the only naive reference the identity checks
compare against.  Three structural facts make the executor exact:

- **Segments are independent.**  Each per-segment kernel is a pure
  function of seven scalar parameters plus its arrival array; segments
  share only additive state (ServiceStats, busy SM-time, the activity
  tracker), so any partition of the segment list computes the same
  per-segment results.
- **The merge is position-based.**  Shards are contiguous index blocks
  (:func:`~repro.parallel.partition`) and results scatter back into
  their input slots before a single serial accumulation pass in
  placement order, so even order-sensitive float accumulations match
  bit-for-bit no matter which worker finishes first.
- **Shard payloads are columnar.**  A :class:`ShardJob` carries the
  kernel parameters as flat numpy arrays plus either per-segment rates
  (uniform arrivals regenerate in the worker —
  :func:`~repro.sim.arrivals.uniform_arrivals` is a pure function of
  ``(rate, duration)``) or one concatenated arrival buffer with offsets
  (Poisson arrivals consume the shared parent rng in segment order and
  are therefore pre-generated before sharding).  Nothing heavier than
  strings and float64 buffers crosses the process boundary.

The same purity argument yields the cross-interval **segment memo**: a
segment's result is a deterministic function of its kernel signature and
offered rate, so a :class:`ShardContext` held open across a
:class:`~repro.ops.controller.FleetController` run resolves segments
unchanged since the previous measurement from cache and simulates only
the (few) segments an event actually touched.  That dedup, not core
count, is where most of the fast path's per-interval win comes from, and
every worker count gets it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

import numpy as np

from repro.core.placement import PlacedSegment, Placement
from repro.core.service import Service
from repro.obs import ObsHub
from repro.parallel import FaultInjector, ShardPool, partition
from repro.sim.arrivals import poisson_arrivals, uniform_arrivals
from repro.sim.fastpath import (
    _SegmentKernel,
    _simulate_segment,
    _simulate_segment_vectorized,
)
from repro.sim.metrics import ServiceStats, SimulationReport

#: Per-segment result row: batches, violations, requests, latency_sum_ms,
#: latency_max_ms, busy_sm_s, steps.  Counts are exact in float64 far
#: beyond any simulated fleet (2**53 requests).
_ROW_WIDTH = 7


class ShardJob(NamedTuple):
    """One shard's columnar payload (picklable, numpy-backed)."""

    models: tuple[str, ...]
    gpcs: np.ndarray
    batch: np.ndarray
    procs: np.ndarray
    latency_ms: np.ndarray
    slo_ms: np.ndarray
    sm_count: np.ndarray
    #: uniform arrivals: per-segment offered rates (regenerated in-worker)
    rates: Optional[np.ndarray]
    #: pre-generated arrivals: one concatenated buffer + segment offsets
    arrival_buf: Optional[np.ndarray]
    offsets: Optional[np.ndarray]
    duration_s: float
    warmup_s: float
    until: float


def _run_shard(job: ShardJob) -> np.ndarray:
    """Worker: simulate one shard's segments, results in shard order."""
    n = len(job.models)
    out = np.empty((n, _ROW_WIDTH), dtype=np.float64)
    for i in range(n):
        kernel = _SegmentKernel(
            model=job.models[i],
            gpcs=float(job.gpcs[i]),
            batch_size=int(job.batch[i]),
            num_processes=int(job.procs[i]),
            segment_latency_ms=float(job.latency_ms[i]),
            slo_ms=float(job.slo_ms[i]),
            sm_count=int(job.sm_count[i]),
        )
        if job.rates is not None:
            arr = uniform_arrivals(float(job.rates[i]), job.duration_s)
        else:
            arr = job.arrival_buf[job.offsets[i] : job.offsets[i + 1]]
        res = _simulate_segment_vectorized(kernel, arr, job.warmup_s, job.until)
        if res is None:
            res = _simulate_segment(kernel, arr, job.warmup_s, job.until)
        out[i] = (
            res.batches,
            res.violations,
            res.requests,
            res.latency_sum_ms,
            res.latency_max_ms,
            res.busy_sm_s,
            res.steps,
        )
    return out


class ShardContext:
    """Pool + cross-call segment memo, held open across a controller run.

    The memo maps a segment's full kernel signature (model, GPC share,
    batch, processes, latency, SLO, registered SM count, offered rate)
    plus the measurement window to its result row.  Every component that
    determines the simulation outcome is part of the key, and the kernel
    is a pure function of the key — a hit is bit-identical to a fresh
    computation.  Only uniform arrivals are memoizable; Poisson arrivals
    depend on the shared rng stream and always re-simulate.

    Each measurement replaces the memo with the rows it used, so the memo
    never outgrows the live segment count and a hit always means
    "unchanged since the previous measurement".
    """

    def __init__(
        self,
        workers: int,
        fault_injector: Optional["FaultInjector"] = None,
        job_timeout_s: Optional[float] = None,
        obs: Optional[ObsHub] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        #: shard count; 0 and 1 both run the single shard inline
        self.workers = max(1, workers)
        self.obs = obs if obs is not None else ObsHub(enabled=False)
        self.pool = ShardPool(
            self.workers,
            fault_injector=fault_injector,
            job_timeout_s=job_timeout_s,
            obs=self.obs,
        )
        self.memo: dict[tuple, tuple] = {}

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "ShardContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _pack_job(
    segs: list[tuple[PlacedSegment, float, int, Optional[np.ndarray]]],
    arrivals: str,
    duration_s: float,
    warmup_s: float,
    until: float,
) -> ShardJob:
    """Columnar payload for one shard's ``(segment, slo, sm, times)`` rows."""
    models = tuple(seg.model for seg, _, _, _ in segs)
    gpcs = np.array([seg.effective_gpcs for seg, _, _, _ in segs])
    batch = np.array([seg.batch_size for seg, _, _, _ in segs], dtype=np.int64)
    procs = np.array(
        [seg.num_processes for seg, _, _, _ in segs], dtype=np.int64
    )
    latency = np.array([seg.latency_ms for seg, _, _, _ in segs])
    slo = np.array([slo_ms for _, slo_ms, _, _ in segs])
    sm = np.array([sm_count for _, _, sm_count, _ in segs], dtype=np.int64)
    rates = arrival_buf = offsets = None
    if arrivals == "uniform":
        rates = np.array([seg.served_rate for seg, _, _, _ in segs])
    else:
        chunks = [times for _, _, _, times in segs]
        counts = np.array([len(c) for c in chunks], dtype=np.int64)
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        arrival_buf = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
        )
    return ShardJob(
        models=models,
        gpcs=gpcs,
        batch=batch,
        procs=procs,
        latency_ms=latency,
        slo_ms=slo,
        sm_count=sm,
        rates=rates,
        arrival_buf=arrival_buf,
        offsets=offsets,
        duration_s=duration_s,
        warmup_s=warmup_s,
        until=until,
    )


def simulate_placement_sharded(
    placement: Placement,
    services: Iterable[Service],
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 0,
    arrivals: str = "uniform",
    workers: int = 0,
    context: Optional[ShardContext] = None,
) -> SimulationReport:
    """The fast path behind ``simulate_placement(fast_path=True)``.

    ``workers`` is the shard count (0 or 1 runs the single shard inline,
    no subprocess).  Passing a ``context`` reuses its pool and segment
    memo across calls (the FleetController's per-interval loop) and its
    shard count supersedes ``workers``; otherwise an ephemeral context is
    created and closed before returning.  ``report.events_processed``
    counts kernel steps (dispatches + completions) rather than heap
    events.
    """
    if duration_s <= warmup_s:
        raise ValueError("duration must exceed warmup")
    if context is not None:
        return _simulate_sharded(
            placement, services, duration_s, warmup_s, seed, arrivals, context
        )
    with ShardContext(workers) as ctx:
        return _simulate_sharded(
            placement, services, duration_s, warmup_s, seed, arrivals, ctx
        )


def _simulate_sharded(
    placement: Placement,
    services: Iterable[Service],
    duration_s: float,
    warmup_s: float,
    seed: int,
    arrivals: str,
    ctx: ShardContext,
) -> SimulationReport:
    from repro.sim.runner import segment_key

    svc_by_id = {s.id: s for s in services}
    report = SimulationReport(duration_s=duration_s, warmup_s=warmup_s)
    for sid, svc in svc_by_id.items():
        report.services[sid] = ServiceStats(
            service_id=sid, slo_ms=svc.slo_latency_ms
        )
        report.completed[sid] = 0

    rng = np.random.default_rng(seed)
    until = duration_s + 1.0
    #: (key, segment, slo_ms, times) in placement order; ``times`` is
    #: None for uniform arrivals (regenerated from the rate in-worker).
    runs: list[tuple[str, PlacedSegment, float, Optional[np.ndarray]]] = []
    sm_counts: dict[str, int] = {}
    busy: dict[str, float] = {}
    for gpu_id, seg in placement.iter_segments():
        if seg.service_id not in svc_by_id:
            raise ValueError(
                f"placement references unknown service {seg.service_id!r}"
            )
        key = segment_key(gpu_id, seg.service_id, seg.start)
        if arrivals == "poisson":
            # The shared rng advances in placement order, exactly like
            # the event engine — generation cannot move into workers.
            times = poisson_arrivals(seg.served_rate, duration_s, rng)
        elif arrivals == "uniform":
            times = None
        else:
            raise ValueError(f"unknown arrival process {arrivals!r}")
        runs.append((key, seg, svc_by_id[seg.service_id].slo_latency_ms, times))
        # Last register wins, as in SMActivityTracker.register.
        sm_counts[key] = max(1, round(seg.sm_count))
        busy.setdefault(key, 0.0)

    memoizable = arrivals == "uniform"
    results: list[Optional[tuple]] = [None] * len(runs)
    memo_keys: list[Optional[tuple]] = [None] * len(runs)
    miss_idx: list[int] = []
    with ctx.obs.span("memo", cat="shard", segments=len(runs)) as sp:
        for i, (key, seg, slo_ms, _times) in enumerate(runs):
            if memoizable:
                mk = (
                    seg.model,
                    seg.effective_gpcs,
                    seg.batch_size,
                    seg.num_processes,
                    seg.latency_ms,
                    slo_ms,
                    sm_counts[key],
                    seg.served_rate,
                    duration_s,
                    warmup_s,
                )
                memo_keys[i] = mk
                hit = ctx.memo.get(mk)
                if hit is not None:
                    results[i] = hit
                    continue
            miss_idx.append(i)
        sp.args["hits"] = len(runs) - len(miss_idx)
        sp.args["misses"] = len(miss_idx)

    if miss_idx:
        jobs = []
        for start, stop in partition(len(miss_idx), ctx.workers):
            block = [
                (
                    runs[j][1],
                    runs[j][2],
                    sm_counts[runs[j][0]],
                    runs[j][3],
                )
                for j in miss_idx[start:stop]
            ]
            jobs.append(
                _pack_job(block, arrivals, duration_s, warmup_s, until)
            )
        with ctx.obs.span(
            "scatter", cat="shard", shards=len(jobs), segments=len(miss_idx),
        ):
            rows_per_shard = ctx.pool.run(_run_shard, jobs)
        with ctx.obs.span("gather", cat="shard", shards=len(jobs)):
            cursor = 0
            for rows in rows_per_shard:
                for row in rows:
                    # Plain floats: float64 round-trips exactly, and
                    # report fields must not silently become numpy
                    # scalars.
                    results[miss_idx[cursor]] = tuple(
                        float(x) for x in row
                    )
                    cursor += 1

    # The next call's memo holds exactly the rows this one used.
    memo: dict[tuple, tuple] = {}
    steps = 0
    for i, (key, seg, slo_ms, _times) in enumerate(runs):
        row = results[i]
        if memoizable:
            memo[memo_keys[i]] = row
        batches, violations, requests, lat_sum, lat_max, busy_sm, n_steps = row
        st = report.services[seg.service_id]
        st.batches += int(batches)
        st.violations += int(violations)
        st.requests += int(requests)
        st.latency_sum_ms += lat_sum
        if lat_max > st.latency_max_ms:
            st.latency_max_ms = lat_max
        report.completed[seg.service_id] += int(requests)
        busy[key] += busy_sm
        steps += int(n_steps)
    ctx.memo = memo
    report.events_processed = steps

    window = duration_s - warmup_s
    for key, _seg, _slo, _times in runs:
        ratio = busy[key] / (sm_counts[key] * window) if window > 0 else 0.0
        report.segment_activity[key] = min(1.0, ratio)
    return report
