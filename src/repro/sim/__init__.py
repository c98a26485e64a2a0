"""Discrete-event inference-cluster simulator.

Replays a scenario's request traffic against a deployment map, reproducing
the serving-time dynamics the paper measures on real A100s: Poisson
arrivals, per-segment batch assembly with SLO-aware flush timeouts,
concurrent MPS process execution, per-request latency accounting, and
DCGM-style SM-activity telemetry.

- :mod:`repro.sim.engine`   -- event heap and clock.
- :mod:`repro.sim.arrivals` -- seeded Poisson request generators.
- :mod:`repro.sim.batching` -- batch assembly policy.
- :mod:`repro.sim.server`   -- segment servers (one per placed partition).
- :mod:`repro.sim.metrics`  -- latency records, SLO compliance, activity.
- :mod:`repro.sim.runner`   -- one-call simulation of a placement.
- :mod:`repro.sim.fastpath` -- batch-granularity per-segment kernels.
- :mod:`repro.sim.shard`    -- the columnar, memoized executor running
  them: the fast path, default engine of :func:`simulate_placement` (the
  event-driven loop stays as the per-request reference).
"""

from repro.sim.engine import EventQueue
from repro.sim.arrivals import poisson_arrivals
from repro.sim.batching import BatchPolicy
from repro.sim.server import SegmentServer
from repro.sim.metrics import BatchRecord, SimulationReport
from repro.sim.runner import (
    IntervalMeasurement,
    measure_interval,
    simulate_placement,
)

__all__ = [
    "EventQueue",
    "poisson_arrivals",
    "BatchPolicy",
    "SegmentServer",
    "BatchRecord",
    "SimulationReport",
    "IntervalMeasurement",
    "measure_interval",
    "simulate_placement",
]
