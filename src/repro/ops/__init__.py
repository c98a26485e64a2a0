"""Fleet operations: the closed-loop control plane.

The paper's SIII-F deployment story exists because real clusters are
never static.  This package turns the repo's three disturbance
mechanisms — rate-trace epochs, the failover controller's GPU loss, the
SLO-update path — into one operable system, the repo's only closed
loop:

- :mod:`repro.ops.events` — typed timeline events
  (:class:`~repro.ops.events.RateEpoch`,
  :class:`~repro.ops.events.GpuFailure`,
  :class:`~repro.ops.events.GpuRecovery`,
  :class:`~repro.ops.events.SpotPreemptionWave`,
  :class:`~repro.ops.events.ServiceArrival`,
  :class:`~repro.ops.events.ServiceDeparture`,
  :class:`~repro.ops.events.SloChange`) merged into one deterministic
  stream;
- :mod:`repro.ops.chaos` — seeded disturbance generators (MTBF failure
  injection, spot preemption/restore waves, tenant churn, flash-crowd
  overlays, SLO renegotiation);
- :mod:`repro.ops.controller` — the
  :class:`~repro.ops.controller.FleetController` that consumes the
  stream through the cheapest correct path and identity-checks itself;
- :mod:`repro.ops.report` — the :class:`~repro.ops.report.OpsReport` of
  what tenants actually experienced.

Scenarios S12-S14 (:mod:`repro.scenarios.ops`) package ready-made runs;
``parvagpu ops --scenario s13`` drives one from the CLI.
"""

from repro.ops.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.ops.controller import (
    FleetController,
    OpsIdentityError,
    OutOfOrderEventError,
    assert_reports_identical,
    run_identity_checked,
)
from repro.ops.events import (
    GpuFailure,
    GpuRecovery,
    OpsEvent,
    RateEpoch,
    ServiceArrival,
    ServiceDeparture,
    SloChange,
    SpotPreemptionWave,
    merge_timeline,
)
from repro.ops.report import FailureRecord, IntervalRecord, OpsReport

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "read_checkpoint",
    "write_checkpoint",
    "FleetController",
    "OpsIdentityError",
    "OutOfOrderEventError",
    "assert_reports_identical",
    "run_identity_checked",
    "OpsEvent",
    "RateEpoch",
    "SloChange",
    "ServiceArrival",
    "ServiceDeparture",
    "GpuFailure",
    "GpuRecovery",
    "SpotPreemptionWave",
    "merge_timeline",
    "OpsReport",
    "IntervalRecord",
    "FailureRecord",
]
