"""ParvaGPU (SC 2024) reproduction.

Efficient spatial GPU sharing for large-scale DNN inference: combined
MIG + MPS scheduling via the Segment Configurator / Segment Allocator,
every baseline it was evaluated against, and a simulated multi-GPU
substrate with a discrete-event serving simulator.  Scheduling is
formulated over pluggable *partition geometries*: the paper's A100-class
MIG rules (:data:`repro.gpu.mig.MIG_GEOMETRY`) and AMD MI300X XCD
partitioning (:data:`repro.gpu.amd.MI300X_GEOMETRY`) ship in-tree, and
heterogeneous clusters mixing both are scheduled by
:class:`~repro.core.hetero.HeterogeneousParvaGPU`.

Quickstart::

    from repro import ParvaGPU, Service, profile_workloads

    profiles = profile_workloads()
    services = [
        Service("vision", "resnet-50", slo_latency_ms=200, request_rate=800),
        Service("nlp", "bert-large", slo_latency_ms=2000, request_rate=120),
    ]
    placement = ParvaGPU(profiles).schedule(services)
    print(placement.num_gpus, "GPUs")

Retarget the same pipeline at an MI300X fleet::

    from repro import get_geometry

    amd = get_geometry("mi300x")
    placement = ParvaGPU(
        profile_workloads(geometry=amd), geometry=amd
    ).schedule(services)
"""

from repro.core import (
    DeploymentManager,
    GeometryPool,
    HeterogeneousParvaGPU,
    ParvaGPU,
    Placement,
    Prediction,
    Predictor,
    Segment,
    SegmentAllocator,
    SegmentConfigurator,
    Service,
)
from repro.baselines import (
    Gpulet,
    IGniter,
    InfeasibleScheduleError,
    MigServing,
    all_frameworks,
    make_framework,
)
from repro.gpu import (
    GPU,
    Cluster,
    MI300X_GEOMETRY,
    MIG_GEOMETRY,
    PartitionGeometry,
    available_geometries,
    get_geometry,
)
from repro.metrics import external_fragmentation, internal_slack
from repro.ops import (
    FleetController,
    OpsReport,
    merge_timeline,
    run_identity_checked,
)
from repro.profiler import ProfileTable, Profiler, profile_workloads
from repro.scenarios import (
    get_scenario,
    ops_run,
    scaled_scenario,
    scenario_services,
)
from repro.sim import simulate_placement

__version__ = "1.0.0"

__all__ = [
    "DeploymentManager",
    "ParvaGPU",
    "Placement",
    "Prediction",
    "Predictor",
    "Segment",
    "SegmentAllocator",
    "SegmentConfigurator",
    "Service",
    "Gpulet",
    "IGniter",
    "InfeasibleScheduleError",
    "MigServing",
    "all_frameworks",
    "make_framework",
    "GPU",
    "Cluster",
    "MI300X_GEOMETRY",
    "MIG_GEOMETRY",
    "PartitionGeometry",
    "available_geometries",
    "get_geometry",
    "GeometryPool",
    "HeterogeneousParvaGPU",
    "external_fragmentation",
    "internal_slack",
    "ProfileTable",
    "Profiler",
    "profile_workloads",
    "get_scenario",
    "scaled_scenario",
    "scenario_services",
    "simulate_placement",
    "FleetController",
    "OpsReport",
    "merge_timeline",
    "run_identity_checked",
    "ops_run",
    "__version__",
]
