"""Traffic accounting and the alpha-beta-congestion performance model."""

from repro.model.compiled import (
    CompiledRouteTable,
    GridMetrics,
    TransferTable,
    evaluate_grid,
    evaluate_time,
    lower_schedule,
    profile_schedule,
    profile_table,
    resolve_profile_engine,
    transfer_table_for,
)
from repro.model.cost import CostParams
from repro.model.simulator import (
    RunMetrics,
    ScheduleProfile,
    StepProfile,
)
from repro.model.traffic import (
    global_traffic_elems,
    link_loads_per_step,
    traffic_by_class,
    traffic_reduction,
)

__all__ = [
    "CompiledRouteTable",
    "CostParams",
    "GridMetrics",
    "RunMetrics",
    "ScheduleProfile",
    "StepProfile",
    "TransferTable",
    "evaluate_grid",
    "evaluate_time",
    "lower_schedule",
    "profile_schedule",
    "profile_table",
    "resolve_profile_engine",
    "transfer_table_for",
    "global_traffic_elems",
    "link_loads_per_step",
    "traffic_by_class",
    "traffic_reduction",
]
