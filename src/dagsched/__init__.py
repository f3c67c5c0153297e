"""Height-based genetic-algorithm scheduler for dependent tasks on heterogeneous machines."""

from .dag import (
    DataEdge,
    TaskGraph,
    TaskNode,
    adjust_heights,
    build_graph,
    compute_heights,
    is_valid_order,
    ready_tasks,
)
from .evaluator import Chromosome, CommMode, Timeline, evaluate, lower_bound
from .ga import CrossoverMode, GaConfig, RunStats, run
from .minmin import min_min_schedule
from .platform import LinkSpec, Machine, Platform, build_platform, execution_time, transfer_time

__all__ = [
    "TaskNode", "DataEdge", "TaskGraph",
    "build_graph", "compute_heights", "adjust_heights", "ready_tasks",
    "is_valid_order",
    "Machine", "LinkSpec", "Platform", "build_platform",
    "execution_time", "transfer_time",
    "Chromosome", "Timeline", "CommMode", "evaluate", "lower_bound",
    "GaConfig", "CrossoverMode", "RunStats", "run",
    "min_min_schedule",
]

__version__ = "0.1.0"
