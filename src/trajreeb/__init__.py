"""trajreeb: Reeb graphs of epsilon-grouping structure for 3D trajectories.

A set of spatial trajectories (dMRI tractography streamlines, typically) is
modeled by the evolution of its max-width epsilon-connected groups across
point steps: appear/disappear/connect/disconnect events drive a dynamic
step graph whose component history is recorded as a Reeb graph with 3D
point correspondence, queryable as a finite state machine and summarized by
graph-theoretic features for cohort comparison.
"""

from .errors import (
    ContractError,
    FormatError,
    InvalidTransitionError,
    ParseError,
    TrajreebError,
    UnsupportedFormatError,
)
from .geometry import (
    Config,
    Point3,
    Trajectory,
    TrajectorySet,
    distance,
    eps_connected,
    make_set,
)
from .io import (
    FileFormat,
    format_from_path,
    orient_align,
    parse,
    prepare,
    resample,
    to_csv,
    to_json,
    to_tck,
)
from .events import Event, EventKind, EventSchedule, detect_all_events, pairwise_events
from .connectivity import StepGraph
from .reeb import (
    FsmState,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    VertexKind,
    build_reeb,
    fsm_next,
    fsm_start,
    groups_at_step,
)
from .metrics import (
    CohortComparison,
    MetricsReport,
    compare_cohorts,
    compute_metrics,
    reports_from_csv,
    reports_to_csv,
    sweep,
)
from .serialize import graph_from_json, graph_to_json, serialize_graph
from .synthetic import make_bundle

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ContractError",
    "CohortComparison",
    "Event",
    "EventKind",
    "EventSchedule",
    "FileFormat",
    "FormatError",
    "FsmState",
    "InvalidTransitionError",
    "MetricsReport",
    "ParseError",
    "Point3",
    "ReebEdge",
    "ReebGraph",
    "ReebVertex",
    "StepGraph",
    "Trajectory",
    "TrajectorySet",
    "TrajreebError",
    "UnsupportedFormatError",
    "VertexKind",
    "build_reeb",
    "compare_cohorts",
    "compute_metrics",
    "detect_all_events",
    "distance",
    "eps_connected",
    "format_from_path",
    "fsm_next",
    "fsm_start",
    "graph_from_json",
    "graph_to_json",
    "groups_at_step",
    "make_bundle",
    "make_set",
    "orient_align",
    "pairwise_events",
    "parse",
    "prepare",
    "resample",
    "serialize_graph",
    "sweep",
    "to_csv",
    "to_json",
    "to_tck",
]
