"""Wire arrangement optimization for planar tendon-driven manipulators.

The package models a fixed planar link chain actuated by wires routed
through relay points (or by constant-moment-arm pulleys), scores candidate
arrangements by how well their feasible operational force and velocity
spaces cover target ellipses, and searches the mixed discrete/continuous
design space with NSGA-II.
"""

__version__ = "0.1.0"

from .arrangement import (
    Design,
    DesignSpace,
    genome_rows_decode,
    muscle_jacobian,
    relay_points,
)
from .config import ConfigError, ScenarioConfig, load_config
from .feasibility import (
    ActuatorLimits,
    EvaluationResult,
    Scenario,
    StateTables,
    TargetSpec,
    evaluate,
    force_h_all,
    gravity_center,
    state_tables,
    velocity_h_all,
)
from .model import (
    Pose,
    RobotModel,
    forward_kinematics,
    gravity_torque,
    joint_jacobian,
)
from .nsga2 import (
    ParetoArchive,
    crowding_distance,
    evolve,
    hypervolume_2d,
    non_dominated_sort,
)
from .oracle import ConvexPolygon, force_polytope_exact, ray_h, velocity_polytope_exact

__all__ = [
    "ActuatorLimits",
    "ConfigError",
    "ConvexPolygon",
    "Design",
    "DesignSpace",
    "EvaluationResult",
    "ParetoArchive",
    "Pose",
    "RobotModel",
    "Scenario",
    "ScenarioConfig",
    "StateTables",
    "TargetSpec",
    "crowding_distance",
    "evaluate",
    "evolve",
    "force_h_all",
    "force_polytope_exact",
    "forward_kinematics",
    "genome_rows_decode",
    "gravity_center",
    "gravity_torque",
    "hypervolume_2d",
    "joint_jacobian",
    "load_config",
    "muscle_jacobian",
    "non_dominated_sort",
    "ray_h",
    "relay_points",
    "state_tables",
    "velocity_h_all",
    "velocity_polytope_exact",
]
