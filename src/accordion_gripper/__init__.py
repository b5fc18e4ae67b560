"""Analytical model, grasp planning and calibration for a multi-chamber
accordion soft gripper."""

__version__ = "0.1.0"

from .chamber import (
    ChamberGeometry,
    DeformedState,
    SolverBox,
    hoop_stretch,
    pressure_closed_form,
    pressure_quadrature,
    solve_deformation,
    wall_distance,
)
from .errors import (
    CalibrationError,
    ConfigError,
    ConvergenceError,
    GripperError,
    OutOfWorkspaceError,
)
from .grasp import (
    CapacityCalibration,
    CapacityEntry,
    GraspMode,
    GraspPlan,
    ObjectDescriptor,
    ShapeClass,
    SuctionModel,
    contraction_capacity,
    plan_grasp,
    pressure_schedule,
    select_mode,
    suction_force,
)
from .gripper import (
    GripperAssembly,
    Workspace,
    aperture_radius,
    aperture_vs_pressure,
    inverse_pressure,
    sweep,
    workspace,
)
from .material import HyperelasticMaterial, strain_energy_density, stress_difference

__all__ = [
    "CalibrationError",
    "CapacityCalibration",
    "CapacityEntry",
    "ChamberGeometry",
    "ConfigError",
    "ConvergenceError",
    "DeformedState",
    "GraspMode",
    "GraspPlan",
    "GripperAssembly",
    "GripperError",
    "HyperelasticMaterial",
    "ObjectDescriptor",
    "OutOfWorkspaceError",
    "ShapeClass",
    "SolverBox",
    "SuctionModel",
    "Workspace",
    "aperture_radius",
    "aperture_vs_pressure",
    "contraction_capacity",
    "hoop_stretch",
    "inverse_pressure",
    "plan_grasp",
    "pressure_closed_form",
    "pressure_quadrature",
    "pressure_schedule",
    "select_mode",
    "solve_deformation",
    "strain_energy_density",
    "stress_difference",
    "suction_force",
    "sweep",
    "wall_distance",
    "workspace",
]
