"""Classical simulation and bound calculators for cluster-state circuits
with cylinder-state inputs."""

from .czdec import LAMBDA, StochasticRep, build_decomposition, symmetric_growth
from .circuits import ClusterCircuit, MeasurementRule
from .geometry import CylinderExtremum, CylinderOperator

__all__ = [
    "LAMBDA",
    "StochasticRep",
    "build_decomposition",
    "symmetric_growth",
    "ClusterCircuit",
    "MeasurementRule",
    "CylinderExtremum",
    "CylinderOperator",
]

__version__ = "0.1.0"
