"""Pseudospectral simulator and verification harness for the k-abc family
of nonlinear wave equations (Camassa-Holm, Degasperis-Procesi, Novikov and
FORQ among its reductions)."""

__version__ = "0.1.0"

from .params import (  # noqa: F401
    CoefficientSet,
    Params,
    coefficients,
    h1_conserved,
    periodic_peakon_admissible,
    preset,
)
from .spectral import Field, Grid  # noqa: F401
from .dynamics import SimConfig, Trajectory, simulate  # noqa: F401
