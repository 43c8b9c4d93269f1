"""Effective Hamiltonians for 1D coercive non-convex Hamilton-Jacobi
equations in periodic and stationary-ergodic media."""

from .env import (EnvironmentSpec, HamiltonianField, make_periodic,
                  make_checkerboard, make_separable, sample)
from .curve import EffectiveCurve

__version__ = "0.1.0"
