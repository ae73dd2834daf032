"""Numerical homogenization workbench for periodic second-order systems.

The package namespace holds the names the demos use; everything else is
imported from its module (``oscillat.dirichlet``, ``oscillat.study``, ...).
Importing the package loads every library module but the command line.
"""

from .lattice import unit_lattice
from .coefficients import catalog
from .cell import solve_cell, voigt_reuss
from .dirichlet import (
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    build_extension,
    smooth,
    l2_norm,
    h1_norm,
)
from .evolution import (
    spectral_decompose,
    solve_ibvp,
    flux,
    flux_approx,
    leapfrog_oracle,
)
from .study import SweepConfig, convergence_sweep, resolvent_sweep

__all__ = [
    "unit_lattice", "catalog", "solve_cell", "voigt_reuss",
    "mesh_for", "assemble_b_eps", "assemble_b0", "build_extension",
    "smooth", "l2_norm", "h1_norm",
    "spectral_decompose", "solve_ibvp", "flux", "flux_approx",
    "leapfrog_oracle",
    "SweepConfig", "convergence_sweep", "resolvent_sweep",
]
