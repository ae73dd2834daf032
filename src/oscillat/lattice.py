"""Lattices, periodicity cells, and dual (frequency) lattices.

All periodic objects in the workbench live on a lattice generated by d
independent basis vectors a_1..a_d.  The cell is the parallelepiped with
fractional coordinates in (-1/2, 1/2); the dual basis b_1..b_d satisfies
<b_j, a_i> = 2*pi*delta_ji, so frequency points k = sum nu_j b_j pair with
fractional coordinates tau through exp(i<k, x>) = exp(2*pi*i nu.tau).
A resolution N keeps the nu_j in [-N/2, N/2), laid out in numpy's FFT order
(fft_indices, fft_frequency_grid), the order of every cell spectrum.
"""

from dataclasses import dataclass
import itertools

import numpy as np

from .errors import DegenerateBasis, OddResolution

@dataclass(frozen=True)
class Lattice:
    """Geometry of a Bravais lattice and its periodicity cell.

    basis rows are the generating vectors a_i; dual_basis rows are the b_j
    with <b_j, a_i> = 2*pi*delta_ji.  r1 is half the cell diameter.
    """

    dim: int
    basis: np.ndarray
    dual_basis: np.ndarray
    cell_volume: float
    r1: float

    @property
    def diagonal(self) -> bool:
        """Whether each basis vector lies along its own coordinate axis."""
        off_diag = self.basis - np.diag(np.diag(self.basis))
        return np.abs(off_diag).max() <= 1e-14 * max(np.abs(self.basis).max(), 1.0)

    def fractional(self, points):
        """Map points in R^d to fractional cell coordinates in [0, 1)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tau = np.linalg.solve(self.basis.T, pts.T).T
        return np.mod(tau, 1.0)


def build_lattice(basis) -> Lattice:
    """Build a Lattice from d generating vectors (rows of `basis`).

    Raises DegenerateBasis when the determinant is below threshold relative
    to the product of the basis-vector norms.
    """
    a = np.asarray(basis, dtype=float)
    if a.size == 1:                 # one number: a 1-D lattice
        a = a.reshape(1, 1)
    d = a.shape[0]
    if a.shape != (d, d):
        raise DegenerateBasis(f"basis must be d vectors in R^d, got shape {a.shape}")
    det = np.linalg.det(a)
    norm_prod = float(np.prod(np.linalg.norm(a, axis=1)))
    if abs(det) <= 1e-12 * norm_prod:
        raise DegenerateBasis(f"|det| = {abs(det):.3e} below threshold")
    # rows b_j of 2*pi*inv(a^T) satisfy <b_j, a_i> = 2*pi*delta_ji
    dual = 2.0 * np.pi * np.linalg.inv(a.T)
    volume = abs(det)

    # cell diameter: max distance between parallelepiped vertices,
    # i.e. max |sum c_i a_i| over c in {-1,0,1}^d
    diam = 0.0
    for c in itertools.product((-1, 0, 1), repeat=d):
        if any(c):
            diam = max(diam, float(np.linalg.norm(np.asarray(c) @ a)))
    r1 = diam / 2.0

    a.setflags(write=False)
    dual.setflags(write=False)
    return Lattice(dim=d, basis=a, dual_basis=dual, cell_volume=volume, r1=r1)


def unit_lattice(d: int) -> Lattice:
    return build_lattice(np.eye(d))


def fft_indices(d: int, N: int) -> list[np.ndarray]:
    """Per-axis integer frequencies in numpy FFT layout (0..N/2-1, -N/2..-1)."""
    if N < 2 or N % 2:
        raise OddResolution(f"resolution must be even and >= 2, got {N}")
    return [np.fft.fftfreq(N, d=1.0 / N).astype(int) for _ in range(d)]


def fft_frequency_grid(lat: Lattice, N: int) -> np.ndarray:
    """Dual-lattice points on the full FFT-ordered grid, shape (N,..,N,d)."""
    axes = fft_indices(lat.dim, N)
    grid = np.meshgrid(*axes, indexing="ij")
    nu = np.stack(grid, axis=-1).astype(float)
    return nu @ lat.dual_basis
