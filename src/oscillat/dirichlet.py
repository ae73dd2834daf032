"""Discrete Dirichlet operators on boxes, extension, smoothing, correctors.

Grid functions live on the interior nodes of a uniform mesh over
O = prod (0, L_k), stored node-major with the n vector components minor.
On a grid a function has the layout (..., M_1, .., M_d, n): every grid
function addresses the d grid axes and the component axis from the right,
so optional leading axes hold a stack of functions (the times of a path,
say) and pass through unchanged.
The oscillating operator is assembled from the quadratic form as blocks on
the 3^d neighbours of each interior node: the principal part uses Q1
elements with the coefficient frozen at each cell midpoint (exact element
integrals, so no spurious kernel modes), lower-order terms are collocated
at nodes with centered differences.  One writer takes the hermitian part on
those blocks and writes the CSR once, so every assembled matrix equals its
conjugate transpose entry for entry.  A corrector
is compiled once per case (SmoothedBD): per grid axis, sparse 1-D factors
from interior to interior nodes of the extension (reflection and cutoff),
the Steklov average, the centered difference and the restriction.  smooth
is the one S_eps: the same factors without the difference.
"""

from dataclasses import dataclass, field
from functools import cached_property
import functools
import itertools
import operator
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ResolutionViolation,
    NotPositiveDefinite,
    LambdaSearchFailed,
    MarginTooSmall,
    NearSpectrumShift,
)
from .lattice import Lattice, unit_lattice
from .coefficients import (
    CoefficientSet,
    Symbol,
    eval_scaled_grid,
    inv_sup_opnorm,
)
from .cell import CellSolution

#: mesh spacing must not exceed eps times this factor
H_OVER_EPS = 1.0 / 16.0

#: the 8-point Gauss-Legendre rule on [-1, 1], (nodes, weights), computed
#: once: the Steklov factors and the Duhamel tables (evolution) share it
GAUSS_8 = np.polynomial.legendre.leggauss(8)


# ---------------------------------------------------------------------------
# meshes and discrete norms


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor mesh on a box with homogeneous Dirichlet boundary."""

    dim: int
    box: tuple
    m_int: tuple
    h: tuple

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.m_int))

    @property
    def sigma(self) -> float:
        """Volume weight of one node (uniform lumped mass)."""
        return float(np.prod(self.h))

    def axes(self) -> list[np.ndarray]:
        """Interior node coordinates per axis."""
        return [self.h[k] * np.arange(1, self.m_int[k] + 1)
                for k in range(self.dim)]

    def midpoint_axes(self) -> list[np.ndarray]:
        """Cell midpoint coordinates per axis (M_k + 1 cells)."""
        return [self.h[k] * (np.arange(self.m_int[k] + 1) + 0.5)
                for k in range(self.dim)]

    def to_grid(self, vec: np.ndarray, n: int) -> np.ndarray:
        """Dof vectors (..., n_nodes * n) as grids (..., M_1, .., M_d, n)."""
        vec = np.asarray(vec)
        return vec.reshape(vec.shape[:-1] + self.m_int + (n,))

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Grids (..., M_1, .., M_d, n) as dof vectors (..., n_nodes * n)."""
        return grid.reshape(grid.shape[:grid.ndim - self.dim - 1] + (-1,))


def make_mesh(box, m_int) -> Mesh:
    box = tuple(float(L) for L in np.atleast_1d(box))
    m_int = tuple(int(M) for M in np.atleast_1d(m_int))
    d = len(box)
    if d not in (1, 2):
        raise ValueError("meshes support d in {1, 2}")
    if any(M < 3 for M in m_int):
        raise ValueError("need at least 3 interior nodes per axis")
    h = tuple(L / (M + 1) for L, M in zip(box, m_int))
    return Mesh(dim=d, box=box, m_int=m_int, h=h)


def mesh_for(box, h_max: float) -> Mesh:
    """Finest-grained mesh with h_k <= h_max on every axis."""
    box = tuple(float(L) for L in np.atleast_1d(box))
    m_int = tuple(max(3, int(np.ceil(L / h_max)) - 1) for L in box)
    return make_mesh(box, m_int)


def _sum_sq(x: np.ndarray):
    """Sum of |x|^2 over the last axis: one einsum, or one per part of a
    complex x, so no |x|^2 temporary is formed."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return _sum_sq(x.real) + _sum_sq(x.imag)
    return np.einsum("...i,...i->...", x, x)


def l2_norm(mesh: Mesh, vec: np.ndarray):
    """Discrete L2 norm: a float for a dof vector, one per row of a stack.

    It keeps numpy's pairwise sum: the sweeps' data and probes are scaled
    by it, and one ulp more there moves the cap-edge sweep's finest H1
    errors by about 1e-11 relative."""
    norm = np.sqrt(mesh.sigma) * np.linalg.norm(vec, axis=-1)
    return float(norm) if np.ndim(norm) == 0 else norm


def grad_sq(mesh: Mesh, vec: np.ndarray, n: int):
    """Discrete |Du|^2 over interior edges, per dof vector as l2_norm.

    Boundary edges are excluded: quantities such as corrector differences
    carry a nonzero trace on the box boundary, and the error estimates
    under study use the Sobolev norm of the open domain, not of the
    zero extension.
    """
    grid = mesh.to_grid(vec, n)
    lead = grid.shape[:grid.ndim - mesh.dim - 1]
    return sum(mesh.sigma / mesh.h[k] ** 2 * _sum_sq(
        np.diff(grid, axis=k - mesh.dim - 1).reshape(lead + (-1,)))
        for k in range(mesh.dim))


def h1_norm(mesh: Mesh, vec: np.ndarray, n: int):
    """Discrete H1 norm: a float for a dof vector, one per row of a stack."""
    norm = np.sqrt(mesh.sigma * _sum_sq(vec) + grad_sq(mesh, vec, n))
    return float(norm) if np.ndim(norm) == 0 else norm


# ---------------------------------------------------------------------------
# discrete operators


def tag_text(eps_tag) -> str:
    """An operator's name in messages: eps=<value>, or the tag itself."""
    return eps_tag if isinstance(eps_tag, str) else f"eps={eps_tag:g}"


class DiscreteDirichletOperator:
    """Sparse hermitian operator on interior nodes, its probe and shift."""

    def __init__(self, matrix, mesh: Mesh, eps_tag, smallest_eig: float,
                 lam: float = 0.0):
        self.matrix = matrix.tocsr()
        self.mesh = mesh
        self.eps_tag = eps_tag
        self.smallest_eig = smallest_eig
        self.lam = lam
        self._factors = {}
        self._norms = {}

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def shifted(self, lam: float) -> "DiscreteDirichletOperator":
        """A + lam I, probed as smallest_eig + lam, with lam added to the
        diagonal band: no matrix is read again (self when lam is 0)."""
        probe = self.smallest_eig + lam
        if probe <= 0.0:
            raise NotPositiveDefinite(f"{tag_text(self.eps_tag)}: smallest-"
                                      f"eigenvalue probe {probe:.3e} <= 0")
        if lam == 0:
            return self
        eye = sp.identity(self.size, format="csr")
        out = DiscreteDirichletOperator(self.matrix + lam * eye, self.mesh,
                                        self.eps_tag, probe, self.lam + lam)
        out.bands = self.bands and ((self.bands[0][0] + lam, self.bands[0][1]),
                                    *self.bands[1:])
        out.off_diagonal_sums = self.off_diagonal_sums
        return out

    @cached_property
    def bands(self):
        """read_bands of the matrix on the mesh's interior grid, read once;
        assembly sets them from its neighbour blocks."""
        return read_bands(self.matrix, self.mesh.m_int)

    @cached_property
    def off_diagonal_sums(self):
        """Column sums of |A| off the diagonal, which no shift moves: the
        part of |A - zeta I|_1 that norm1 reads for every zeta, read once."""
        cols = np.asarray(abs(self.matrix).sum(axis=0)).ravel()
        return cols - np.abs(self.matrix.diagonal())

    @cached_property
    def spectrum(self):
        """Closed-form eigenvalues on the interior grid (dst_spectrum), or
        None when the orthonormal DST-I does not diagonalize the matrix."""
        return dst_spectrum(self.bands, self.mesh.m_int)

    def factor(self, zeta=0.0):
        """Solver of (A - zeta I) and whether it keeps real data real.

        An operator with a closed-form spectrum is never factored: it
        divides by lambda - zeta in its SineBasis, which is not cached, as
        the basis refers back to the operator.  Every other operator gets a
        sparse LU, cached per zeta.
        """
        key = complex(zeta)
        shift = key.real if key.imag == 0.0 else key    # real data stays real
        if self.spectrum is not None:
            eb = SineBasis(self.spectrum.ravel(), self)
            gaps = eb.eigenvalues - shift
            if (gaps == 0.0).any():
                raise NearSpectrumShift(f"{tag_text(self.eps_tag)}: zeta={zeta}"
                                        f" is an eigenvalue")
            return SimpleNamespace(solve=lambda cols: eb.synthesize(
                eb.project(cols.T) / gaps).T), key.imag == 0.0
        if key not in self._factors:
            # A is hermitian, so the CSC arrays of A - zeta I are the CSR
            # arrays of its transpose conj(A - conj(zeta) I): SuperLU reads
            # the shifted CSR as they are, conjugated when complex
            mat = self.matrix
            if key != 0:
                mat = mat - shift.conjugate() * sp.identity(self.size,
                                                            format="csr")
            data = mat.data
            real_ok = data.dtype.kind != "c" or not data.imag.any()
            data = np.ascontiguousarray(data.real) if real_ok else data.conj()
            # 2-D: symmetric mode on the fill-reducing A + A^T ordering, with
            # the default pivot threshold, so complex and indefinite shifts
            # stay stable.  A 1-D operator is banded in node order and the
            # default ordering already factors it without fill.
            order = {} if self.mesh.dim == 1 else dict(
                permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
            self._factors[key] = (spla.splu(sp.csc_matrix(
                (data, mat.indices, mat.indptr), shape=mat.shape), **order),
                real_ok)
        return self._factors[key]

    def norm1(self, zeta=0.0) -> float:
        """|A - zeta I|_1, cached per zeta: the scale of the backward errors
        that resolvent and spectral_decompose bound, the off-diagonal column
        sums plus the shifted diagonal, with no copy of A."""
        key = complex(zeta)
        if key not in self._norms:
            self._norms[key] = float((self.off_diagonal_sums + np.abs(
                self.matrix.diagonal() - key)).max())
        return self._norms[key]

    def solve_shifted(self, zeta, rhs):
        """Solve (A - zeta I) u = rhs for a dof vector or rows (k, ndof)."""
        lu, real_ok = self.factor(zeta)
        cols = np.asarray(rhs).T
        if real_ok and np.isrealobj(cols):
            return lu.solve(cols.astype(float)).T
        if real_ok:
            return (lu.solve(cols.real) + 1j * lu.solve(cols.imag)).T
        return lu.solve(cols.astype(complex)).T


def read_bands(matrix, m_int):
    """The bands (_grid_bands) of a hermitian matrix on interior nodes m_int,
    or None, read off its CSR arrays: each entry's column offset names its
    neighbour (s, a), the node (i1 + s, i2 + a), |s|, |a| <= 1, with a = 0
    in d = 1, and goes to the neighbour grid [s, a, i1, i2].  A nonzero
    entry at any other offset refuses the split.  Assembly hands its grid
    to _grid_bands directly; this reads a matrix that has none."""
    size = matrix.shape[0]
    if size != np.prod(m_int):
        return None
    m2 = m_int[1] if len(m_int) == 2 else 1
    a_all = (-1, 0, 1) if len(m_int) == 2 else (0,)
    reach = m2 + a_all[-1]
    csr = matrix.tocsr()
    if not csr.has_canonical_format:        # one entry per position
        csr = csr.copy()
        csr.sum_duplicates()
    rows = np.repeat(np.arange(size, dtype=csr.indices.dtype),
                     np.diff(csr.indptr))
    offset, vals = csr.indices - rows, csr.data
    if not vals.all():                      # explicit zeros are no coupling
        keep = vals != 0
        rows, offset, vals = rows[keep], offset[keep], vals[keep]
    if np.abs(offset).max(initial=0) > reach:
        return None
    slot = np.full(2 * reach + 1, -1)       # neighbour number of an offset
    for k, (s, a) in enumerate(itertools.product((-1, 0, 1), a_all)):
        slot[reach + s * m2 + a] = k
    k = slot[offset + reach]
    if (k < 0).any():
        return None
    grid = np.zeros(3 * len(a_all) * size, dtype=vals.dtype)
    grid[k * size + rows] = vals
    return _grid_bands(grid.reshape(3, len(a_all), size // m2, m2), m_int)


def _grid_bands(grid, m_int):
    """The bands of a hermitian operator on interior nodes m_int, given as
    its neighbour grid [s, a, i1, i2], or None.  Every check is exact.

    grid[s, a, i1, i2] couples node (i1, i2) to (i1 + s, i2 + a), zero
    where that node is off the grid; a = 0 only in d = 1 (i2 = 0).  d = 1:
    ((diag, sub),) of a tridiagonal matrix.  d = 2: the x1 bands
    ((diag_a, sub_a), (diag_o, sub_o)) of Ta, the entries on one x2 line,
    and To, those between x2 neighbours, when the matrix equals
    kron(Ta, I) + kron(To, S2), S2 the x2 shift (ones on the first
    off-diagonals), as a laminate's does: the grid must hold Ta[i1, i1 + s]
    at every a = 0 position, To[i1, i1 + s] at every a = +-1 position whose
    neighbour is on the line, and zero where it is off the line.  Each pair
    has a real diagonal and the superdiagonal conj(sub).
    """
    along = grid[:, grid.shape[1] // 2]                 # a = 0
    pairs = [along[..., 0].copy()]                      # Ta: (s, i1)
    if len(m_int) == 2:
        pairs.append(grid[:, 2, :, 0].copy())           # To: (s, i1)
        lo, hi = grid[:, 0], grid[:, 2]                 # a = -1, a = +1
        if ((hi[..., :-1] != pairs[1][..., None]).any()
                or (lo[..., 1:] != pairs[1][..., None]).any()
                or hi[..., -1].any() or lo[..., 0].any()):
            return None
    if (along != pairs[0][..., None]).any():
        return None
    bands = []
    for lower, diag, upper in pairs:
        sub = lower[1:]
        if (diag.imag != 0.0).any() or (upper[:-1] != sub.conj()).any():
            return None
        bands.append((diag.real, sub))
    return tuple(bands)


def dst_spectrum(bands, m_int):
    """Eigenvalues on the interior grid m_int when the orthonormal DST-I
    diagonalizes an operator with these read_bands, else None.

    The bands must be real and constant, exactly: (a, s) in d = 1, (da, sa)
    in Ta and (do, so) in To in d = 2, as for a scalar real operator with
    constant coefficients and a diagonal principal coefficient.  The entry
    [j-1] or [j1-1, j2-1] belongs to the sine mode of numbers j = 1 .. M_k
    per axis, with c_j = 2 cos(j pi / (M + 1)) = 2 - p_j and
    p_j = 4 sin^2(j pi / (2M + 2)): a + s c_j in d = 1,
    (da + sa c_j1) + c_j2 (do + so c_j1) in d = 2.  Both are evaluated
    through p_j, which keeps the lowest eigenvalues of a Laplacian-like
    matrix accurate to a few ulp relative.
    """
    if bands is None or any(np.iscomplexobj(sub) or (diag != diag[0]).any()
                            or (sub != sub[0]).any() for diag, sub in bands):
        return None
    p = [4.0 * np.sin(np.arange(1, M + 1) * np.pi / (2 * M + 2)) ** 2
         for M in m_int]
    consts = [(float(diag[0]), float(sub[0])) for diag, sub in bands]
    if len(m_int) == 1:
        (a, s), = consts
        return (a + 2.0 * s) - s * p[0]
    (da, sa), (do, so) = consts
    across = (do + 2.0 * so) - so * p[0]      # To on the x1 sine modes
    along = (da + 2.0 * sa) - sa * p[0]       # Ta on the x1 sine modes
    return (along + 2.0 * across)[:, None] - np.multiply.outer(across, p[1])


def sine_transform(rows: np.ndarray, shape) -> np.ndarray:
    """The orthonormal DST-I of dof rows (..., ndof) over the grid axes of
    shape, as rows: the eigenbasis of every operator with a closed-form
    spectrum.  It is its own inverse.

    An axis of length m takes one numpy rfft of the odd extension
    (0, x, 0, -reversed x), whose entries 1..m have imaginary part
    -sqrt(2(m + 1)) times the DST-I of x.  A complex input is transformed as
    its real and imaginary parts.
    """
    rows = np.asarray(rows)
    if np.iscomplexobj(rows):
        return (sine_transform(rows.real, shape)
                + 1j * sine_transform(rows.imag, shape))
    grid = rows.reshape(rows.shape[:-1] + tuple(shape))
    for axis in range(-len(shape), 0):
        x = np.moveaxis(grid, axis, -1)
        m = x.shape[-1]
        odd = np.zeros(x.shape[:-1] + (2 * m + 2,))
        odd[..., 1:m + 1] = x
        np.negative(x[..., ::-1], out=odd[..., m + 2:])
        y = np.fft.rfft(odd).imag[..., 1:m + 1] * (-1.0 / np.sqrt(2.0 * m + 2.0))
        grid = np.moveaxis(y, -1, axis)
    return grid.reshape(rows.shape)


@dataclass(frozen=True)
class _Basis:
    """What every eigenbasis shares: factors broadcast against eigenvalues,
    and a memo of the last time table built (evolution._time_factors)."""

    _last_table: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def map_spectrum(self, factors: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.synthesize(factors * self.project(v))


@dataclass(frozen=True)
class SineBasis(_Basis):
    """The orthonormal DST-I eigenbasis of an operator with a closed-form
    spectrum: eigenvalues holds source.spectrum in grid order, so project
    and synthesize are both sine_transform, which is its own inverse."""

    eigenvalues: np.ndarray
    source: DiscreteDirichletOperator = field(repr=False)

    def project(self, v: np.ndarray) -> np.ndarray:
        return sine_transform(v, self.source.mesh.m_int)

    synthesize = project

    def checked_rows(self):
        """The lowest and highest unit modes and four seeded random rows c,
        synthesized with and without mu, as evolution.certify reads them."""
        c = np.random.default_rng(0).standard_normal((6, self.size))
        c[:2] = 0.0
        c[0, self.eigenvalues.argmin()] = c[1, self.eigenvalues.argmax()] = 1.0
        yield (self.synthesize(c), self.synthesize(self.eigenvalues * c),
               np.linalg.norm(c, axis=-1))


def _lowest_tridiagonal(diag, sub) -> float:
    """Lowest eigenvalue of a hermitian tridiagonal matrix by Sturm counts."""
    return float(scipy.linalg.eigvalsh_tridiagonal(
        diag, np.abs(sub), select="i", select_range=(0, 0))[0])


def _gershgorin_lower(matrix) -> float:
    """Gershgorin lower bound: never above the smallest eigenvalue."""
    diag = matrix.diagonal().real
    radius = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(diag)
    return float((diag - radius).min())


def smallest_eigenvalue(matrix, bands=None, iters: int = 200,
                        tol: float = 1e-8) -> float:
    """Probe for the smallest eigenvalue of a sparse hermitian matrix.

    bands is the matrix's read_bands.  One tridiagonal band pair gets a
    Sturm-count bisection for the lowest eigenvalue.  Two, a d = 2 matrix
    kron(Ta, I) + kron(To, S2) on M_1 x M_2 nodes, are exact too: the DST-I
    along x2 turns it into the blocks Ta + c_j To with
    c_j = 2 cos(j pi / (M_2 + 1)), j = 1 .. M_2.  The lowest eigenvalue of
    Ta + c To is concave in c, so its minimum over the blocks lies at
    c_1 or c_M2, and two Sturm counts give the exact probe.  A matrix
    without bands gets a symmetric-mode sparse LU
    P A P^T = L D L^H, which gives the inertia of A by Sylvester's law:
    when every pivot is positive, A is positive definite and inverse power
    iteration at shift zero finds its smallest eigenvalue.  Otherwise (a
    pivot <= 0, pivoting that was not symmetric, or a singular
    factorization) the Gershgorin lower bound is returned, which is <= 0
    for every matrix that is not positive definite.
    """
    if bands is not None and len(bands) == 1:
        return _lowest_tridiagonal(*bands[0])
    if bands is not None:
        (d_along, s_along), (d_across, s_across) = bands
        m2 = matrix.shape[0] // d_along.size
        c = 2.0 * np.cos(np.pi / (m2 + 1))
        return min(_lowest_tridiagonal(d_along + cj * d_across,
                                       s_along + cj * s_across)
                   for cj in (c, -c))
    size = matrix.shape[0]
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError:
        return _gershgorin_lower(matrix)
    if (lu.perm_r != lu.perm_c).any() or (lu.U.diagonal().real <= 0.0).any():
        return _gershgorin_lower(matrix)
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(size)
    if matrix.dtype.kind == "c":
        x = x.astype(complex)
    x /= np.linalg.norm(x)
    rho_old = np.inf
    for _ in range(iters):
        y = lu.solve(x)
        ny = np.linalg.norm(y)
        if not np.isfinite(ny) or ny == 0.0:
            return 0.0
        rho = float((np.vdot(y, x) / np.vdot(y, y)).real)
        x = y / ny
        if abs(rho - rho_old) <= tol * max(abs(rho), 1e-300):
            return rho
        rho_old = rho
    return rho_old


# element integrals for Q1 bases on one cell of size h
def _elem_1d(h):
    K = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    M = h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    C = np.array([[-0.5, -0.5], [0.5, 0.5]])  # C[a, b] = int N_a' N_b
    return K, M, C


def _grad_tensors(mesh: Mesh):
    """S[l', l, q, p] = int over one cell of d_{l'} phi_q d_l phi_p."""
    if mesh.dim == 1:
        return _elem_1d(mesh.h[0])[0].reshape(1, 1, 2, 2)
    # corner q = (a, b) is number 2 a + b: kron's order
    (K1, M1, C1), (K2, M2, C2) = map(_elem_1d, mesh.h)
    return np.stack([np.kron(K1, M2), np.kron(C1, C2.T),
                     np.kron(C1.T, C2), np.kron(M1, K2)]).reshape(2, 2, 4, 4)


def _offsets(d: int) -> np.ndarray:
    """The 3^d neighbour offsets o_k, k in C order, so o_(K-1-k) = -o_k."""
    return np.array(list(np.ndindex(*(3,) * d))) - 1


def _inside(m_int) -> np.ndarray:
    """inside[k, i]: whether node i + o_k (_offsets) is an interior node."""
    d = len(m_int)
    offsets = _offsets(d).T.reshape((d, -1) + (1,) * d)
    nbs = [ik + ok for ik, ok in zip(np.indices(m_int, sparse=True), offsets)]
    return functools.reduce(
        operator.and_, [(nb >= 0) & (nb < Mk) for nb, Mk in zip(nbs, m_int)])


def _stencil_form(mesh: Mesh, sym: Symbol, g_cells: np.ndarray):
    """The principal form as neighbour blocks: blocks[k, r, s, i] couples
    component r of interior node i to component s of node i + o_k
    (_offsets), and is not read where that node is off the grid.

    g_cells holds the (m x m) coefficient at every cell midpoint, shape
    (M_1+1, .., M_d+1, m, m), or is one (m x m) matrix that every cell
    shares.  The element of a cell couples its corners q and p by the
    (n x n) block sum over l', l of S[l', l, q, p] b_{l'}^H g b_l: one
    matmul of the cells' g with a fixed tensor, in real arithmetic when the
    symbol is real and the imaginary part of g symmetric, as the hermitian
    part the operator keeps is then real.  Each interior node sums the
    elements of its 2^d cells into its 3^d neighbour blocks by shifted
    slices.
    """
    d, n, m, M = mesh.dim, sym.n, sym.m, mesh.m_int
    b = np.stack(sym.b_mats)                                    # (d, m, n)
    T = np.einsum("abqp,air,bjs->qprsij", _grad_tensors(mesh), b.conj(), b)
    g_imag = g_cells.imag
    if not b.imag.any() and all((g_imag[..., i, j] == g_imag[..., j, i]).all()
                                for i in range(m) for j in range(i)):
        g_cells, T = g_cells.real, T.real
    n_corner = T.shape[0]
    elem = T.reshape(-1, m * m) @ g_cells.reshape(-1, m * m).T
    elem = np.broadcast_to(
        elem.reshape((n_corner, n_corner, n, n)
                     + (g_cells.shape[:-2] or (1,) * d)),
        (n_corner, n_corner, n, n) + tuple(Mk + 1 for Mk in M))
    blocks = np.zeros((3 ** d, n, n) + M, dtype=elem.dtype)
    corners = list(np.ndindex(*(2,) * d))
    for (iq, q), (ip, p) in itertools.product(enumerate(corners), repeat=2):
        k = np.ravel_multi_index(np.subtract(p, q) + 1, (3,) * d)
        blocks[k] += elem[(iq, ip, Ellipsis) + tuple(
            slice(1 - a, 1 - a + Mk) for a, Mk in zip(q, M))]
    return blocks


def _adjoint(blocks):
    """The neighbour blocks of the adjoint form: block k of node i is the
    conjugate transpose of block K-1-k of node i + o_k, zero where that
    node is off the grid.  It reads no block whose neighbour is off it."""
    M = blocks.shape[3:]
    out = np.zeros_like(blocks)
    flipped = np.swapaxes(blocks[::-1], 1, 2)
    for k, o in enumerate(_offsets(len(M))):
        out[(k, Ellipsis) + tuple(slice(max(0, -a), Mk - max(0, a))
                                  for a, Mk in zip(o, M))] = flipped[
            (k, Ellipsis) + tuple(slice(max(0, a), Mk - max(0, -a))
                                  for a, Mk in zip(o, M))]
    return out.conj() if np.iscomplexobj(out) else out


def _centered_weights(h: float) -> np.ndarray:
    """The weights of u(x + h), u(x - h) in D = -i times the centered
    difference: the one b(D) stencil, of assembly and fluxes."""
    return np.array([1.0, -1.0]) * (-1j / (2.0 * h))


def _centered_diff(mesh: Mesh, axis: int):
    """Sparse D_axis = -i * centered difference on interior nodes."""
    return functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), [
        sp.diags([np.full(M - 1, w) for w in _centered_weights(mesh.h[k])],
                 [1, -1], format="csr")
        if k == axis else sp.identity(M, format="csr")
        for k, M in enumerate(mesh.m_int)])


def bD_matrix(mesh: Mesh, sym: Symbol):
    """Sparse b(D) = sum_l D_l b_l on interior dof vectors, zero outside the
    grid, as fluxes read it."""
    return sum(sp.kron(_centered_diff(mesh, l), b, format="csr")
               for l, b in enumerate(sym.b_mats))


def _write_operator(blocks, mesh: Mesh, eps_tag) -> DiscreteDirichletOperator:
    """The operator of a form given as neighbour blocks (which it takes
    over), each entry written once: the form over the node volume sigma,
    its hermitian part (B + B^H) / 2 taken on the blocks, real when no
    imaginary part is left, as CSR in node-major order with sorted columns,
    an entry stored where it is nonzero.  The same blocks give the bands
    (n = 1) and, with those bands, the probe."""
    d, M, n = mesh.dim, mesh.m_int, blocks.shape[1]
    size = mesh.n_nodes * n
    form = np.multiply(blocks, 1.0 / mesh.sigma, out=blocks)
    np.copyto(form, 0.0, where=~_inside(M)[:, None, None])
    herm = _adjoint(form)
    herm += form
    herm *= 0.5
    if np.iscomplexobj(herm) and not herm.imag.any():
        herm = np.ascontiguousarray(herm.real)

    # the entries in CSR order (node, row component, offset, column
    # component), written over the form, which is read no more
    entries = form.reshape(-1).view(herm.dtype)[:herm.size].reshape(
        M + (n, 3 ** d, n))
    np.copyto(entries, herm.transpose(tuple(range(3, 3 + d)) + (1, 0, 2)))
    entries = entries.reshape(size, -1)
    stored = entries != 0
    strides = [int(np.prod(M[k + 1:])) for k in range(d)]
    cols = np.add.outer(np.arange(size, dtype=np.int32) // n * n, np.add.outer(
        (_offsets(d) @ strides).astype(np.int32) * n,
        np.arange(n, dtype=np.int32)).ravel())
    counts = np.moveaxis(np.count_nonzero(herm, axis=(0, 2)), 0, -1).ravel()
    matrix = sp.csr_matrix((entries[stored], cols[stored], np.concatenate(
        ([0], np.cumsum(counts))).astype(np.int32)), shape=(size, size))

    bands = None if n > 1 else _grid_bands(
        herm.reshape(3, 3 ** (d - 1), M[0], -1), M)
    op = DiscreteDirichletOperator(matrix, mesh, eps_tag,
                                   smallest_eigenvalue(matrix, bands))
    op.bands = bands
    return op


def _first_order(blocks, mesh: Mesh, axis: int, c):
    """blocks plus sigma (X + X^H), X = diag(c) D_axis with the (n x n)
    fields c[r, s, i] (or one block broadcast over the grid): the form
    (c u, D_axis u) + (D_axis u, c u)."""
    first = np.zeros(blocks.shape, dtype=complex)
    center, step = 3 ** mesh.dim // 2, 3 ** (mesh.dim - 1 - axis)
    for k, w in zip((center + step, center - step),      # o = +-e_axis
                    _centered_weights(mesh.h[axis])):
        first[k] = c * w
    return blocks + mesh.sigma * (first + _adjoint(first))


def _zero_order(blocks, mesh: Mesh, c):
    """blocks plus sigma diag(c): the form (c u, u)."""
    blocks = blocks.astype(np.result_type(blocks, c), copy=False)
    blocks[3 ** mesh.dim // 2] += mesh.sigma * c
    return blocks


def assemble_b_eps(mesh: Mesh, coeffs: CoefficientSet, eps: float,
                   lat: Lattice | None = None) -> DiscreteDirichletOperator:
    """Assemble the unshifted oscillating operator at scale eps on the mesh:
    the principal blocks, then per axis the first-order term of
    a_j(x / eps), then Q(x / eps)."""
    if eps <= 0 or eps > 1:
        raise ValueError("eps must lie in (0, 1]")
    if max(mesh.h) > eps * H_OVER_EPS * (1 + 1e-12):
        raise ResolutionViolation(
            f"h={max(mesh.h):.3e} exceeds eps/16={eps * H_OVER_EPS:.3e}")
    lat = lat or unit_lattice(mesh.dim)

    def at_nodes(f):        # (n, n, M_1, .., M_d)
        return np.moveaxis(eval_scaled_grid(f, lat, eps, mesh.axes()),
                           (-2, -1), (0, 1))

    blocks = _stencil_form(mesh, coeffs.symbol, eval_scaled_grid(
        coeffs.g, lat, eps, mesh.midpoint_axes()))
    for j, aj in enumerate(coeffs.a):
        blocks = _first_order(blocks, mesh, j, at_nodes(aj))
    if coeffs.Q is not None:
        blocks = _zero_order(blocks, mesh, at_nodes(coeffs.Q))
    return _write_operator(blocks, mesh, float(eps))


def assemble_b0(mesh: Mesh, cell: CellSolution,
                coeffs: CoefficientSet) -> DiscreteDirichletOperator:
    """Assemble the unshifted constant-coefficient effective operator: the
    principal blocks, then -b(D)* V - V* b(D) (the form -2 Re (V u,
    b(D) u)) as the first-order terms of -V* b_l, then those of
    (mean a_j + its adjoint) / 2, then -W + mean Q."""
    sym, d, V = coeffs.symbol, mesh.dim, cell.V
    blocks = _stencil_form(mesh, sym, cell.g0)
    grid = (Ellipsis,) + (None,) * d
    if np.abs(V).max() > 0:     # V* b(D) = sum_l diag(V* b_l) D_l
        for l, b in enumerate(sym.b_mats):
            blocks = _first_order(blocks, mesh, l, -(V.conj().T @ b)[grid])
    for j, aj in enumerate(coeffs.a):
        cj = aj.mean()
        cj = cj + cj.conj().T
        if np.abs(cj).max() > 0:
            blocks = _first_order(blocks, mesh, j, (0.5 * cj)[grid])
    zero_order = -np.asarray(cell.W, dtype=complex)
    if coeffs.Q is not None:
        zero_order = zero_order + coeffs.Q.mean()
    if np.abs(zero_order).max() > 0:
        blocks = _zero_order(blocks, mesh, zero_order[grid])
    return _write_operator(blocks, mesh, "effective")


def choose_lambda(ops: list, coeffs: CoefficientSet) -> float:
    """Smallest shift from {0, 1, 2, 4, ...} making every operator coercive.

    Adding lam I moves every eigenvalue by lam, so the probes the operators
    were assembled with decide the shift: it must lift the smallest probe
    to the margin 0.25 * c_* * pi^2 / (max L_k)^2 with
    c_* = alpha0 / (4 |g^-1|_inf), a discrete stand-in for the coercivity
    constant of the principal part.  Apply it with ``op.shifted(lam)``.
    """
    c_star = coeffs.symbol.alpha0 / (4.0 * inv_sup_opnorm(coeffs.g))
    box_max = max(max(op.mesh.box) for op in ops)
    margin = 0.25 * c_star * np.pi ** 2 / box_max ** 2
    worst = min(ops, key=lambda op: op.smallest_eig)

    for lam in [0.0] + [float(2 ** k) for k in range(17)]:
        if worst.smallest_eig + lam >= margin:
            return lam
    raise LambdaSearchFailed(
        f"{tag_text(worst.eps_tag)}: no shift up to 2^16 reaches margin "
        f"{margin:.3e} from probe {worst.smallest_eig:.3e}")


# ---------------------------------------------------------------------------
# extension, smoothing, correctors


@dataclass(frozen=True)
class ExtensionOperator:
    """Hestenes reflection (order 3: it matches value and two derivatives of
    smooth data) plus smooth cutoff around the box: kron_k E_k of factors."""

    mesh: Mesh
    margin: float
    pad: tuple
    shape_ext: tuple

    @cached_property
    def factors(self) -> list:
        """Per grid axis k, the CSR E_k (shape_ext[k] x M_k): the identity on
        interior nodes, zero on the boundary nodes, the order-3 reflection
        rows (6, -8, 3) across both faces, sourced from face -+ j, 2j, 3j
        in the box (build_extension), all times the axis's cutoff."""
        out = []
        for x, L, p, M in zip(self.axes_ext(), self.mesh.box, self.pad,
                              self.mesh.m_int):
            j = np.repeat(np.arange(1, p + 1), 3)
            src = j * np.tile([1, 2, 3], p)     # box nodes 0 .. M + 1
            rows = np.r_[p + 1:p + M + 1, p - j, p + M + 1 + j]
            cols = np.r_[1:M + 1, src, M + 1 - src]
            vals = np.r_[np.ones(M), np.tile([6.0, -8.0, 3.0], 2 * p)]
            vals *= _smoothstep(np.maximum(-x, x - L) / self.margin)[rows]
            box = sp.csr_matrix((vals, (rows, cols)), shape=(x.size, M + 2))
            out.append(box[:, 1:-1])        # the boundary nodes hold zero
        return out

    def axes_ext(self) -> list[np.ndarray]:
        return [self.mesh.h[k] * np.arange(-self.pad[k],
                                           self.mesh.m_int[k] + 2 + self.pad[k])
                for k in range(self.mesh.dim)]

    def interior_slices(self) -> tuple:
        return tuple(slice(p + 1, p + 1 + M)
                     for p, M in zip(self.pad, self.mesh.m_int))

    def restrict(self, ext_values: np.ndarray) -> np.ndarray:
        return self.mesh.from_grid(ext_values[(..., *self.interior_slices(),
                                               slice(None))])


def _smoothstep(t):
    """Quintic step: 1 at t=0, 0 at t=1, two vanishing derivatives at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)


def build_extension(mesh: Mesh, margin: float) -> ExtensionOperator:
    if margin <= 0:
        raise ValueError("margin must be positive")
    pad = tuple(int(np.ceil(margin / h)) for h in mesh.h)
    for p, M in zip(pad, mesh.m_int):
        if 3 * p > M + 1:
            raise MarginTooSmall(
                f"reflection stencil needs 3*pad={3 * p} <= M+1={M + 1}")
    shape_ext = tuple(M + 2 + 2 * p for p, M in zip(pad, mesh.m_int))
    return ExtensionOperator(mesh=mesh, margin=float(margin), pad=pad,
                             shape_ext=shape_ext)


def _axis_products(mats, grid: np.ndarray) -> np.ndarray:
    """mats[k] applied along grid axis k of grids (..., N_1, .., N_d, n), the
    last axis first: one CSR @ columns product per axis, whose columns are
    the other axes, stack axes too, complex ones split in two, so a stack
    maps as its rows do."""
    y = np.asarray(grid)
    for k in reversed(range(len(mats))):
        ax = k - len(mats) - 1
        cols = np.moveaxis(y, ax, 0)
        flat = np.ascontiguousarray(cols.reshape(cols.shape[0], -1),
                                    dtype=np.result_type(y, float))
        out = (mats[k] @ flat.view(float)).view(flat.dtype)
        y = np.moveaxis(out.reshape((-1,) + cols.shape[1:]), 0, ax)
    return y


def extend(u: np.ndarray, op: ExtensionOperator, n: int = 1) -> np.ndarray:
    """Interior dof vectors (..., n_nodes * n) as grids (..., *shape_ext, n)
    on the enlarged box: the per-axis products of op.factors.  Restriction
    back to interior nodes reproduces u exactly."""
    return _axis_products(op.factors, op.mesh.to_grid(u, n))


def _steklov_terms(lat: Lattice, eps: float, spacing, axes) -> list:
    """(cw, off) with (S_eps u)[i] = sum of cw * u[i + off] over the cell
    coordinates of these lattice axes: 8 Gauss-Legendre points per axis,
    multilinear interpolation at each shifted point (off in grid units)."""
    xi, w = GAUSS_8[0] / 2.0, GAUSS_8[1] / 2.0
    idx = np.array(list(np.ndindex(*(xi.size,) * len(axes))))
    tau = xi[idx] @ np.eye(lat.dim)[axes]         # one row per Gauss point
    shift = -eps * (tau @ lat.basis) / spacing  # grid units, per axis
    base = np.floor(shift).astype(int)
    frac = (shift - base)[:, None]
    corner = np.array(list(np.ndindex(*(2,) * lat.dim)))
    # an axis with frac 0 has one corner: the other's weight is 0
    keep = ~((frac == 0.0) & (corner == 1)).any(axis=-1)
    cw = np.prod(w[idx], axis=1)[:, None] * np.prod(
        np.where(corner == 1, frac, 1.0 - frac), axis=-1)
    return list(zip(cw[keep], (base[:, None] + corner)[keep]))


def _stencil_rows(size: int, rows: np.ndarray, terms, diff: bool):
    """CSR (len(rows) x size) of out[j] = sum of cw * u[rows[j] + off], or of
    out[j + 1] - out[j - 1] if diff, over 1-D (cw, off) terms; 0 off grid."""
    cw, off = (np.array(x) for x in zip(*terms))
    if diff:
        cw, off = np.r_[cw, -cw], np.r_[off + 1, off - 1]
    off, at = np.unique(off, return_inverse=True)   # one weight per offset
    cols = rows[:, None] + off
    keep = (cols >= 0) & (cols < size)
    return sp.csr_matrix((np.broadcast_to(np.bincount(at, cw), cols.shape)[keep],
                          cols[keep], np.r_[0, np.cumsum(keep.sum(axis=1))]),
                         shape=(rows.size, size))


def _smoothing_factors(ext_op: ExtensionOperator, lat: Lattice, eps: float,
                       smoothed: bool) -> list:
    """Per Kronecker term of S_eps (or I) and grid axis k, the CSR pair
    R_k S_k E_k, R_k D_k S_k E_k of SmoothedBD and smooth."""
    if eps * lat.r1 > ext_op.margin + 1e-12:
        raise MarginTooSmall(f"eps*r1={eps * lat.r1:.3e} exceeds extension"
                             f" margin {ext_op.margin:.3e}")
    d, h = lat.dim, ext_op.mesh.h
    if smoothed and not lat.diagonal:   # the tensor rule by x2 offsets
        groups = {}
        for cw, off in _steklov_terms(lat, eps, h, list(range(d))):
            groups.setdefault(tuple(off[1:]), []).append((cw, off[0]))
        kron = [[g] + [[(1.0, o)] for o in key] for key, g in groups.items()]
    else:           # one term: per axis, its 1-D (cw, off) terms
        kron = [[[(cw, off[k]) for cw, off in _steklov_terms(lat, eps, h, [k])]
                 if smoothed else [(1.0, 0)] for k in range(d)]]
    return [[[_stencil_rows(E.shape[0], np.arange(E.shape[0])[sl], terms,
                            diff) @ E
              for diff in (False, True)] for terms, E, sl
             in zip(term, ext_op.factors, ext_op.interior_slices())]
            for term in kron]


def smooth(u: np.ndarray, ext_op: ExtensionOperator, lat: Lattice, eps: float,
           n: int = 1) -> np.ndarray:
    """R S_eps E u, the cell average |cell|^-1 int v(x - eps z) dz of the
    extension v = E u, of interior dof vectors (..., n_nodes * n) as grids
    (..., M_1, .., M_d, n).  Farther than eps r1 + h from the boundary it
    reads interior nodes only: there it averages u itself."""
    grid = ext_op.mesh.to_grid(u, n)
    return sum(_axis_products([pair[0] for pair in term], grid)
               for term in _smoothing_factors(ext_op, lat, eps, True))


class SmoothedBD:
    """u -> a^eps b(D) s + c^eps s on interior nodes, s = S_eps E u (E the
    extension, u unsmoothed), compiled per case from the fields a, c there.

    S_eps is a sum of Kronecker products: one term for a box cell (its 1-D
    averages), one per x2 offset of the tensor rule for a skew cell.  Per
    term and grid axis k, factors holds the real CSR pair R_k S_k E_k and
    R_k D_k S_k E_k (M_k x M_k, interior to interior), E_k the extension's
    factor, R_k the restriction to interior nodes,
    D_k u = u(x + h e_k) - u(x - h e_k); weights holds a b_k (-i / 2 h_k),
    then c (None when zero).  No d-dimensional matrix is formed.  factors,
    when given, are those of another SmoothedBD of the same ext_op, lat, eps
    and smoothed, shared rather than built again."""

    def __init__(self, ext_op: ExtensionOperator, lat: Lattice, eps: float,
                 smoothed: bool, sym: Symbol, a: np.ndarray, c: np.ndarray,
                 factors: list | None = None):
        self.sym, self.ext_op = sym, ext_op
        self.factors = (_smoothing_factors(ext_op, lat, eps, smoothed)
                        if factors is None else factors)
        self.weights = [np.tensordot(a, b * (-0.5j / hl), axes=(-1, 0))
                        for b, hl in zip(sym.b_mats, ext_op.mesh.h)] + [
                            c if c.any() else None]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The map of interior dof vectors (..., n_nodes * n), as grids
        (..., M_1, .., M_d, r): per term and weight, the per-axis products
        of its factors and one multiply, real when the weights and u are."""
        grid = self.ext_op.mesh.to_grid(u, self.sym.n)
        total = None
        for term, (l, weight) in itertools.product(self.factors,
                                                   enumerate(self.weights)):
            if weight is None:
                continue
            y = _axis_products([pair[k == l] for k, pair in enumerate(term)],
                               grid)
            part = np.einsum("...ij,...j->...i", weight, y, order="C")
            total = part if total is None else np.add(total, part, out=total)
        return total


class Corrector(SmoothedBD):
    """The corrector (Λ^eps b(D) + Λ̃^eps)(S_eps or I) of the extension: the
    SmoothedBD map of Λ^eps and Λ̃^eps, compiled once per case.

    When Re Λ == 0, Λ̃ == 0 and every b_l is real, all exactly (a real
    problem, see cell.solve_cell), the weights Λ^eps b_l (-i/2h_l) are real
    but for the rounding of evaluating Λ at eps scale, and only their real
    parts are kept: the map then takes real data to real results."""

    def __init__(self, cell: CellSolution, eps: float, sym: Symbol,
                 ext_op: ExtensionOperator, lat: Lattice, smoothed: bool = True):
        super().__init__(ext_op, lat, eps, smoothed, sym, *(
            eval_scaled_grid(f, lat, eps, ext_op.mesh.axes())
            for f in (cell.Lambda, cell.LambdaTilde)))
        if not (cell.Lambda.samples.real.any() or cell.LambdaTilde.samples.any()
                or any(b.imag.any() for b in sym.b_mats)):
            self.weights = [np.ascontiguousarray(w.real) for w in
                            self.weights[:-1]] + [None]

    def apply(self, u_interior: np.ndarray) -> np.ndarray:
        """Corrector of interior dof vectors (..., n_nodes * n)."""
        return self.ext_op.mesh.from_grid(self(u_interior))

    apply_ext = apply   # the name the sweeps call and bench/spans.py counts


# ---------------------------------------------------------------------------
# resolvent solves


def resolvent(op: DiscreteDirichletOperator, zeta, f: np.ndarray) -> np.ndarray:
    """Solve (A - zeta I) u = f with op's cached solver, a DST-I or a sparse
    LU (DiscreteDirichletOperator.factor), for a dof vector f or rows
    (k, ndof).  Per row, the backward error |r| / (|A - zeta I|_1 |u| + |f|)
    must be at most 1e-13, and |f| / (|A - zeta I|_1 |u|) at least 1e-13, or
    a perturbation within that backward error may make A - zeta I singular."""
    u = op.solve_shifted(zeta, f)
    residual = (op.matrix @ u.T).T - zeta * u - f
    res, f_norm, u_norm = (np.linalg.norm(x, axis=-1) for x in (residual, f, u))
    scaled_u = op.norm1(zeta) * u_norm
    bad = ~(res <= 1e-13 * (scaled_u + f_norm)) | (f_norm < 1e-13 * scaled_u)
    if bad.any():
        raise NearSpectrumShift(
            f"{tag_text(op.eps_tag)}: backward error "
            f"{(res / (scaled_u + f_norm))[bad].max():.3e}, |f| / (|A - zeta I|_1"
            f" |u|) {(f_norm / scaled_u)[bad].min():.3e}: zeta={zeta} is too close"
            " to the spectrum")
    return u
