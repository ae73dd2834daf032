"""Wave-equation operator functions, Duhamel evolution, and an FD oracle.

The operators cos(t A^(1/2)) and A^(-1/2) sin(t A^(1/2)) are realized
through a full hermitian eigenbasis; at desk scale this is the simplest
exact form of the spectral calculus and keeps per-mode energies conserved
to machine precision.  This module is the one spectral layer: three
backends share one interface, _Basis (eigenvalues, size, source, project,
synthesize, map_spectrum), and each supplies only its two row maps.
Operators that the orthonormal DST-I diagonalizes (op.spectrum is not
None: B0 of the scalar catalog fixtures without first-order terms) get a
SineBasis: the closed-form spectrum in grid order and fast sine transforms
(dirichlet.sine_transform, which their resolvent solves use too), with no
eigensolver.  A d=1 operator whose bands repeat exactly with a period p
dividing N + 1 (_bloch_period: B_eps at a dyadic eps) gets a BlochBasis:
the eigenpairs of p x p Floquet matrices and of one cell, in (angle, band)
order, applied by FFTs along the cells (_bloch).  Every other operator
gets an EigenBasis of stored eigenvectors (_eigh), eigenvalues ascending.
certify bounds the backward error of every basis with sparse products,
never through an N x N temporary.  A Stoermer-Verlet integrator provides
an independent check that never touches the eigenbasis.

Importing the module, or running it with a forcing, loads numpy,
scipy.linalg and scipy.sparse only: the sine and Bloch transforms are
numpy FFTs (dirichlet.sine_transform, BlochBasis), and the forcing profile
is evaluated in closed form at the quadrature nodes.

Vectors are rows: a dof vector has shape (..., ndof), leading axes hold a
stack of vectors, and _Basis flattens them into the 2-D rows of one call
of a row map.  Times lead: an operator function of times t (a scalar or
a 1-D array) applied to v returns t.shape + v.shape, and a path has shape
(T, ..., ndof); its du/dt stays modal, where its energies read it.

The forcing is F(t) = cos(omega t) f, given as (omega, f_space).
solve_ibvp projects f once; per time s each mode's Duhamel term is a table
of a scalar integral of cos(omega x) (_duhamel_tables), evaluated by
Gauss-Legendre panels and a phase recurrence over them, and added to the
modal solution before the one synthesis.

flux and flux_approx are SmoothedBD maps (dirichlet), as the corrector K of
u0 + eps K u0 is: g^eps b(D) u unsmoothed, and g̃^eps S_eps b(D) u0 +
g^eps (b(D)Λ̃)^eps S_eps u0.
"""

from dataclasses import dataclass, field
import math

import numpy as np
import scipy.linalg

from .errors import EigSolverFailure, CFLViolation
from .dirichlet import (
    GAUSS_8,
    DiscreteDirichletOperator,
    ExtensionOperator,
    SmoothedBD,
    _by_parts,
    sine_transform,
    tag_text,
)
from .coefficients import eval_scaled_grid
from .cell import CellSolution
from .lattice import Lattice, unit_lattice

#: full eigendecompositions are refused above this many unknowns
_EIG_LIMIT = 8192


@dataclass(frozen=True)
class _Basis:
    """What every eigenbasis shares: the row contract, factors broadcast
    against eigenvalues, and a memo of the last time table built
    (_time_factors).  project and synthesize take a stack of any rank,
    its leading axes flattened into the 2-D rows of the backend's row maps
    _project and _synthesize, and reshape the result back."""

    _last_table: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def project(self, v: np.ndarray) -> np.ndarray:
        rows = np.reshape(v, (-1, np.shape(v)[-1]))
        return self._project(rows).reshape(np.shape(v))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        rows = np.reshape(coeffs, (-1, np.shape(coeffs)[-1]))
        return self._synthesize(rows).reshape(np.shape(coeffs))

    def map_spectrum(self, factors: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.synthesize(factors * self.project(v))


@dataclass(frozen=True)
class SineBasis(_Basis):
    """The orthonormal DST-I eigenbasis of an operator with a closed-form
    spectrum: eigenvalues holds source.spectrum in grid order, so both row
    maps are sine_transform, which is its own inverse."""

    eigenvalues: np.ndarray
    source: DiscreteDirichletOperator = field(repr=False)

    def _project(self, rows):
        return sine_transform(rows, self.source.mesh.m_int)

    _synthesize = _project

    def checked_rows(self):
        """The lowest and highest unit modes and four seeded random rows c,
        synthesized with and without mu, as certify reads them."""
        c = np.random.default_rng(0).standard_normal((6, self.size))
        c[:2] = 0.0
        c[0, self.eigenvalues.argmin()] = c[1, self.eigenvalues.argmax()] = 1.0
        yield (self.synthesize(c), self.synthesize(self.eigenvalues * c),
               np.linalg.norm(c, axis=-1))


@dataclass(frozen=True)
class EigenBasis(_Basis):
    """Stored orthonormal eigenpairs of a positive definite discrete operator
    without a closed-form or Bloch basis (_eigh), eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: DiscreteDirichletOperator = field(repr=False)

    # one 2-D product per stack reads Q once; v Q^* as conj(conj(v) Q)
    # never copies a complex Q conjugated
    def _project(self, rows):
        return (rows.conj() @ self.eigenvectors).conj()

    def _synthesize(self, rows):
        return rows @ self.eigenvectors.T

    def checked_rows(self):
        """Every eigenvector x with y = mu x, as certify reads them: 32
        contiguous rows of Q^T at a time, views of the Fortran-ordered Q
        that ?stevd and dense eigh return, so only y and certify's product
        are allocated, about 1.6 MiB at 2047 unknowns."""
        rows = self.eigenvectors.T
        for start in range(0, self.size, 32):
            x = rows[start:start + 32]
            yield x, x * self.eigenvalues[start:start + 32, None], 1.0


@dataclass(frozen=True)
class BlochBasis(_Basis):
    """The Floquet-Bloch eigenbasis of a periodic Jacobi matrix (_bloch).

    The N = pL - 1 unknowns are a grid (L, p) of L cells, node kp + r at
    [k, r - 1], padded by the Dirichlet node N + 1.  eigenvalues holds the
    bands in (theta_j, band) order, theta_j = pi j / L, j = 1 .. L-1, then
    the p - 1 cell eigenvalues.  Band eigenvector (j, b) is
    Im(e^{i k theta_j} bloch[j-1, r, b]) at node (k, r); cell eigenvector
    i is weights[i, k] cell[i, r], zero on the last node of each cell.  So
    project and synthesize are one FFT of length 2L along k plus one
    batched p x p product per theta_j, with no N x N array.  phase scales
    the basis of a complex subdiagonal (_phase_similarity)."""

    eigenvalues: np.ndarray
    bloch: np.ndarray = field(repr=False)       # (L-1, p, p)
    cell: np.ndarray = field(repr=False)        # (p-1, p-1), rows
    weights: np.ndarray = field(repr=False)     # (p-1, L)
    phase: np.ndarray | None = field(repr=False)
    source: DiscreteDirichletOperator = field(repr=False)

    def _project(self, rows):
        if self.phase is not None:
            rows = rows * self.phase.conj()
        return _by_parts(self._fft_project, rows)

    def _fft_project(self, rows):
        n_cells = self.weights.shape[1]
        # (R, L, p), the Dirichlet node N + 1 padded on
        grid = np.pad(rows, ((0, 0), (0, 1))).reshape(len(rows), n_cells, -1)
        f = np.fft.rfft(grid, 2 * n_cells, axis=1)[:, 1:n_cells]
        bands = np.matmul(f.conj().transpose(1, 0, 2), self.bloch).imag
        cell = ((grid[..., :-1] @ self.cell.T) * self.weights.T).sum(axis=1)
        return np.concatenate(
            [bands.transpose(1, 0, 2).reshape(len(rows), -1), cell], axis=1)

    def _synthesize(self, rows):
        out = _by_parts(self._fft_synthesize, rows)
        return out if self.phase is None else out * self.phase

    def _fft_synthesize(self, rows):
        n_cells, p = self.weights.shape[1], self.cell.shape[0] + 1
        split = (n_cells - 1) * p
        bands = rows[:, :split].reshape(len(rows), n_cells - 1, p)
        x = np.zeros((len(rows), n_cells + 1, p), complex)
        x[:, 1:n_cells] = np.matmul(bands.transpose(1, 0, 2),
                                    self.bloch.transpose(0, 2, 1)
                                    ).transpose(1, 0, 2)
        # Im(sum_j e^{i k theta_j} x_j) = Re(sum_j e^{i k theta_j} (-i x_j))
        grid = n_cells * np.fft.irfft(-1j * x, 2 * n_cells,
                                      axis=1)[:, :n_cells]
        grid[..., :-1] += (rows[:, split:, None] * self.weights).transpose(
            0, 2, 1) @ self.cell
        return grid.reshape(len(rows), -1)[:, :-1]

    def checked_rows(self):
        """Every eigenvector x with y = mu x, as certify reads them, built
        from the closed form about 32 at a time: the p bands of
        max(1, 32 // p) angles theta_j, then 32 cell eigenvectors."""
        n_cells, p = self.weights.shape[1], self.cell.shape[0] + 1
        k = np.arange(n_cells)
        step = max(1, 32 // p)
        for j in range(0, n_cells - 1, step):
            js = np.arange(j, min(j + step, n_cells - 1))
            # k theta_j reduced below 2 pi in integers, accurate to an ulp
            angle = np.pi / n_cells * (np.outer(js + 1, k) % (2 * n_cells))
            w = self.bloch[js, None].transpose(0, 3, 1, 2)     # (j, b, 1, r)
            x = (np.cos(angle)[:, None, :, None] * w.imag
                 + np.sin(angle)[:, None, :, None] * w.real)
            yield self._rows(x.reshape(-1, n_cells, p), js[0] * p)
        for i in range(0, p - 1, 32):
            grid = np.zeros((min(32, p - 1 - i), n_cells, p))
            grid[..., :-1] = (self.weights[i:i + 32, :, None]
                              * self.cell[i:i + 32, None, :])
            yield self._rows(grid, (n_cells - 1) * p + i)

    def _rows(self, grid, start):
        """checked_rows' (x, mu x, 1) of eigenvectors start.. on the grid."""
        x = np.ascontiguousarray(grid.reshape(len(grid), -1)[:, :-1])
        if self.phase is not None:
            x = x * self.phase
        return x, x * self.eigenvalues[start:start + len(x), None], 1.0


@dataclass(frozen=True)
class EvolutionResult:
    """A path u (T, ..., ndof), its energies, and du/dt as modal du_hat."""
    times: np.ndarray
    u: np.ndarray
    energy: np.ndarray
    du_hat: np.ndarray = field(repr=False)
    basis: _Basis = field(repr=False)


def spectral_decompose(op: DiscreteDirichletOperator) -> _Basis:
    """The eigenbasis of op: a SineBasis in grid order when op.spectrum is
    not None, else a BlochBasis in (angle, band) order when its bands have
    a period (_bloch_period), else an EigenBasis, ascending (_eigh).
    Validates the spectral contract: the lowest eigenvalue is positive, and
    certify passes."""
    check_decomposable(op.size, op.eps_tag)
    at = tag_text(op.eps_tag)
    if op.spectrum is not None:
        eb = SineBasis(op.spectrum.ravel(), op)
    else:
        period = _bloch_period(op.bands)
        try:
            eb = (EigenBasis(*_eigh(op), source=op) if period is None
                  else _bloch(op, period))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise EigSolverFailure(f"{at}: {exc}") from exc
    if eb.eigenvalues.min() <= 0.0:
        raise EigSolverFailure(
            f"{at}: non-positive eigenvalue {eb.eigenvalues.min():.3e}")
    certify(eb)
    return eb


def certify(eb: _Basis):
    """Raise EigSolverFailure unless |A x - y| <= 1e-13 |A|_1 |c| for every
    (x, y, |c|) of eb.checked_rows(), A = eb.source.matrix.

    For a unit eigenpair this bounds the normwise backward error: (mu, x)
    is exact for some A + E with |E|_2 <= 1e-13 |A|_1, so by Weyl each
    eigenvalue is that close to one of A's.  A residual relative to mu would
    refuse backward-stable lowest modes, whose residuals scale with |A|.
    """
    op, norm1 = eb.source, eb.source.norm1()
    for x, y, scale in eb.checked_rows():
        resid = np.linalg.norm((op.matrix @ x.T).T - y, axis=-1)
        worst = (resid / (norm1 * scale)).max()
        if not worst <= 1e-13:
            raise EigSolverFailure(f"{tag_text(op.eps_tag)}: eigen backward "
                                   f"error {worst:.3e} exceeds 1e-13")


def check_decomposable(size: int, eps_tag):
    """Raise EigSolverFailure when size unknowns exceed the eigensolver cap."""
    if size > _EIG_LIMIT:
        raise EigSolverFailure(
            f"{tag_text(eps_tag)}: {size} unknowns exceed the eigensolver "
            f"limit {_EIG_LIMIT}; evolution runs are desk-scale by design")


def _eigh(op):
    """Ascending eigenvalues and stored eigenvectors of a discrete hermitian
    operator without a closed-form spectrum or a Bloch period
    (_bloch_period), by one of two paths.

    - Tridiagonal: op.bands is one pair (diag, sub), which goes to LAPACK's
      divide-and-conquer ?stevd; MRRR (?stemr) fails with info=22 on the
      unscaled sine1d operator at 1919 unknowns.  A real sub, signs and
      all, is passed as it is.  A complex one gives A = D T D^H with T real
      symmetric (_phase_similarity): T is decomposed and its eigenvectors
      are scaled by the phases.
    - Dense: every other matrix gets dense eigh of a Fortran-ordered
      copy, which LAPACK overwrites, so the copy and the eigenvectors are
      the only N x N arrays.
    """
    if op.bands is None or len(op.bands) != 1:
        return scipy.linalg.eigh(op.matrix.toarray(order="F"),
                                 overwrite_a=True)
    (diag, sub), = op.bands
    if np.isrealobj(sub):
        return scipy.linalg.eigh_tridiagonal(diag, sub, lapack_driver="stevd")
    mag, phase = _phase_similarity(sub)
    mu, Q = scipy.linalg.eigh_tridiagonal(diag, mag, lapack_driver="stevd")
    return mu, phase[:, None] * Q


def _phase_similarity(sub):
    """|sub| and the phases D of A = D T D^H, T real with subdiagonal |sub|:
    phase[k+1] = phase[k] sub[k] / |sub[k]|, a zero entry taken as 1."""
    mag = np.abs(sub)
    unit = np.divide(sub, mag, out=np.ones_like(sub), where=mag > 0.0)
    return mag, np.concatenate(([1.0], np.cumprod(unit)))


def _bloch_period(bands):
    """The period p of a BlochBasis for an operator with these bands, or
    None: the smallest p >= 2 at which a tridiagonal operator's bands
    repeat exactly (==, no tolerance), p dividing N + 1 = pL with L >= p
    periods, every sub entry nonzero.  Constant bands, of period 1, get
    none: real ones have a closed-form spectrum, complex ones stay on
    ?stevd."""
    if bands is None or len(bands) != 1:
        return None
    (diag, sub), = bands
    if not sub.all() or ((diag == diag[0]).all() and (sub == sub[0]).all()):
        return None
    nodes = diag.size + 1
    for p in range(2, math.isqrt(nodes) + 1):
        if (nodes % p == 0 and (diag[p:] == diag[:-p]).all()
                and (sub[p:] == sub[:-p]).all()):
            return p
    return None


def _bloch(op, p) -> BlochBasis:
    """The BlochBasis of a tridiagonal operator whose bands have period p
    (_bloch_period), with d_r = diag[r-1] and c_r = sub[r-1] on one cell.

    - Bands: one batched eigh of the L - 1 hermitian p x p Floquet matrices
      J(theta_j), theta_j = pi j / L: diagonal d, couplings c_1..c_{p-1},
      and the corners J[p, 1] = c_p e^{i theta}, J[1, p] = c_p e^{-i theta}.
      Each eigenpair (mu, phi) gives the Dirichlet eigenvector
      sqrt(2/L) Im(e^{i(k+1) theta} e^{-i arg phi_p} phi_r) at node kp + r,
      which vanishes at nodes 0 and pL, unit by the orthogonality of the
      sines and cosines of k theta_j.
    - Cells: the p - 1 eigenvectors that vanish at every node kp.  An
      eigenpair (mu, v) of the (p-1) x (p-1) cell matrix with zero ends is
      continued from cell k to k + 1 by rho = -c_{p-1} v_{p-1} / (c_p v_1),
      the weights rho^k normalized from the decaying end, so nothing
      overflows.
    A complex sub goes through the phase similarity of _eigh: the basis of
    the real matrix with couplings |sub|, scaled by the phases.
    """
    (diag, sub), = op.bands
    c, phase = _phase_similarity(sub) if np.iscomplexobj(sub) else (sub, None)
    cells = (diag.size + 1) // p
    theta = np.pi * np.arange(1, cells) / cells
    r = np.arange(p)
    floquet = np.zeros((cells - 1, p, p), complex)
    floquet[:, r, r] = diag[:p]
    floquet[:, r[1:], r[:-1]] = floquet[:, r[:-1], r[1:]] = c[:p - 1]
    floquet[:, -1, 0] += c[p - 1] * np.exp(1j * theta)
    floquet[:, 0, -1] += c[p - 1] * np.exp(-1j * theta)
    mu, phi = np.linalg.eigh(floquet)
    bloch = np.sqrt(2.0 / cells) * phi * np.exp(
        1j * (theta[:, None] - np.angle(phi[:, -1])))[:, None]
    cell_mu, v = scipy.linalg.eigh_tridiagonal(diag[:p - 1], c[:p - 2],
                                               lapack_driver="stev")
    rho = -c[p - 2] * v[-1] / (c[p - 1] * v[0])
    grows = np.abs(rho) > 1.0
    weights = np.where(grows, 1.0 / rho, rho)[:, None] ** np.arange(cells)
    weights[grows] = weights[grows, ::-1]
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    return BlochBasis(np.concatenate([mu.ravel(), cell_mu]), bloch, v.T,
                      weights, phase, op)


def _cos_factors(mu: np.ndarray, t) -> np.ndarray:
    return np.cos(t * np.sqrt(mu))


def _sinc_factors(mu: np.ndarray, t) -> np.ndarray:
    """sin(t sqrt(mu)) / sqrt(mu), mu > 0 as spectral_decompose checks."""
    root = np.sqrt(mu)
    return np.sin(t * root) / root


def _time_factors(eb: _Basis, fn, t, v) -> np.ndarray:
    """The table fn(mu, t), shaped t.shape + (1,) * (v.ndim - 1) + (N,) to
    broadcast against v's coefficients.  Each basis keeps the last table it
    was asked for, read-only, so repeated calls on the same times (one per
    probe) build it once."""
    t = np.asarray(t, dtype=float)
    key = (fn, t.shape, t.tobytes())
    memo = eb._last_table
    if key not in memo:
        memo.clear()
        memo[key] = fn(eb.eigenvalues, t[..., None])
        memo[key].flags.writeable = False
    return memo[key].reshape(t.shape + (1,) * (np.ndim(v) - 1) + (eb.size,))


def op_cosine(eb: _Basis, t, v: np.ndarray) -> np.ndarray:
    """cos(t A^(1/2)) v, shape t.shape + v.shape; the identity at t = 0."""
    return eb.map_spectrum(_time_factors(eb, _cos_factors, t, v), v)


def op_sine_scaled(eb: _Basis, t, v: np.ndarray) -> np.ndarray:
    """A^(-1/2) sin(t A^(1/2)) v, shape t.shape + v.shape; equals the time
    integral of the cosine."""
    return eb.map_spectrum(_time_factors(eb, _sinc_factors, t, v), v)


def op_inv_sqrt(eb: _Basis, v: np.ndarray) -> np.ndarray:
    return eb.map_spectrum(1.0 / np.sqrt(eb.eigenvalues), v)


# ---------------------------------------------------------------------------
# Duhamel evolution


def _duhamel_tables(root: np.ndarray, s: float, omega: float):
    """Per-mode Duhamel tables of the profile cos(omega x) at time s:
    Ku = int_0^s cos(omega x) sin(root (s - x)) / root dx and
    Kdu = int_0^s cos(omega x) cos(root (s - x)) dx, root = sqrt(mu) > 0.

    The quadrature is 8-point Gauss-Legendre on n uniform panels of signed
    width H = s / n <= min(0.1, |s|/4), the profile evaluated exactly at
    its nodes.  Node j of panel p sits at s - x = (n-1-p) H + H (1 - xi_j)/2,
    so with E_j = exp(i root H (1-xi_j)/2) and R = exp(i root H) the sum is
    a Horner pass over the panel sums G_p = sum_j w_j cos(omega x_pj) E_j:
    9 N complex exponentials per time.
    """
    if s == 0.0:
        return np.zeros_like(root), np.zeros_like(root)
    n = max(1, int(np.ceil(abs(s) / min(0.1, abs(s) / 4.0))))
    h = s / n
    xi, w = GAUSS_8
    cw = 0.5 * h * w * np.cos(omega * h * (np.arange(n)[:, None]
                                           + 0.5 * (1.0 + xi)))
    e = np.exp(1j * np.multiply.outer(0.5 * h * (1.0 - xi), root))
    # a real (n, 8) by complex (8, N) product as one real GEMM
    g = (cw @ e.view(float)).view(complex)
    r = np.exp(1j * h * root)
    acc = g[0]
    for g_p in g[1:]:
        acc = acc * r + g_p
    return acc.imag / root, acc.real


def solve_ibvp(eb: _Basis, phi: np.ndarray, psi: np.ndarray,
               forcing=None, t_list=(1.0,)) -> EvolutionResult:
    """Evaluate the three-term Duhamel formula at the requested times.

    phi and psi are dof vectors or broadcastable stacks of them
    (..., ndof); the path holds u of shape (T, ..., ndof), its energies,
    and du/dt as modal du_hat, which basis synthesizes.  forcing is None or
    F(t) = cos(omega t) f: a pair (omega, f_space) of a real finite omega
    and one dof vector f_space (real or complex), the same for every
    stacked row.  phi, psi and f_space are projected as one stack of rows,
    and each time s adds the per-mode tables of _duhamel_tables times f_hat
    to the modal u and du.  The integral runs over [0, s] for every time,
    negative ones included.
    """
    mu = eb.eigenvalues
    root = np.sqrt(mu)
    if forcing is not None:
        if len(forcing) != 2 or np.ndim(forcing[0]) != 0:
            raise ValueError("forcing is a pair (omega, f_space) of "
                             "F(t) = cos(omega t) f_space")
        if not (np.isrealobj(forcing[0]) and np.isfinite(forcing[0])):
            raise ValueError(
                f"forcing omega={forcing[0]} is not real and finite")
    rows = [np.asarray(v) for v in (phi, psi, *tuple(forcing or ())[1:])]
    hats = np.split(eb.project(np.concatenate([r.reshape(-1, r.shape[-1])
                                               for r in rows])),   # one stack
                    np.cumsum([r.size // r.shape[-1] for r in rows])[:-1])
    phi_hat, psi_hat, *f_hat = (h.reshape(r.shape) for h, r in zip(hats, rows))
    t_list = np.asarray(list(t_list), dtype=float)
    t = t_list.reshape((-1,) + (1,) * max(phi_hat.ndim, psi_hat.ndim))
    cos = _cos_factors(mu, t)
    u_hat = cos * phi_hat + _sinc_factors(mu, t) * psi_hat
    du_hat = -root * np.sin(t * root) * phi_hat + cos * psi_hat
    if forcing is not None:
        # (T, 2, 1.., N): Ku and Kdu of each time, broadcast over the stack
        k = np.reshape([_duhamel_tables(root, s, forcing[0]) for s in t_list],
                       (t_list.size, 2) + (1,) * (u_hat.ndim - 2) + root.shape)
        u_hat = u_hat + k[:, 0] * f_hat[0]
        du_hat = du_hat + k[:, 1] * f_hat[0]
    energy = (np.sum(np.abs(du_hat) ** 2, axis=-1)
              + np.sum(mu * np.abs(u_hat) ** 2, axis=-1))
    return EvolutionResult(times=t_list, u=eb.synthesize(u_hat), energy=energy,
                           du_hat=du_hat, basis=eb)


# ---------------------------------------------------------------------------
# fluxes


def flux(u: np.ndarray, coeffs, eps: float, ext_op: ExtensionOperator,
         lat: Lattice | None = None) -> np.ndarray:
    """p_eps = g^eps b(D) u on interior nodes of dof vectors u (..., ndof),
    shape (..., nodes, m): the unsmoothed SmoothedBD map of g^eps, whose
    centered differences read zero outside the box."""
    lat = lat or unit_lattice(ext_op.mesh.dim)
    sym = coeffs.symbol
    g_eps = eval_scaled_grid(coeffs.g, lat, eps, ext_op.mesh.axes())
    total = SmoothedBD(ext_op, lat, eps, False, sym, g_eps,
                       np.zeros((sym.m, sym.n)))(u)
    return total.reshape(np.shape(u)[:-1] + (-1, sym.m))


def flux_approx(u0: np.ndarray, cell: CellSolution, eps: float,
                smoothed: bool, coeffs, ext_op: ExtensionOperator,
                lat: Lattice | None = None,
                factors: list | None = None) -> np.ndarray:
    """g̃^eps (S_eps) b(D) ũ0 + g^eps (b(D)Λ̃)^eps (S_eps) ũ0 on interior nodes,
    ũ0 the extension of dof vectors u0 (..., ndof); shape (..., nodes, m):
    the SmoothedBD map of g̃^eps and g^eps (b(D)Λ̃)^eps.  A caller that holds
    the factors of the case's Corrector passes them, not to build them twice."""
    lat = lat or unit_lattice(ext_op.mesh.dim)
    sym = coeffs.symbol
    g_tilde, g, bdlt = (eval_scaled_grid(f, lat, eps, ext_op.mesh.axes())
                        for f in (cell.g_tilde, coeffs.g, cell.bD_LambdaTilde))
    total = SmoothedBD(ext_op, lat, eps, smoothed, sym, g_tilde, g @ bdlt,
                       factors)(u0)
    return total.reshape(u0.shape[:-1] + (-1, sym.m))


# ---------------------------------------------------------------------------
# leapfrog oracle


def leapfrog_oracle(op: DiscreteDirichletOperator, phi, psi, forcing,
                    t: float, dt: float, return_velocity: bool = False):
    """Stoermer-Verlet integration of u'' = -A u + F from (phi, psi) to time t,
    forwards or backwards, in ceil(|t| / dt) equal steps.

    forcing is None or a callable t -> vector.  Second-order accurate and
    independent of any eigendecomposition; dt must satisfy the CFL bound
    dt <= 1.9 / sqrt(|A|_1), which certifies dt <= 1.9 / sqrt(mu_max) for a
    hermitian A, as |A|_1 >= |A|_2 >= mu_max.
    """
    dt_cfl = 1.9 / np.sqrt(op.norm1())
    if dt > dt_cfl:
        raise CFLViolation(f"dt={dt:.3e} exceeds CFL bound {dt_cfl:.3e}")
    n_steps = max(1, int(np.ceil(abs(t) / dt - 1e-12)))
    dt_eff = t / n_steps
    dtype = np.result_type(op.matrix.dtype, np.asarray(phi).dtype,
                           np.asarray(psi).dtype, float)
    u = np.array(phi, dtype=dtype, copy=True)
    v = np.array(psi, dtype=dtype, copy=True)
    f_now = forcing(0.0) if forcing is not None else 0.0
    acc = -(op.matrix @ u) + f_now
    for k in range(n_steps):
        v_half = v + 0.5 * dt_eff * acc
        u = u + dt_eff * v_half
        f_next = forcing((k + 1) * dt_eff) if forcing is not None else 0.0
        acc = -(op.matrix @ u) + f_next
        v = v_half + 0.5 * dt_eff * acc
    if return_velocity:
        return u, v
    return u
