"""Periodic cell problems, effective matrices, and interaction averages.

The two cell problems are discretized by a Fourier--Galerkin method:
differentiation is exact in frequency space, multiplication by the
coefficient happens pointwise on a zero-padded physical grid (3/2-style
dealiasing), and the truncated systems are solved by preconditioned
conjugate gradients on the zero-mean subspace.  For band-limited
coefficients the Galerkin matrices are exact, so cell-stage error decays
spectrally and stays far below the homogenization rates measured downstream.
"""

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import SolverBreakdown
from .lattice import Lattice, fft_frequency_grid
from .coefficients import PeriodicField, Symbol, resample, sup_opnorm

#: relative residual target for the truncated cell systems
CG_TOL = 1e-12


@dataclass(frozen=True)
class VoigtReussReport:
    lower_ok: bool
    upper_ok: bool
    lower_margin: float
    upper_margin: float
    g_lower: np.ndarray
    g_upper: np.ndarray


@dataclass(frozen=True)
class CellSolution:
    """Everything the effective operator and the correctors need."""

    N: int
    Lambda: PeriodicField
    LambdaTilde: PeriodicField
    bD_Lambda: PeriodicField
    bD_LambdaTilde: PeriodicField
    g_tilde: PeriodicField
    g0: np.ndarray
    V: np.ndarray
    W: np.ndarray
    residuals: dict

    def corrector_norm(self) -> float:
        """‖Λ‖ + ‖Λ̃‖ in the discrete cell L2 norm (zero iff no corrector)."""
        nl = np.sqrt(np.mean(np.abs(self.Lambda.samples) ** 2))
        nt = np.sqrt(np.mean(np.abs(self.LambdaTilde.samples) ** 2))
        return float(nl + nt)


# ---------------------------------------------------------------------------
# spectral helpers


def apply_bD(f: PeriodicField, sym: Symbol, lat: Lattice) -> PeriodicField:
    """b(D) applied spectrally: coefficients multiply by b(k) on the left."""
    if f.shape[0] != sym.n:
        raise ValueError(f"field has {f.shape[0]} rows, symbol expects {sym.n}")
    N, d = f.resolution, f.dim
    bk = sym.at(fft_frequency_grid(lat, N))
    c = np.einsum("...mn,...nc->...mc", bk, f.coeffs())
    samples = np.fft.ifftn(c * N ** d, axes=tuple(range(d)))
    return PeriodicField(samples=samples, dim=d)


def _dealias_grid(N: int, n_g: int) -> int:
    """Physical grid size keeping products with the coefficient alias-free."""
    M = max(3 * N // 2, N + n_g // 2)
    return M + (M % 2)


class _CellOperator:
    """Truncated operator X -> P_K b(D)* g b(D) X on zero-mean coefficients.

    Coefficient arrays are FFT-ordered with shape (N,)*d + (n,); the
    frequency-zero entry is pinned to zero throughout.
    """

    def __init__(self, sym: Symbol, g: PeriodicField, lat: Lattice, N: int):
        self.sym = sym
        self.lat = lat
        self.N = N
        self.d = sym.d
        self.M = _dealias_grid(N, g.resolution)
        self.bk = sym.at(fft_frequency_grid(lat, N))          # (grid, m, n)
        self.bkH = np.swapaxes(self.bk, -1, -2).conj()        # (grid, n, m)
        self.g_pad = resample(g, self.M).samples              # (Grid, m, m)
        self.g_trunc = resample(g, N)                         # field at N
        # mean-coefficient preconditioner: pinv of b(k)* mean(g) b(k)
        g_mean = g.mean()
        gram = np.einsum("...nm,mk,...kj->...nj", self.bkH, g_mean, self.bk)
        flat = gram.reshape(-1, sym.n, sym.n)
        precon = np.zeros_like(flat)
        nonzero = np.linalg.norm(flat, axis=(1, 2)) > 0
        precon[nonzero] = np.linalg.inv(flat[nonzero])
        self.precon = precon.reshape(gram.shape)

    def _pad_coeffs(self, c):
        """Embed shifted N-spectrum into the M physical grid and transform."""
        d, N, M = self.d, self.N, self.M
        axes = tuple(range(d))
        c = np.fft.fftshift(c, axes=axes)
        pad = [(M // 2 - N // 2, M - N - (M // 2 - N // 2))] * d
        pad += [(0, 0)] * (c.ndim - d)
        c = np.pad(c, pad)
        c = np.fft.ifftshift(c, axes=axes)
        return np.fft.ifftn(c * M ** d, axes=axes)

    def _truncate_phys(self, values):
        d, N, M = self.d, self.N, self.M
        axes = tuple(range(d))
        c = np.fft.fftn(values, axes=axes) / M ** d
        c = np.fft.fftshift(c, axes=axes)
        sl = tuple(slice(M // 2 - N // 2, M // 2 + N // 2) for _ in axes)
        c = c[sl + (Ellipsis,)]
        return np.fft.ifftshift(c, axes=axes)

    def apply(self, x):
        y = np.einsum("...mn,...n->...m", self.bk, x)
        y_phys = self._pad_coeffs(y)
        z_phys = np.einsum("...ij,...j->...i", self.g_pad, y_phys)
        z = self._truncate_phys(z_phys)
        out = np.einsum("...nm,...m->...n", self.bkH, z)
        out[(0,) * self.d] = 0.0
        return out

    def apply_precon(self, r):
        return np.einsum("...ij,...j->...i", self.precon, r)

    def rhs_from_field(self, field_coeffs_col):
        """-b(D)* applied to the truncated coefficients of a given m-field."""
        out = -np.einsum("...nm,...m->...n", self.bkH, field_coeffs_col)
        out[(0,) * self.d] = 0.0
        return out


def _pcg(op: _CellOperator, rhs, max_iter: int, tol: float):
    """Preconditioned CG on the zero-mean subspace; returns (x, rel_residual)."""
    norm_b = np.linalg.norm(rhs)
    x = np.zeros_like(rhs)
    if norm_b == 0.0:
        return x, 0.0
    r = rhs.copy()
    z = op.apply_precon(r)
    p = z.copy()
    rz = np.vdot(r, z).real
    for _ in range(max_iter):
        ap = op.apply(p)
        p_ap = np.vdot(p, ap).real
        if not np.isfinite(p_ap) or p_ap <= 0.0:
            raise SolverBreakdown(
                "curvature lost: truncated cell system is singular beyond "
                "the zero-mean kernel")
        alpha = rz / p_ap
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r) / norm_b
        if res <= tol:
            return x, res
        z = op.apply_precon(r)
        rz_new = np.vdot(r, z).real
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    res = np.linalg.norm(rhs - op.apply(x)) / norm_b
    if res > 1e-10:
        raise SolverBreakdown(f"cell CG stalled at relative residual {res:.3e}")
    return x, res


def _solve_columns(op: _CellOperator, rhs_cols, residuals) -> PeriodicField:
    """Solve one system per column and stack the (grid, n) coefficient
    solutions into an (n, cols) field; appends each residual."""
    cols = []
    for rhs in rhs_cols:
        x, res = _pcg(op, rhs, 10 * op.N ** op.d, CG_TOL)
        cols.append(x)
        if residuals is not None:
            residuals.append(res)
    c = np.stack(cols, axis=-1)  # (grid, n, cols)
    samples = np.fft.ifftn(c * op.N ** op.d, axes=tuple(range(op.d)))
    return PeriodicField(samples=samples, dim=op.d)


# ---------------------------------------------------------------------------
# cell problems


def solve_lambda(sym: Symbol, g: PeriodicField, lat: Lattice, N: int,
                 _residuals: list | None = None) -> PeriodicField:
    """Zero-mean n x m solution of b(D)* g (b(D) Λ + 1_m) = 0.

    The m columns are independent problems; each is solved to a relative
    residual of 1e-10 or better (target 1e-12).
    """
    if N < 8 or N % 2:
        raise ValueError("cell resolution must be even and >= 8")
    op = _CellOperator(sym, g, lat, N)
    g_coeffs = op.g_trunc.coeffs()  # (grid, m, m) truncated to solver band
    return _solve_columns(op, [op.rhs_from_field(g_coeffs[..., :, c])
                               for c in range(sym.m)], _residuals)


def solve_lambda_tilde(sym: Symbol, g: PeriodicField, a, lat: Lattice, N: int,
                       _residuals: list | None = None) -> PeriodicField:
    """Zero-mean n x n solution of b(D)* g b(D) Λ̃ + sum_j D_j a_j* = 0."""
    if N < 8 or N % 2:
        raise ValueError("cell resolution must be even and >= 8")
    d, n = sym.d, sym.n
    if not a or all(np.abs(aj.samples).max() == 0 for aj in a):
        if _residuals is not None:
            _residuals.extend([0.0] * n)
        zero = np.zeros((N,) * d + (n, n), dtype=complex)
        return PeriodicField(samples=zero, dim=d)
    op = _CellOperator(sym, g, lat, N)
    k_grid = fft_frequency_grid(lat, N)  # (grid, d)
    rhs_field = np.zeros((N,) * d + (n, n), dtype=complex)
    for j, aj in enumerate(a):
        ajH = PeriodicField(np.swapaxes(aj.samples, -1, -2).conj(), dim=d)
        cj = resample(ajH, N).coeffs()
        rhs_field -= k_grid[..., j, None, None] * cj  # -D_j a_j* in frequency
    rhs_field[(0,) * d] = 0.0
    return _solve_columns(op, [rhs_field[..., :, c] for c in range(n)],
                          _residuals)


# ---------------------------------------------------------------------------
# effective quantities


def effective_matrix(g: PeriodicField, Lambda: PeriodicField, sym: Symbol,
                     lat: Lattice):
    """g̃(x) = g(x)(b(D)Λ(x) + 1_m) and its hermitized cell mean g⁰."""
    N = Lambda.resolution
    M = _dealias_grid(N, g.resolution)
    bdl = resample(apply_bD(Lambda, sym, lat), M).samples
    g_pad = resample(g, M).samples
    g_tilde = np.einsum("...ij,...jk->...ik", g_pad, bdl + np.eye(sym.m))
    g0_raw = g_tilde.mean(axis=tuple(range(g.dim)))
    g0 = 0.5 * (g0_raw + g0_raw.conj().T)
    skew = np.linalg.norm(g0_raw - g0_raw.conj().T)
    if skew > 1e-8 * max(np.linalg.norm(g0), 1e-300):
        warnings.warn(f"effective matrix has skew part {skew:.3e}; hermitized")
    return PeriodicField(samples=g_tilde, dim=g.dim), g0


def interaction_matrices(g: PeriodicField, Lambda: PeriodicField,
                         LambdaTilde: PeriodicField, sym: Symbol, lat: Lattice):
    """Cell averages V = <(bDΛ)* g bDΛ̃> (m x n) and W = <(bDΛ̃)* g bDΛ̃> (n x n)."""
    N = Lambda.resolution
    M = _dealias_grid(N, g.resolution)
    bdl = resample(apply_bD(Lambda, sym, lat), M).samples
    bdlt = resample(apply_bD(LambdaTilde, sym, lat), M).samples
    g_pad = resample(g, M).samples
    grid_axes = tuple(range(g.dim))
    v = np.einsum("...ji,...jk,...kl->...il", bdl.conj(), g_pad, bdlt)
    w = np.einsum("...ji,...jk,...kl->...il", bdlt.conj(), g_pad, bdlt)
    V = v.mean(axis=grid_axes)
    W = w.mean(axis=grid_axes)
    W = 0.5 * (W + W.conj().T)
    w_eigs = np.linalg.eigvalsh(W)
    if w_eigs.min() < -1e-10 * max(np.abs(w_eigs).max(), 1e-300):
        raise SolverBreakdown("Gram average W has a significantly negative eigenvalue")
    return V, W


def voigt_reuss(g: PeriodicField, g0: np.ndarray) -> VoigtReussReport:
    """Check the matrix bracketing harmonic mean <= g0 <= arithmetic mean."""
    grid_axes = tuple(range(g.dim))
    g_upper = g.samples.mean(axis=grid_axes)
    g_lower = np.linalg.inv(np.linalg.inv(g.samples).mean(axis=grid_axes))
    g_upper = 0.5 * (g_upper + g_upper.conj().T)
    g_lower = 0.5 * (g_lower + g_lower.conj().T)
    tol = 1e-9 * sup_opnorm(g)
    low = np.linalg.eigvalsh(0.5 * ((g0 - g_lower) + (g0 - g_lower).conj().T))
    up = np.linalg.eigvalsh(0.5 * ((g_upper - g0) + (g_upper - g0).conj().T))
    return VoigtReussReport(
        lower_ok=bool(low.min() >= -tol),
        upper_ok=bool(up.min() >= -tol),
        lower_margin=float(low.min()),
        upper_margin=float(up.min()),
        g_lower=g_lower,
        g_upper=g_upper,
    )


def solve_cell(coeffs, lat: Lattice, N: int) -> CellSolution:
    """Run both cell problems and collect every effective quantity.

    When every b_l and g are exactly real, Λ = iΦ with Φ real, so Λ is
    projected onto i Im Λ before anything reads it, as assembly keeps the
    hermitian part of an operator.  That drops CG rounding (about 1e-17 at
    the default N) and the unpaired Nyquist mode's asymmetry (1e-11 at
    N = 32 on sine1d), and lets dirichlet.Corrector run in real arithmetic.
    """
    sym, g = coeffs.symbol, coeffs.g
    res_l, res_lt = [], []
    Lambda = solve_lambda(sym, g, lat, N, _residuals=res_l)
    if not (g.samples.imag.any() or any(b.imag.any() for b in sym.b_mats)):
        Lambda = PeriodicField(1j * Lambda.samples.imag, dim=Lambda.dim)
    LambdaTilde = solve_lambda_tilde(sym, g, coeffs.a, lat, N, _residuals=res_lt)
    _check_zero_mean(Lambda, "Lambda")
    _check_zero_mean(LambdaTilde, "LambdaTilde")
    g_tilde, g0 = effective_matrix(g, Lambda, sym, lat)
    if np.linalg.eigvalsh(g0).min() <= 0:
        raise SolverBreakdown("effective matrix is not positive definite")
    V, W = interaction_matrices(g, Lambda, LambdaTilde, sym, lat)
    bD_Lambda = apply_bD(Lambda, sym, lat)
    bD_LambdaTilde = apply_bD(LambdaTilde, sym, lat)
    return CellSolution(
        N=N, Lambda=Lambda, LambdaTilde=LambdaTilde,
        bD_Lambda=bD_Lambda, bD_LambdaTilde=bD_LambdaTilde,
        g_tilde=g_tilde, g0=g0, V=V, W=W,
        residuals={"lambda": res_l, "lambda_tilde": res_lt},
    )


def _check_zero_mean(f: PeriodicField, name: str):
    scale = np.sqrt(np.mean(np.abs(f.samples) ** 2))
    if scale == 0.0:
        return
    mean = np.abs(f.mean()).max()
    if mean > 1e-10 * scale:
        raise SolverBreakdown(f"{name} lost the zero-mean side condition")
