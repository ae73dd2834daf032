"""Periodic cell problems, effective matrices, and interaction averages.

The two cell problems are discretized by a Fourier--Galerkin method:
differentiation is exact in frequency space, multiplication by the
coefficient happens pointwise on a zero-padded physical grid (3/2-style
dealiasing; coefficients.spectral_samples pads a spectrum onto it and
spectral_coeffs truncates back), and the truncated systems are solved by
preconditioned conjugate gradients on the zero-mean subspace.  For
band-limited coefficients the Galerkin matrices are exact, so cell-stage
error decays spectrally and stays far below the homogenization rates
measured downstream.

solve_cell is one pass over one truncated operator: it solves the m columns
of Λ and the n columns of Λ̃ on it, applies b(D) once to each, and forms
g̃, g⁰, V and W on the operator's dealiased grid.
"""

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import SolverBreakdown
from .lattice import Lattice, fft_frequency_grid
from .coefficients import (PeriodicField, Symbol, resample, spectral_coeffs,
                           spectral_samples, sup_opnorm)

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
    return PeriodicField(samples=spectral_samples(c, d, N), dim=d)


def _dealias_grid(N: int, n_g: int) -> int:
    """Physical grid size keeping products with the coefficient alias-free."""
    M = max(3 * N // 2, N + n_g // 2)
    return M + (M % 2)


class _CellOperator:
    """Truncated operator X -> P_K b(D)* g b(D) X on zero-mean coefficients.

    Coefficient arrays are FFT-ordered with shape (N,)*d + (n,).  The
    modes in `pinned` stay zero throughout: frequency zero, and index N/2
    on any axis, whose frequency -N/2 has no partner +N/2, so the kept
    band is symmetric and real problems keep their conjugation symmetry.
    It builds the right-hand sides of both cell problems and solves them.
    """

    def __init__(self, sym: Symbol, g: PeriodicField, lat: Lattice, N: int):
        if N < 8 or N % 2:
            raise ValueError("cell resolution must be even and >= 8")
        self.sym = sym
        self.N = N
        self.d = sym.d
        self.M = _dealias_grid(N, g.resolution)
        self.k = fft_frequency_grid(lat, N)                   # (grid, d)
        self.bk = sym.at(self.k)                              # (grid, m, n)
        self.bkH = np.swapaxes(self.bk, -1, -2).conj()        # (grid, n, m)
        i = np.indices((N,) * self.d)
        self.pinned = (i == N // 2).any(axis=0) | (i == 0).all(axis=0)
        self.g_pad = resample(g, self.M).samples              # (Grid, m, m)
        self.g_trunc = resample(g, N)                         # field at N
        # mean-coefficient preconditioner: pinv of b(k)* mean(g) b(k)
        gram = np.einsum("...nm,mk,...kj->...nj", self.bkH, g.mean(), self.bk)
        self.precon = np.zeros_like(gram)
        self.precon[~self.pinned] = np.linalg.inv(gram[~self.pinned])

    def apply(self, x):
        y = np.einsum("...mn,...n->...m", self.bk, x)
        y_phys = spectral_samples(y, self.d, self.M)
        z_phys = np.einsum("...ij,...j->...i", self.g_pad, y_phys)
        z = spectral_coeffs(z_phys, self.d, self.N)
        out = np.einsum("...nm,...m->...n", self.bkH, z)
        out[self.pinned] = 0.0
        return out

    def apply_precon(self, r):
        return np.einsum("...ij,...j->...i", self.precon, r)

    def rhs_lambda(self):
        """The m right-hand sides -b(D)* g 1_m of Λ, one per column of g."""
        rhs = -np.einsum("...nm,...mc->...nc", self.bkH, self.g_trunc.coeffs())
        rhs[self.pinned] = 0.0
        return [rhs[..., c] for c in range(self.sym.m)]

    def rhs_lambda_tilde(self, a):
        """The n right-hand sides -sum_j D_j a_j* of Λ̃ (zero for no a)."""
        d, n, N = self.d, self.sym.n, self.N
        rhs = np.zeros((N,) * d + (n, n), dtype=complex)
        for j, aj in enumerate(a):
            ajH = PeriodicField(np.swapaxes(aj.samples, -1, -2).conj(), dim=d)
            rhs -= self.k[..., j, None, None] * resample(ajH, N).coeffs()
        rhs[self.pinned] = 0.0
        return [rhs[..., :, c] for c in range(n)]

    def solve(self, rhs_cols):
        """One PCG solve per column, stacked into an (n, cols) field;
        returns it with the relative residual of each column."""
        solved = [_pcg(self, rhs, 10 * self.N ** self.d, CG_TOL)
                  for rhs in rhs_cols]
        c = np.stack([x for x, _ in solved], axis=-1)  # (grid, n, cols)
        return (PeriodicField(samples=spectral_samples(c, self.d, self.N),
                              dim=self.d),
                [res for _, res in solved])


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


# ---------------------------------------------------------------------------
# cell problems


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
    """Run both cell problems on one truncated operator and collect every
    effective quantity.

    g̃ = g (b(D)Λ + 1_m) and its hermitized cell mean g⁰, and the averages
    V = <(b(D)Λ)* g b(D)Λ̃> (m x n) and W = <(b(D)Λ̃)* g b(D)Λ̃> (n x n),
    are formed on the operator's dealiased grid.

    When every b_l and g are exactly real, Λ = iΦ with Φ real, so Λ is
    projected onto i Im Λ before anything reads it, as assembly keeps the
    hermitian part of an operator.  That drops CG rounding (about 1e-17)
    and lets dirichlet.Corrector run in real arithmetic.
    """
    sym, g = coeffs.symbol, coeffs.g
    op = _CellOperator(sym, g, lat, N)
    Lambda, res_l = op.solve(op.rhs_lambda())
    if not (g.samples.imag.any() or any(b.imag.any() for b in sym.b_mats)):
        Lambda = PeriodicField(1j * Lambda.samples.imag, dim=Lambda.dim)
    LambdaTilde, res_lt = op.solve(op.rhs_lambda_tilde(coeffs.a))
    _check_zero_mean(Lambda, "Lambda")
    _check_zero_mean(LambdaTilde, "LambdaTilde")
    bD_Lambda = apply_bD(Lambda, sym, lat)
    bD_LambdaTilde = apply_bD(LambdaTilde, sym, lat)
    bdl, bdlt = (resample(f, op.M).samples for f in (bD_Lambda, bD_LambdaTilde))
    grid_axes = tuple(range(op.d))
    g_tilde = np.einsum("...ij,...jk->...ik", op.g_pad, bdl + np.eye(sym.m))
    g0_raw = g_tilde.mean(axis=grid_axes)
    g0 = 0.5 * (g0_raw + g0_raw.conj().T)
    skew = np.linalg.norm(g0_raw - g0_raw.conj().T)
    if skew > 1e-8 * max(np.linalg.norm(g0), 1e-300):
        warnings.warn(f"effective matrix has skew part {skew:.3e}; hermitized")
    if np.linalg.eigvalsh(g0).min() <= 0:
        raise SolverBreakdown("effective matrix is not positive definite")
    V, W = (np.einsum("...ji,...jk,...kl->...il", f.conj(), op.g_pad,
                      bdlt).mean(axis=grid_axes) for f in (bdl, bdlt))
    W = 0.5 * (W + W.conj().T)
    w_eigs = np.linalg.eigvalsh(W)
    if w_eigs.min() < -1e-10 * max(np.abs(w_eigs).max(), 1e-300):
        raise SolverBreakdown("Gram average W has a significantly negative eigenvalue")
    return CellSolution(
        N=N, Lambda=Lambda, LambdaTilde=LambdaTilde,
        bD_Lambda=bD_Lambda, bD_LambdaTilde=bD_LambdaTilde,
        g_tilde=PeriodicField(samples=g_tilde, dim=op.d), g0=g0, V=V, W=W,
        residuals={"lambda": res_l, "lambda_tilde": res_lt},
    )


def _check_zero_mean(f: PeriodicField, name: str):
    scale = np.sqrt(np.mean(np.abs(f.samples) ** 2))
    if scale > 0.0 and np.abs(f.mean()).max() > 1e-10 * scale:
        raise SolverBreakdown(f"{name} lost the zero-mean side condition")
