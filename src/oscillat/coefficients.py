"""Periodic coefficient fields, first-order symbols, and the fixture catalog.

Fields are stored as matrix-valued samples on a uniform N^d grid over one
periodicity cell and interpolated trigonometrically, so band-limited catalog
fields are evaluated exactly at arbitrary points.  Scaled evaluation
f^eps(x) = f(x/eps) goes through fractional cell coordinates.
spectral_samples and spectral_coeffs pass between FFT-ordered spectra and
grid samples, padding or truncating: resample and the cell solver use them.
"""

from dataclasses import dataclass
import pathlib

import numpy as np

from .errors import RankDeficientSymbol, UnknownCatalogEntry
from .lattice import Lattice, fft_indices

#: smallest admissible sample eigenvalue for positivity-flagged fields
POSITIVITY_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# first-order symbol


@dataclass(frozen=True)
class Symbol:
    """Constant matrices b_1..b_d of the first-order operator sum b_l D_l.

    alpha0/alpha1 are the uniform spectral bounds of b(theta)* b(theta) over
    unit vectors theta; alpha0 > 0 certifies maximal rank of the symbol.
    """

    m: int
    n: int
    b_mats: tuple
    alpha0: float
    alpha1: float

    @property
    def d(self) -> int:
        return len(self.b_mats)

    def at(self, k):
        """Symbol value b(k) = sum b_l k_l for frequency vectors k (..., d)."""
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape[:-1] + (self.m, self.n), dtype=complex)
        for l, b in enumerate(self.b_mats):
            out += k[..., l, None, None] * b
        return out


def _unit_sphere_sample(d: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of unit vectors, >= 360^min(d-1,2)."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        ang = 2.0 * np.pi * np.arange(360) / 360.0
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # d >= 3: seeded Gaussian directions, deterministic by construction
    rng = np.random.default_rng(360)
    v = rng.standard_normal((360 ** 2, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def symbol_bounds(sym_mats) -> tuple[float, float]:
    """Spectral bounds (alpha0, alpha1) of b(theta)*b(theta) over unit theta.

    Raises RankDeficientSymbol when alpha0 <= 1e-10 * alpha1, i.e. when the
    sampled symbol is (numerically) rank deficient in some direction.
    """
    mats = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in sym_mats]
    d = len(mats)
    m, n = mats[0].shape
    if m < n:
        raise RankDeficientSymbol(f"need m >= n, got m={m}, n={n}")
    thetas = _unit_sphere_sample(d)
    b_theta = np.zeros((len(thetas), m, n), dtype=complex)
    for l, b in enumerate(mats):
        b_theta += thetas[:, l, None, None] * b
    gram = np.einsum("tij,tik->tjk", b_theta.conj(), b_theta)
    eigs = np.linalg.eigvalsh(gram)
    alpha0 = float(eigs[:, 0].min())
    alpha1 = float(eigs[:, -1].max())
    if alpha0 <= 1e-10 * alpha1:
        raise RankDeficientSymbol(
            f"alpha0={alpha0:.3e} too small relative to alpha1={alpha1:.3e}"
        )
    return alpha0, alpha1


def make_symbol(sym_mats) -> Symbol:
    mats = tuple(np.atleast_2d(np.asarray(b, dtype=complex)) for b in sym_mats)
    m, n = mats[0].shape
    for b in mats:
        if b.shape != (m, n):
            raise ValueError("all symbol matrices must share one shape")
    alpha0, alpha1 = symbol_bounds(mats)
    return Symbol(m=m, n=n, b_mats=mats, alpha0=alpha0, alpha1=alpha1)


def gradient_symbol(d: int) -> Symbol:
    """b(D) = D, i.e. b_l = e_l: the scalar gradient symbol (m=d, n=1)."""
    return make_symbol([np.eye(d)[:, l].reshape(d, 1) for l in range(d)])


# ---------------------------------------------------------------------------
# periodic fields


@dataclass(frozen=True)
class PeriodicField:
    """Matrix-valued samples on a uniform N^d grid over one cell.

    samples has shape (N,)*d + (rows, cols); interpolation is trigonometric.
    """

    samples: np.ndarray
    dim: int
    hermitian: bool = False
    positive: bool = False

    @property
    def resolution(self) -> int:
        return self.samples.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.samples.shape[-2:]

    def coeffs(self) -> np.ndarray:
        """True Fourier coefficients in FFT layout."""
        return spectral_coeffs(self.samples, self.dim, self.resolution)

    def mean(self) -> np.ndarray:
        """Cell average (exact for band-limited samples)."""
        return self.samples.mean(axis=tuple(range(self.dim)))

    def validate(self):
        if self.samples.ndim != self.dim + 2:
            raise ValueError("samples must have shape (N,)*d + (rows, cols)")
        N = self.resolution
        if any(self.samples.shape[ax] != N for ax in range(self.dim)):
            raise ValueError("grid must be N^d with one N for every axis")
        if self.hermitian:
            skew = self.samples - np.swapaxes(self.samples, -1, -2).conj()
            scale = max(np.abs(self.samples).max(), 1e-300)
            if np.abs(skew).max() > 1e-12 * scale:
                raise ValueError("field flagged hermitian is not hermitian")
        if self.positive:
            h = 0.5 * (self.samples + np.swapaxes(self.samples, -1, -2).conj())
            if np.linalg.eigvalsh(h).min() < POSITIVITY_FLOOR:
                raise ValueError("field flagged positive has eigenvalue below floor")
        return self


def constant_field(mat, d: int, N: int = 2, **flags) -> PeriodicField:
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    samples = np.broadcast_to(mat, (N,) * d + mat.shape).copy()
    return PeriodicField(samples=samples, dim=d, **flags).validate()


def field_from_function(fn, d: int, N: int, **flags) -> PeriodicField:
    """Sample fn on the fractional grid of a unit cell.

    fn takes d arrays (meshgrid coordinates in [0,1)) and returns samples of
    shape grid + (rows, cols) or grid (scalar case).
    """
    axes = [np.arange(N) / N] * d
    grid = np.meshgrid(*axes, indexing="ij")
    values = np.asarray(fn(*grid), dtype=complex)
    if values.ndim == d:
        values = values[..., None, None]
    return PeriodicField(samples=values, dim=d, **flags).validate()


def resample(f: PeriodicField, M: int) -> PeriodicField:
    """Spectral resampling onto an M^d grid (pad or truncate frequencies)."""
    if M == f.resolution:
        return f
    return PeriodicField(samples=spectral_samples(f.coeffs(), f.dim, M),
                         dim=f.dim, hermitian=f.hermitian, positive=f.positive)


def spectral_samples(c: np.ndarray, d: int, M: int) -> np.ndarray:
    """Samples on the M^d grid of FFT-ordered coefficients c (N,)*d + (...),
    the spectrum padded or truncated to M per axis (_embed)."""
    return np.fft.ifftn(_embed(c, d, M) * M ** d, axes=tuple(range(d)))


def spectral_coeffs(values: np.ndarray, d: int, N: int) -> np.ndarray:
    """FFT-ordered coefficients (N,)*d + (...) of samples on an M^d grid,
    the spectrum truncated or padded to N per axis (_embed)."""
    axes = tuple(range(d))
    return _embed(np.fft.fftn(values, axes=axes) / values.shape[0] ** d, d, N)


def _embed(c, d, M):
    """FFT-ordered coefficients (N,)*d + (...) re-centered to M per axis."""
    if c.shape[0] == M:
        return c
    axes = tuple(range(d))
    c = np.fft.fftshift(c, axes=axes)
    for ax in axes:
        c = _embed_axis(c, ax, M)
    return np.fft.ifftshift(c, axes=axes)


def _embed_axis(c, ax, M):
    """Re-center axis ax of a centered spectrum from its length N to M.  A
    pad splits the unpaired Nyquist row in two, so real fields stay real."""
    N = c.shape[ax]
    at = (slice(None),) * ax
    if M <= N:
        return c[at + (slice(N // 2 - M // 2, N // 2 + M // 2),)]
    lo, hi = M // 2 - N // 2, M // 2 + N // 2
    out = np.zeros(c.shape[:ax] + (M,) + c.shape[ax + 1:], dtype=complex)
    out[at + (slice(lo, hi),)] = c
    out[at + (hi,)] = out[at + (lo,)] = 0.5 * out[at + (lo,)]
    return out


def eval_scaled(f: PeriodicField, lat: Lattice, eps: float, points) -> np.ndarray:
    """Evaluate f(x/eps) at arbitrary points by trigonometric interpolation.

    Exact at grid-aligned points and for band-limited fields everywhere.
    Returns an array of shape (P, rows, cols).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tau = lat.fractional(pts / eps)
    return _interp_fractional(f, tau)


def _interp_fractional(f: PeriodicField, tau: np.ndarray) -> np.ndarray:
    d, N = f.dim, f.resolution
    c = f.coeffs()
    nus = fft_indices(d, N)
    out = c
    # contract grid axes one at a time; axis 0 via BLAS, the rest pointwise
    E0 = np.exp(2j * np.pi * np.outer(tau[:, 0], nus[0]))
    out = np.tensordot(E0, out, axes=(1, 0))  # (P, N..., r, c)
    for ax in range(1, d):
        E = np.exp(2j * np.pi * np.outer(tau[:, ax], nus[ax]))
        out = np.einsum("pk,pk...->p...", E, out)
    return out


def eval_scaled_grid(f: PeriodicField, lat: Lattice, eps: float, axes_pts) -> np.ndarray:
    """Evaluate f(x/eps) on a tensor grid given per-axis coordinates.

    A diagonal lattice basis (every catalog fixture) takes one contraction
    per axis over its distinct phases x/eps mod 1 (16 when h = eps/16),
    indexed back onto its points; other bases evaluate each distinct row
    of fractional coordinates once (1,026 of 49,729 skew-lattice nodes at
    eps 1/14, h = eps/16), indexed back onto the points.
    Returns shape (len(ax_0), ..., len(ax_{d-1}), rows, cols).
    """
    d, N = f.dim, f.resolution
    if not lat.diagonal:
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes_pts,
                                                       indexing="ij")], -1)
        tau, at = np.unique(lat.fractional(pts / eps), axis=0,
                            return_inverse=True)
        return _interp_fractional(f, tau)[at.ravel()].reshape(
            tuple(len(a) for a in axes_pts) + f.shape)
    c = f.coeffs()
    nus = fft_indices(d, N)
    out = c
    for ax in range(d):
        tau = np.mod(np.asarray(axes_pts[ax], dtype=float) / (eps * lat.basis[ax, ax]), 1.0)
        phases, inv = np.unique(tau, return_inverse=True)
        E = np.exp(2j * np.pi * np.outer(phases, nus[ax]))
        out = np.moveaxis(np.tensordot(E, out, axes=(1, ax)), 0, ax)
        out = out.take(inv, axis=ax)
    return out


# ---------------------------------------------------------------------------
# field norms


def sup_opnorm(f: PeriodicField) -> float:
    """max over samples of the matrix spectral norm."""
    s = np.linalg.svd(f.samples, compute_uv=False)
    return float(s[..., 0].max())


def inv_sup_opnorm(f: PeriodicField) -> float:
    """max over samples of |M(x)^-1|, i.e. 1 / min singular value, read as
    1 / min eigenvalue: for hermitian positive definite samples, as every
    g is validated to be, the two agree."""
    return float(1.0 / np.linalg.eigvalsh(f.samples)[..., 0].min())


# ---------------------------------------------------------------------------
# coefficient sets and the catalog


@dataclass(frozen=True)
class CoefficientSet:
    """Full operator data: symbol, g and the lower-order a_j and Q."""

    symbol: Symbol
    g: PeriodicField
    a: tuple = ()
    Q: PeriodicField | None = None

    @property
    def d(self) -> int:
        return self.symbol.d

    def validate(self):
        m, n = self.symbol.m, self.symbol.n
        if self.g.shape != (m, m):
            raise ValueError(f"g must be {m}x{m}, got {self.g.shape}")
        self.g.validate()
        if self.a and len(self.a) != self.d:
            raise ValueError("need one a_j per dimension (or none)")
        for aj in self.a:
            if aj.shape != (n, n):
                raise ValueError(f"a_j must be {n}x{n}, got {aj.shape}")
        if self.Q is not None and self.Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {self.Q.shape}")
        return self


def load_field_csv(path) -> PeriodicField:
    """Read grid samples from CSV: header "d,N,rows,cols", then one grid
    point per line (row-major), re/im interleaved per matrix entry."""
    lines = pathlib.Path(path).read_text().strip().splitlines()
    d, N, rows, cols = (int(v) for v in lines[0].split(","))
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    if data.shape != (N ** d, 2 * rows * cols):
        raise ValueError(
            f"samples file {path}: expected {N ** d} lines of "
            f"{2 * rows * cols} values, got {data.shape}")
    values = data[:, 0::2] + 1j * data[:, 1::2]
    samples = values.reshape((N,) * d + (rows, cols))
    return PeriodicField(samples=samples, dim=d, hermitian=True,
                         positive=True).validate()


#: every catalog entry's parameters and their defaults.  n_samples = 0
#: means 256 samples per axis for d=1 and 64 for d=2; g is a number (times
#: the identity) or an m x m matrix
CATALOG_PARAMS = {
    "const": {"d": 1, "g": [[3.0]], "n_samples": 0},
    "sine1d": {"base": 2.0, "amp": 1.0, "a_amp": 0.0, "q_const": 0.0,
               "q_amp": 0.0, "n_samples": 0},
    "laminate2d": {"base": 2.0, "amp": 1.0, "n_samples": 0},
    "checkerboard-smooth": {"base": 2.0, "amp": 0.5, "n_samples": 0},
    "random-bandlimited": {"d": 1, "seed": 0, "kmax": 4, "base": 2.0,
                           "contrast": 0.9, "n_samples": 0},
}

#: the term amp * s(x, y) a layered 2-D entry adds to base, times I_2
_LAYERS_2D = {
    "laminate2d": lambda amp, x, y: amp * np.sin(2 * np.pi * x),
    "checkerboard-smooth": lambda amp, x, y: (amp * np.sin(2 * np.pi * x)
                                              * np.sin(2 * np.pi * y)),
}


def catalog(name: str, params: dict | None = None) -> CoefficientSet:
    """Build a validated CoefficientSet from the fixture catalog.

    CATALOG_PARAMS lists the entries and their parameters; a parameter with
    a numeric default is cast to the default's type, and an unknown one
    raises ValueError.  Every entry lives on the unit cubic lattice.
    """
    if name not in CATALOG_PARAMS:
        raise UnknownCatalogEntry(name)
    defaults = CATALOG_PARAMS[name]
    unknown = sorted(set(params or {}) - set(defaults))
    if unknown:
        raise ValueError(f"catalog entry {name} has no parameter "
                         f"{', '.join(unknown)}; it takes {', '.join(defaults)}")
    p = {k: type(defaults[k])(v) if isinstance(defaults[k], (int, float))
         else v for k, v in {**defaults, **(params or {})}.items()}
    d = p.get("d", 1 if name == "sine1d" else 2)
    N = p["n_samples"] or (256 if d == 1 else 64)
    base, amp = p.get("base"), p.get("amp")
    if amp is not None and base - abs(amp) <= POSITIVITY_FLOOR:
        raise ValueError(f"{name} needs base > |amp|")
    flags, a, Q = dict(hermitian=True, positive=True), (), None
    if name == "const":
        g_mat = np.atleast_2d(np.asarray(p["g"], dtype=complex))
        if g_mat.shape == (1, 1) and d > 1:
            g_mat = g_mat[0, 0] * np.eye(d)
        g = constant_field(g_mat, d, N, **flags)
    elif name == "sine1d":
        g = field_from_function(lambda x: base + amp * np.sin(2 * np.pi * x),
                                1, N, **flags)
        if p["a_amp"]:
            a = (field_from_function(
                lambda x: p["a_amp"] * np.sin(2 * np.pi * x), 1, N),)
        if p["q_const"] or p["q_amp"]:
            Q = field_from_function(
                lambda x: p["q_const"] + p["q_amp"] * np.cos(2 * np.pi * x),
                1, N, hermitian=True)
    elif name in _LAYERS_2D:
        g = field_from_function(
            lambda x, y: (base + _LAYERS_2D[name](amp, x, y))[..., None, None]
            * np.eye(2), 2, N, **flags)
    else:
        # random-bandlimited: base (1 + contrast s) I_d, max |s| = 1 along x_1
        if d not in (1, 2):
            raise UnknownCatalogEntry(
                f"random-bandlimited supports d in {{1,2}}, got {d}")
        rng, x = np.random.default_rng(p["seed"]), np.arange(N) / N
        s = np.zeros(N)
        for k in range(1, p["kmax"] + 1):
            ak, bk = rng.standard_normal(2) / k
            s += ak * np.cos(2 * np.pi * k * x) + bk * np.sin(2 * np.pi * k * x)
        peak = np.abs(s).max()
        profile = base * (1.0 + p["contrast"] * (s / peak if peak > 0 else s))
        samples = profile.reshape((N,) + (1,) * (d + 1)) * np.eye(d)
        g = PeriodicField(np.broadcast_to(samples, (N,) * d + (d, d))
                          .astype(complex), dim=d, **flags).validate()
    return CoefficientSet(symbol=gradient_symbol(d), g=g, a=a, Q=Q).validate()
