"""Periodic coefficient fields, first-order symbols, and the fixture catalog.

Fields are stored as matrix-valued samples on a uniform N^d grid over one
periodicity cell and interpolated trigonometrically, so band-limited catalog
fields are evaluated exactly at arbitrary points.  Scaled evaluation
f^eps(x) = f(x/eps) goes through fractional cell coordinates.
"""

from dataclasses import dataclass

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
        axes = tuple(range(self.dim))
        n_grid = self.resolution ** self.dim
        return np.fft.fftn(self.samples, axes=axes) / n_grid

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
    N = f.resolution
    if M == N:
        return f
    d = f.dim
    axes = tuple(range(d))
    c = np.fft.fftshift(f.coeffs(), axes=axes)
    for ax in axes:
        c = _embed_axis(c, ax, N, M)
    c = np.fft.ifftshift(c, axes=axes)
    samples = np.fft.ifftn(c * M ** d, axes=axes)
    return PeriodicField(samples=samples, dim=d, hermitian=f.hermitian,
                         positive=f.positive)


def _embed_axis(c, ax, N, M):
    """Re-center one axis of a centered spectrum from length N to M."""
    shape = list(c.shape)
    shape[ax] = M
    if M > N:
        out = np.zeros(shape, dtype=complex)
        sl_out = [slice(None)] * c.ndim
        sl_out[ax] = slice(M // 2 - N // 2, M // 2 + N // 2)
        out[tuple(sl_out)] = c
        # split the unpaired Nyquist row so real fields stay real
        lo = [slice(None)] * c.ndim
        lo[ax] = M // 2 - N // 2
        hi = [slice(None)] * c.ndim
        hi[ax] = M // 2 + N // 2
        out[tuple(hi)] = 0.5 * out[tuple(lo)]
        out[tuple(lo)] = out[tuple(hi)]
        return out
    sl = [slice(None)] * c.ndim
    sl[ax] = slice(N // 2 - M // 2, N // 2 + M // 2)
    return c[tuple(sl)]


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
    indexed back onto its points; other bases evaluate per point.
    Returns shape (len(ax_0), ..., len(ax_{d-1}), rows, cols).
    """
    d, N = f.dim, f.resolution
    if not lat.diagonal:
        grids = np.meshgrid(*axes_pts, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        vals = eval_scaled(f, lat, eps, pts)
        return vals.reshape(tuple(len(a) for a in axes_pts) + f.shape)
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
    """max over samples of |M(x)^-1|, i.e. 1 / min singular value."""
    s = np.linalg.svd(f.samples, compute_uv=False)
    return float(1.0 / s[..., -1].min())


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


def _default_samples(d: int) -> int:
    return 256 if d == 1 else 64


def _bandlimited_profile(rng, kmax: int, base: float, contrast: float, N: int):
    """Random positive 1d profile base*(1 + contrast*s/max|s|), s band-limited."""
    x = np.arange(N) / N
    s = np.zeros(N)
    for k in range(1, kmax + 1):
        ak, bk = rng.standard_normal(2) / k
        s += ak * np.cos(2 * np.pi * k * x) + bk * np.sin(2 * np.pi * k * x)
    peak = np.abs(s).max()
    if peak > 0:
        s = s / peak
    return base * (1.0 + contrast * s)


def load_field_csv(path) -> PeriodicField:
    """Read grid samples from CSV: header "d,N,rows,cols", then one grid
    point per line (row-major), re/im interleaved per matrix entry."""
    import pathlib

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


def catalog(name: str, params: dict | None = None) -> CoefficientSet:
    """Build a validated CoefficientSet from the fixture catalog.

    Entries: const, sine1d, laminate2d, checkerboard-smooth,
    random-bandlimited.  Every entry lives on the unit cubic lattice.
    """
    p = dict(params or {})

    if name == "const":
        d = int(p.get("d", 1))
        value = p.get("g", 3.0)
        N = int(p.get("n_samples", _default_samples(d)))
        sym = make_symbol([[[1.0]]]) if d == 1 else gradient_symbol(d)
        g_mat = np.atleast_2d(np.asarray(value, dtype=complex))
        if g_mat.shape == (1, 1) and sym.m > 1:
            g_mat = g_mat[0, 0] * np.eye(sym.m)
        g = constant_field(g_mat, d, N, hermitian=True, positive=True)
        return CoefficientSet(symbol=sym, g=g).validate()

    if name == "sine1d":
        base = float(p.get("base", 2.0))
        amp = float(p.get("amp", 1.0))
        N = int(p.get("n_samples", 256))
        if base - abs(amp) <= POSITIVITY_FLOOR:
            raise ValueError("sine1d needs base > |amp|")
        sym = make_symbol([[[1.0]]])
        g = field_from_function(lambda x: base + amp * np.sin(2 * np.pi * x),
                                1, N, hermitian=True, positive=True)
        a_fields = ()
        a_amp = float(p.get("a_amp", 0.0))
        if a_amp:
            a_fields = (field_from_function(
                lambda x: a_amp * np.sin(2 * np.pi * x), 1, N),)
        Q = None
        q_const = float(p.get("q_const", 0.0))
        q_amp = float(p.get("q_amp", 0.0))
        if q_const or q_amp:
            Q = field_from_function(
                lambda x: q_const + q_amp * np.cos(2 * np.pi * x),
                1, N, hermitian=True)
        return CoefficientSet(symbol=sym, g=g, a=a_fields, Q=Q).validate()

    if name == "laminate2d":
        base = float(p.get("base", 2.0))
        amp = float(p.get("amp", 1.0))
        N = int(p.get("n_samples", 64))
        if base - abs(amp) <= POSITIVITY_FLOOR:
            raise ValueError("laminate2d needs base > |amp|")
        sym = gradient_symbol(2)
        g = field_from_function(
            lambda x, y: (base + amp * np.sin(2 * np.pi * x))[..., None, None]
            * np.eye(2),
            2, N, hermitian=True, positive=True)
        return CoefficientSet(symbol=sym, g=g).validate()

    if name == "checkerboard-smooth":
        base = float(p.get("base", 2.0))
        amp = float(p.get("amp", 0.5))
        N = int(p.get("n_samples", 64))
        if base - abs(amp) <= POSITIVITY_FLOOR:
            raise ValueError("checkerboard-smooth needs base > |amp|")
        sym = gradient_symbol(2)
        g = field_from_function(
            lambda x, y: (base + amp * np.sin(2 * np.pi * x)
                          * np.sin(2 * np.pi * y))[..., None, None] * np.eye(2),
            2, N, hermitian=True, positive=True)
        return CoefficientSet(symbol=sym, g=g).validate()

    if name == "random-bandlimited":
        d = int(p.get("d", 1))
        seed = int(p.get("seed", 0))
        kmax = int(p.get("kmax", 4))
        base = float(p.get("base", 2.0))
        contrast = float(p.get("contrast", 0.9))
        N = int(p.get("n_samples", _default_samples(d)))
        rng = np.random.default_rng(seed)
        profile = _bandlimited_profile(rng, kmax, base, contrast, N)
        if d == 1:
            sym = make_symbol([[[1.0]]])
            g = PeriodicField(profile[:, None, None].astype(complex), dim=1,
                              hermitian=True, positive=True).validate()
            return CoefficientSet(symbol=sym, g=g).validate()
        if d == 2:
            sym = gradient_symbol(2)
            samples = profile[:, None, None, None] * np.eye(2)
            samples = np.broadcast_to(samples, (N, N, 2, 2)).astype(complex)
            g = PeriodicField(samples.copy(), dim=2, hermitian=True,
                              positive=True).validate()
            return CoefficientSet(symbol=sym, g=g).validate()
        raise UnknownCatalogEntry(f"random-bandlimited supports d in {{1,2}}, got {d}")

    raise UnknownCatalogEntry(name)
