"""Reference implementations the tests compare the library with, and small
helpers only tests use.  Each is written for clarity, not speed, and shares
no code with the map it checks."""

import numpy as np

from oscillat.evolution import leapfrog_oracle


def steklov_tensor_rule(u, lat, eps, spacing, periodic):
    """Reference Steklov average: the 8^d-point tensor Gauss rule in one
    pass, with multilinear interpolation at every shifted point (grid layout
    (..., M_1, .., M_d, n)).  Samples outside the grid are zero, or wrap
    around if periodic."""
    d = lat.dim
    xi, w = np.polynomial.legendre.leggauss(8)
    xi, w = xi / 2.0, w / 2.0
    spacing = np.asarray(spacing, dtype=float)
    grid_axes = tuple(range(-d - 1, -1))
    sizes = u.shape[-d - 1:-1]
    out = np.zeros(u.shape, dtype=complex)
    for idx in np.ndindex(*(8,) * d):
        tau, wq = xi[list(idx)], np.prod(w[list(idx)])
        shift = -eps * (tau @ lat.basis) / spacing
        base = np.floor(shift).astype(int)
        frac = shift - base
        for corner in np.ndindex(*(2,) * d):
            cw = wq * np.prod(np.where(np.array(corner) == 1, frac, 1.0 - frac))
            off = base + np.array(corner)
            if periodic:
                out += cw * np.roll(u, tuple(-off), axis=grid_axes)
                continue
            ks = [max(M - abs(o), 0) for M, o in zip(sizes, off)]
            src = [slice(max(o, 0), max(o, 0) + k) for o, k in zip(off, ks)]
            dst = [slice(max(-o, 0), max(-o, 0) + k) for o, k in zip(off, ks)]
            out[(..., *dst, slice(None))] += cw * u[(..., *src, slice(None))]
    return out


def beyond_reach(mesh, reach):
    """An index into grids (..., M_1, .., M_d, n) that keeps the nodes
    farther than reach + h from the boundary, where a smoothing of reach
    eps r1 reads interior nodes only."""
    return (..., *np.ix_(*[(x > reach + h) & (x < L - reach - h) for x, L, h
                           in zip(mesh.axes(), mesh.box, mesh.h)]), slice(None))


def leapfrog_energy_drift(op, phi, psi, t: float, dt: float,
                          n_checks: int = 20) -> float:
    """Max relative drift of |v|^2 + u*Au along an unforced leapfrog run."""
    def energy(u, v):
        return float(np.vdot(v, v).real + np.vdot(u, op.matrix @ u).real)
    u, v = np.array(phi, dtype=float), np.array(psi, dtype=float)
    e0 = energy(u, v)
    worst, t_prev = 0.0, 0.0
    for tk in np.linspace(t / n_checks, t, n_checks):
        u, v = leapfrog_oracle(op, u, v, None, tk - t_prev, dt,
                               return_velocity=True)
        worst = max(worst, abs(energy(u, v) - e0) / abs(e0))
        t_prev = tk
    return worst


def by_tag(report, tag: str):
    """The estimate of a RateReport with this tag."""
    for e in report.estimates:
        if e.tag == tag:
            return e
    raise KeyError(tag)
