"""Reference implementations the tests compare the library with, and small
helpers only tests use.  Each is written for clarity, not speed, and shares
no code with the map it checks."""

import functools
import itertools

import numpy as np
import scipy.sparse as sp

from oscillat.coefficients import eval_scaled_grid
from oscillat.dirichlet import (
    DiscreteDirichletOperator,
    _grad_tensors,
    read_bands,
    smallest_eigenvalue,
)
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


# ---------------------------------------------------------------------------
# operator assembly


def coo_principal_form(mesh, sym, g_cells):
    """Reference principal form: every cell's Q1 element scattered over all
    nodes, boundary included, as COO summed by the CSR conversion, then cut
    to the interior dofs."""
    d, n = mesh.dim, sym.n
    g_cells = np.broadcast_to(g_cells, tuple(M + 1 for M in mesh.m_int)
                              + np.shape(g_cells)[-2:])
    S = _grad_tensors(mesh)
    bmat = np.stack([np.asarray(b, dtype=complex) for b in sym.b_mats])
    cells = g_cells.reshape(-1, sym.m, sym.m)
    B = sum(bmat.conj()[None, :, None, i, :, None]
            * cells[:, i, j, None, None, None, None] * bmat[None, None, :, j, None, :]
            for i, j in np.ndindex(sym.m, sym.m))
    elem = sum(S[a, b, None, :, :, None, None] * B[:, a, b, None, None]
               for a, b in np.ndindex(d, d))
    full_shape = tuple(M + 2 for M in mesh.m_int)
    cell_grids = np.meshgrid(*[np.arange(M + 1) for M in mesh.m_int],
                             indexing="ij")
    node_of = [np.ravel_multi_index([cg + o for cg, o in zip(cell_grids, off)],
                                    full_shape).ravel()
               for off in np.ndindex(*(2,) * d)]
    comp_i, comp_j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rows, cols, data = [], [], []
    for q, p in np.ndindex(len(node_of), len(node_of)):
        rows.append((node_of[q][:, None, None] * n + comp_i).ravel())
        cols.append((node_of[p][:, None, None] * n + comp_j).ravel())
        data.append(elem[:, q, p].reshape(-1))
    size = int(np.prod(full_shape)) * n
    form = sp.coo_matrix((np.concatenate(data),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size)).tocsr()
    interior = np.meshgrid(*[np.arange(1, M + 1) for M in mesh.m_int],
                           indexing="ij")
    nodes = np.ravel_multi_index(interior, full_shape).ravel()
    dofs = (nodes[:, None] * n + np.arange(n)).ravel()
    return form[dofs][:, dofs]


def blocks_csr(blocks, mesh):
    """Neighbour blocks [k, r, s, i] as CSR, every block whose neighbour
    i + o_k is an interior node stored, zeros too, summed entry by entry."""
    d, n = mesh.dim, blocks.shape[1]
    size = mesh.n_nodes * n
    nodes = np.arange(mesh.n_nodes).reshape(mesh.m_int)
    rows, cols, data = [], [], []
    for k, off in enumerate(itertools.product((-1, 0, 1), repeat=d)):
        src = tuple(slice(max(0, -o), M - max(0, o))
                    for o, M in zip(off, mesh.m_int))
        dst = tuple(slice(max(0, o), M - max(0, -o))
                    for o, M in zip(off, mesh.m_int))
        for r, s in np.ndindex(n, n):
            rows.append(nodes[src].ravel() * n + r)
            cols.append(nodes[dst].ravel() * n + s)
            data.append(blocks[(k, r, s) + src].ravel())
    return sp.csr_matrix((np.concatenate(data),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(size, size))


def _centered_diff(mesh, axis):
    """Sparse -i times the centered difference along axis."""
    return functools.reduce(lambda a, b: sp.kron(a, b, format="csr"), [
        sp.diags([np.ones(M - 1), -np.ones(M - 1)], [1, -1], format="csr")
        * (-1j / (2.0 * mesh.h[k])) if k == axis else sp.identity(M, format="csr")
        for k, M in enumerate(mesh.m_int)])


def _block_diag_field(values):
    """Sparse block-diagonal matrix from per-node (n x n) blocks."""
    idx = np.arange(values.shape[0] * values.shape[1]).reshape(values.shape[:2])
    rows, cols = np.broadcast_arrays(idx[:, :, None], idx[:, None, :])
    return sp.csr_matrix((values.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(idx.size, idx.size))


def _csr_symmetrized(form, mesh):
    """(A + A^H) / 2 of A = form / sigma, rebuilt in CSR, real when no
    imaginary part is left: the operator matrix before one writer did it on
    the neighbour blocks."""
    op_mat = (form / mesh.sigma).tocsr()
    op_mat = (op_mat + op_mat.conj().T) * 0.5
    if np.abs(op_mat.imag.data).max(initial=0.0) == 0.0:
        op_mat = op_mat.real
    return op_mat


def csr_symmetrized_b_eps(mesh, coeffs, eps, lat, principal):
    """Reference matrix of assemble_b_eps: the principal form
    principal(mesh, symbol, g_cells) as CSR, plus sparse products for the
    first-order terms and a block diagonal for Q, then _csr_symmetrized."""
    sym, n = coeffs.symbol, coeffs.symbol.n
    form = principal(mesh, sym, eval_scaled_grid(coeffs.g, lat, eps,
                                                 mesh.midpoint_axes()))
    sigma, node_axes = mesh.sigma, mesh.axes()
    for j, aj in enumerate(coeffs.a):
        vals = eval_scaled_grid(aj, lat, eps, node_axes).reshape(-1, n, n)
        X = _block_diag_field(vals) @ sp.kron(
            _centered_diff(mesh, j), sp.identity(n), format="csr")
        form = form + sigma * (X + X.conj().T)
    if coeffs.Q is not None:
        vals = eval_scaled_grid(coeffs.Q, lat, eps, node_axes).reshape(-1, n, n)
        form = form + sigma * _block_diag_field(vals)
    return _csr_symmetrized(form, mesh)


def csr_symmetrized_b0(mesh, cell, coeffs, principal):
    """Reference matrix of assemble_b0, as csr_symmetrized_b_eps."""
    sym = coeffs.symbol
    form = principal(mesh, sym, cell.g0)
    sigma = mesh.sigma
    eye_nodes = sp.identity(mesh.n_nodes, format="csr")
    if np.abs(cell.V).max() > 0:
        BD = sum(sp.kron(_centered_diff(mesh, l), b, format="csr")
                 for l, b in enumerate(sym.b_mats))
        Vhat = sp.kron(eye_nodes, cell.V, format="csr")
        form = form - sigma * (BD.conj().T @ Vhat + Vhat.conj().T @ BD)
    for j, aj in enumerate(coeffs.a):
        cj = aj.mean()
        cj = cj + cj.conj().T
        if np.abs(cj).max() > 0:
            X = sp.kron(_centered_diff(mesh, j), cj, format="csr")
            form = form + sigma * 0.5 * (X + X.conj().T)
    zero_order = -np.asarray(cell.W, dtype=complex)
    if coeffs.Q is not None:
        zero_order = zero_order + coeffs.Q.mean()
    if np.abs(zero_order).max() > 0:
        form = form + sigma * sp.kron(eye_nodes, zero_order, format="csr")
    return _csr_symmetrized(form, mesh)


def raw_operator(matrix, mesh, eps_tag):
    """A DiscreteDirichletOperator of a given hermitian matrix, probed as
    assembly probes its own."""
    matrix = sp.csr_matrix(matrix)
    return DiscreteDirichletOperator(
        matrix, mesh, eps_tag,
        smallest_eigenvalue(matrix, read_bands(matrix, mesh.m_int)))
