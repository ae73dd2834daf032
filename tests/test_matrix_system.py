"""A genuinely matrix-valued system (n = m = 2) with complex lower-order
terms, plus a 2d end-to-end pass: exercises the block assembly, the
complex-hermitian eigenpath, and the corrector machinery beyond the
scalar fixtures."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from oscillat.lattice import build_lattice, unit_lattice
from oscillat.coefficients import (
    eval_scaled_grid,
    CoefficientSet,
    PeriodicField,
    make_symbol,
    catalog,
    field_from_function,
)
from oscillat.cell import solve_cell, voigt_reuss
from oscillat.dirichlet import (
    make_mesh,
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    choose_lambda,
    build_extension,
    extend,
    smooth,
    Corrector,
    resolvent,
    l2_norm,
    h1_norm,
    coercive_margin,
    smallest_eigenvalue,
)
from oscillat.evolution import (
    spectral_decompose,
    op_cosine,
    op_sine_scaled,
    op_inv_sqrt,
    solve_ibvp,
    leapfrog_oracle,
    flux,
    flux_approx,
)
from oracles import (bD_matrix, first_order_approx, read_bands, solve_lambda,
                     steklov_tensor_rule, synthesized_du_dt)

LAT1 = unit_lattice(1)
LAT2 = unit_lattice(2)


def matrix_system(n_samples=128, with_lower_order=True):
    """d=1 system with 2x2 hermitian positive g and complex a_1, Q."""
    sym = make_symbol([np.eye(2)])  # b(D) = D on C^2, m = n = 2
    x = np.arange(n_samples) / n_samples
    g = np.zeros((n_samples, 2, 2), dtype=complex)
    g[:, 0, 0] = 2.0 + np.sin(2 * np.pi * x)
    g[:, 1, 1] = 3.0 + np.cos(2 * np.pi * x)
    off = 0.3 * np.cos(2 * np.pi * x) + 0.2j * np.sin(4 * np.pi * x)
    g[:, 0, 1] = off
    g[:, 1, 0] = off.conj()
    g_field = PeriodicField(g, dim=1, hermitian=True, positive=True).validate()
    a_fields = ()
    Q = None
    if with_lower_order:
        a = np.zeros((n_samples, 2, 2), dtype=complex)
        a[:, 0, 1] = 0.2 * np.sin(2 * np.pi * x)
        a[:, 1, 0] = 0.1j * np.cos(2 * np.pi * x)
        a_fields = (PeriodicField(a, dim=1),)
        q = np.zeros((n_samples, 2, 2), dtype=complex)
        q[:, 0, 0] = 0.4 * np.cos(2 * np.pi * x)
        q[:, 1, 1] = -0.3
        Q = PeriodicField(q, dim=1, hermitian=True).validate()
    return CoefficientSet(symbol=sym, g=g_field, a=a_fields, Q=Q).validate()


def shifted_operators(mesh, cs, sol, eps, lat):
    """Both operators at eps, shifted by the one lam their probes choose."""
    ops = [assemble_b_eps(mesh, cs, eps, lat), assemble_b0(mesh, sol, cs)]
    lam = choose_lambda(ops, cs)
    return [op.shifted(lam) for op in ops]


def test_matrix_cell_solution_invariants():
    cs = matrix_system()
    sol = solve_cell(cs, LAT1, 128)
    # zero means
    for f in (sol.Lambda, sol.LambdaTilde):
        scale = np.sqrt(np.mean(np.abs(f.samples) ** 2))
        assert np.abs(f.mean()).max() <= 1e-10 * max(scale, 1e-30)
    # residual contract
    assert all(r <= 1e-10 for r in sol.residuals["lambda"])
    assert all(r <= 1e-10 for r in sol.residuals["lambda_tilde"])
    # g0 hermitian positive, W hermitian PSD
    assert np.abs(sol.g0 - sol.g0.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(sol.g0).min() > 0
    w_eigs = np.linalg.eigvalsh(sol.W)
    assert w_eigs.min() >= -1e-10 * max(np.abs(w_eigs).max(), 1e-30)


def test_matrix_effective_equals_harmonic_mean():
    # m = n forces g0 = (cell mean of g^-1)^-1; fine quadrature oracle
    cs = matrix_system(n_samples=256, with_lower_order=False)
    sol = solve_cell(cs, LAT1, 256)
    g_inv_mean = np.linalg.inv(cs.g.samples).mean(axis=0)
    g_lower = np.linalg.inv(g_inv_mean)
    assert np.abs(sol.g0 - g_lower).max() <= 1e-8 * np.abs(g_lower).max()
    vr = voigt_reuss(cs.g, sol.g0)
    assert vr.lower_ok and vr.upper_ok
    assert abs(vr.lower_margin) < 1e-8


def test_matrix_assembly_and_resolvent():
    cs = matrix_system()
    sol = solve_cell(cs, LAT1, 128)
    eps = 0.125
    mesh = mesh_for([1.0], eps / 16)
    op_eps, op_0 = shifted_operators(mesh, cs, sol, eps, LAT1)
    for op in (op_eps, op_0):
        assert op.size == 2 * mesh.n_nodes
        assert np.abs((op.matrix - op.matrix.conj().T).toarray()).max() < 1e-12
        assert op.smallest_eig > 0
    rng = np.random.default_rng(0)
    f = rng.standard_normal(op_eps.size) + 1j * rng.standard_normal(op_eps.size)
    u = resolvent(op_eps, -1.0, f)
    res = op_eps.matrix @ u + u - f
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(f)
    # resolvent error between the two operators is small at this scale
    u0 = resolvent(op_0, -1.0, f)
    assert l2_norm(mesh, u - u0) < 0.2 * l2_norm(mesh, f)


def test_matrix_evolution_and_corrector():
    cs = matrix_system()
    sol = solve_cell(cs, LAT1, 128)
    eps = 0.125
    mesh = mesh_for([1.0], eps / 16)
    op_eps, op_0 = shifted_operators(mesh, cs, sol, eps, LAT1)
    eb_eps = spectral_decompose(op_eps)
    eb_0 = spectral_decompose(op_0)
    assert eb_eps.eigenvectors.dtype.kind == "c"  # complex block operator

    rng = np.random.default_rng(1)
    psi = op_0.solve_shifted(0.0, op_0.solve_shifted(
        0.0, rng.standard_normal(op_0.size)))
    psi /= l2_norm(mesh, psi)
    phi = np.zeros_like(psi)
    u_eps = solve_ibvp(eb_eps, phi, psi, None, [0.5, 1.0])
    assert np.abs(u_eps.energy / u_eps.energy[0] - 1.0).max() <= 1e-8

    dt = 1e-3 * 1.9 / np.sqrt(op_eps.norm1())
    u_lf = leapfrog_oracle(op_eps, phi, psi, None, 1.0, dt)
    rel = l2_norm(mesh, u_lf - u_eps.u[1]) / l2_norm(mesh, u_eps.u[1])
    assert rel <= 1e-4

    ext = build_extension(mesh, 2 * LAT1.r1 * eps)
    u_0 = solve_ibvp(eb_0, phi, psi, None, [0.5, 1.0])
    v_eps = first_order_approx(u_0.u, sol, eps, True, cs.symbol, ext, LAT1)
    assert v_eps.shape == u_0.u.shape
    # the corrected approximation beats the bare effective solution in H1
    h1_bare = h1_norm(mesh, u_eps.u[1] - u_0.u[1], 2)
    h1_corr = h1_norm(mesh, u_eps.u[1] - v_eps[1], 2)
    assert h1_corr < h1_bare
    p = flux(u_eps.u, cs, eps, ext, LAT1)
    pa = flux_approx(u_0.u, sol, eps, True, cs, ext, LAT1)
    assert p.shape == pa.shape == (2, mesh.n_nodes, 2)


def test_2d_corrector_and_single_case_errors():
    # full 2d pass at one eps: laminate fixture, both operators, corrector,
    # flux; errors must be small and the corrector must improve H1
    cs = catalog("laminate2d")
    sol = solve_cell(cs, LAT2, 64)
    eps = 0.25
    mesh = mesh_for([1.0, 1.0], eps / 16)
    op_eps, op_0 = shifted_operators(mesh, cs, sol, eps, LAT2)
    eb_eps = spectral_decompose(op_eps)
    eb_0 = spectral_decompose(op_0)
    x, y = np.meshgrid(*mesh.axes(), indexing="ij")
    raw = (np.sin(np.pi * x) * np.sin(np.pi * y)).reshape(-1)
    psi = op_0.solve_shifted(0.0, op_0.solve_shifted(0.0, raw))
    psi /= l2_norm(mesh, psi)
    phi = np.zeros_like(psi)
    u_eps = solve_ibvp(eb_eps, phi, psi, None, [1.0])
    u_0 = solve_ibvp(eb_0, phi, psi, None, [1.0])
    err_l2 = l2_norm(mesh, u_eps.u[0] - u_0.u[0])
    assert err_l2 < 0.05  # homogenization error at eps = 1/4

    from oscillat.study import extension_margin

    ext = build_extension(mesh, extension_margin(LAT2, eps, (1.0, 1.0)))
    cor = Corrector(sol, eps, cs.symbol, ext, LAT2, smoothed=True)
    v = u_0.u[0] + eps * cor.apply(u_0.u[0])
    h1_bare = h1_norm(mesh, u_eps.u[0] - u_0.u[0], 1)
    h1_corr = h1_norm(mesh, u_eps.u[0] - v, 1)
    assert h1_corr < h1_bare
    p = flux(u_eps.u, cs, eps, ext, LAT2)
    pa = flux_approx(u_0.u, sol, eps, True, cs, ext, LAT2)
    rel_flux = (l2_norm(mesh, (p[0] - pa[0]).ravel())
                / l2_norm(mesh, p[0].ravel()))
    assert rel_flux < 0.5


def test_block_and_2d_operators_take_dense_path(monkeypatch):
    cs = matrix_system()
    sol = solve_cell(cs, LAT1, 128)
    mesh = mesh_for([1.0], 0.25 / 16)
    op_block = shifted_operators(mesh, cs, sol, 0.25, LAT1)[0]
    op_2d = assemble_b_eps(mesh_for([1.0, 1.0], 0.5 / 16), catalog("laminate2d"),
                           0.5, LAT2)

    def no_tridiagonal(*args, **kwargs):
        raise AssertionError("banded operator took the tridiagonal path")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_tridiagonal)
    for op in (op_block, op_2d):
        assert read_bands(op.matrix, (op.size,)) is None
        eb = spectral_decompose(op)
        assert eb.size == op.size


def test_block_b0_keeps_lu_and_dense_path(solver_calls):
    # the n = 2 effective operator has constant coefficients, but its blocks
    # couple the components: no closed-form spectrum, so one LU per shift
    # and the dense eigensolver
    cs = matrix_system()
    sol = solve_cell(cs, LAT1, 128)
    op_0 = shifted_operators(mesh_for([1.0], 0.25 / 16), cs, sol, 0.25,
                             LAT1)[1]
    assert op_0.spectrum is None
    solver_calls.update(splu=0)     # the probes of shifted_operators
    assert spectral_decompose(op_0).size == op_0.size
    f = np.ones((2, op_0.size))
    resolvent(op_0, -1.0, f)
    op_0.solve_shifted(0.0, f[0])
    assert solver_calls == {"splu": 2, "eigh_tridiagonal": 0}


@pytest.mark.parametrize("fixture, eps", [
    ("matrix_system", 1 / 4), ("matrix_system", 1 / 32),
    ("laminate2d", 1 / 2), ("checkerboard-smooth", 1 / 2),
])
def test_lu_probe_matches_dense(fixture, eps, monkeypatch):
    # called without bands, every operator that is not tridiagonal, however
    # small, takes the symmetric-mode LU inertia certificate (126 to 1022
    # unknowns), whose verdict matches the dense lowest eigenvalue: it
    # returns a margin below it, and the Gershgorin bound just above it
    cs = matrix_system() if fixture == "matrix_system" else catalog(fixture)
    lat = LAT1 if cs.d == 1 else LAT2
    sol = solve_cell(cs, lat, 128 if cs.d == 1 else 64)
    mesh = mesh_for([1.0] * cs.d, eps / 16)
    ops = [assemble_b_eps(mesh, cs, eps, lat), assemble_b0(mesh, sol, cs)]
    dense = [np.linalg.eigvalsh(op.matrix.toarray())[0] for op in ops]
    margin = coercive_margin(cs, 1.0)

    def no_dense(*args, **kwargs):
        raise AssertionError("sparse matrix took the dense probe")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    for op, want in zip(ops, dense):
        assert read_bands(op.matrix, (op.size,)) is None
        assert margin < want
        assert smallest_eigenvalue(op.matrix, None, None, margin) == margin
        above = smallest_eigenvalue(op.matrix, None, None, want * (1 + 1e-9))
        assert above < margin


def _elasticity2d_symbol():
    """d=2 symbol with n=2, m=3: the symmetric gradient of a 2-vector."""
    return make_symbol([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.5]],
                        [[0.0, 0.0], [0.0, 1.0], [0.5, 0.0]]])


def bD_centered(grid: np.ndarray, sym, h) -> np.ndarray:
    """Oracle: b(D)u by centered differences on a grid, zero outside it.

    grid has shape (..., M_1, .., M_d, n) with spacings h; returns the grid
    values of b(D)u, shape (..., M_1, .., M_d, m).
    """
    d = len(h)
    out = np.zeros(grid.shape[:-1] + (sym.m,), dtype=complex)
    for l, b in enumerate(sym.b_mats):
        diff = np.zeros_like(grid)      # u(x + h e_l) - u(x - h e_l)
        # views with grid axis l first
        g, dg = (np.moveaxis(a, l - d - 1, 0) for a in (grid, diff))
        dg[:-1] = g[1:]
        dg[1:] -= g[:-1]
        dl = -1j * diff / (2.0 * h[l])
        out += np.einsum("...n,mn->...m", dl, b)
    return out


@pytest.mark.parametrize("symbol, box, m_int", [
    (lambda: catalog("sine1d").symbol, [1.0], [37]),
    (lambda: matrix_system().symbol, [1.0], [37]),
    (lambda: catalog("laminate2d").symbol, [1.0, 1.5], [11, 13]),
    (_elasticity2d_symbol, [1.0, 1.5], [11, 13]),
], ids=["sine1d", "matrix_system", "laminate2d", "elasticity2d"])
def test_bD_centered_matches_assembly_stencil(symbol, box, m_int):
    # the grid stencil of the corrector oracle equals the sparse
    # b(D) = sum_l D_l b_l of the assembly oracles on interior nodes
    sym = symbol()
    mesh = make_mesh(box, m_int)
    rng = np.random.default_rng(5)
    u = (rng.standard_normal(mesh.n_nodes * sym.n)
         + 1j * rng.standard_normal(mesh.n_nodes * sym.n))
    want = bD_matrix(mesh, sym) @ u
    got = bD_centered(mesh.to_grid(u, sym.n), sym, mesh.h)
    assert got.shape == mesh.m_int + (sym.m,)
    err = np.linalg.norm(got.reshape(-1) - want)
    assert err <= 1e-13 * np.linalg.norm(want)


def _elasticity2d_coeffs():
    """The elasticity symbol with a hermitian positive 3 x 3 g that varies
    along both axes."""
    off = np.array([[0.0, 0.3, 0.1j], [0.3, 0.0, 0.2], [-0.1j, 0.2, 0.0]])
    g = field_from_function(lambda x, y: (
        (2.0 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))[..., None, None]
        * np.eye(3) + np.cos(2 * np.pi * y)[..., None, None] * off),
        2, 16, hermitian=True, positive=True)
    return CoefficientSet(symbol=_elasticity2d_symbol(), g=g).validate()


@pytest.mark.parametrize("coeffs, box, m_int", [
    (lambda: catalog("sine1d"), [1.0], [63]),
    (matrix_system, [1.0], [37]),
    (lambda: catalog("laminate2d"), [1.0, 1.5], [15, 23]),
    (_elasticity2d_coeffs, [1.0, 1.5], [11, 13]),
], ids=["sine1d", "matrix_system", "laminate2d", "elasticity2d"])
def test_flux_is_g_eps_times_sparse_bD(coeffs, box, m_int):
    # flux, the unsmoothed SmoothedBD map of g^eps, equals g^eps times the
    # oracles' sparse Kronecker b(D) at every node, boundary rows included;
    # the matrix_system and elasticity2d spacings (1/38; 1/12 and 3/28) are
    # not powers of two
    cs, eps = coeffs(), 0.1
    sym, lat, mesh = cs.symbol, unit_lattice(cs.d), make_mesh(box, m_int)
    ext = build_extension(mesh, eps * lat.r1)
    rng = np.random.default_rng(3)
    U = (rng.standard_normal((2, mesh.n_nodes * sym.n))
         + 1j * rng.standard_normal((2, mesh.n_nodes * sym.n)))
    g_eps = eval_scaled_grid(cs.g, lat, eps, mesh.axes())
    bdu = mesh.to_grid((bD_matrix(mesh, sym) @ U.T).T, sym.m)
    want = np.einsum("...ij,...j->...i", g_eps, bdu).reshape(2, -1, sym.m)
    got = flux(U, cs, eps, ext, lat)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _chain_oracle(u_ext, ext, lat, eps, sym, smoothed, a, c):
    """The corrector chain as it runs on the extended grid: the tensor-rule
    Steklov average, bD_centered, the weights a on b(D)s and c on s, both
    given on the extended grid, and restrict."""
    h = ext.mesh.h
    s = steklov_tensor_rule(u_ext, lat, eps, h, False) if smoothed else u_ext
    return ext.restrict(np.einsum("...ij,...j->...i", a, bD_centered(s, sym, h))
                        + np.einsum("...ij,...j->...i", c, s))


def test_matrix_system_lambda_is_not_projected():
    # complex g: Λ has a real part of its own, and solve_cell keeps it
    cs = matrix_system()
    raw = solve_lambda(cs.symbol, cs.g, LAT1, 64).samples
    sol = solve_cell(cs, LAT1, 64)
    assert np.abs(sol.Lambda.samples.real).max() > 1e-3
    assert np.array_equal(sol.Lambda.samples, raw)


def test_matrix_system_solves_pin_the_nyquist_mode(monkeypatch):
    # the truncated band is symmetric: no solved column of Λ or Λ̃ holds
    # the unpaired frequency -N/2
    import oscillat.cell as cell_mod

    pcg, solved = cell_mod._pcg, []

    def recording(op, rhs, *args):
        x, res = pcg(op, rhs, *args)
        solved.append(x)
        return x, res

    monkeypatch.setattr(cell_mod, "_pcg", recording)
    solve_cell(matrix_system(), LAT1, 64)
    assert len(solved) == 4                     # two columns each
    for x in solved:
        assert np.abs(x).max() > 0 and not x[32].any()


@pytest.mark.parametrize("case", ["sine1d", "sine1d-a_amp", "laminate2d"])
def test_real_corrector_matches_the_complex_chain(case):
    # a real problem (Re Λ == 0, Λ̃ == 0, b real) compiles real weights, so
    # real data give a float64 corrector, equal to the complex chain on the
    # unprojected Λ; a_amp brings Λ̃ != 0, and the corrector stays complex
    from oscillat.study import extension_margin

    eps = 0.25
    if case == "laminate2d":
        cs, lat, mesh = catalog("laminate2d"), LAT2, make_mesh([1.0, 1.0],
                                                               [23, 27])
    else:
        cs = catalog("sine1d", {"a_amp": 0.3} if case.endswith("a_amp") else {})
        lat, mesh = LAT1, make_mesh([1.0], [31])
    # Re Λ is CG rounding: the truncation keeps a band symmetric in k
    sol = solve_cell(cs, lat, 64)
    raw = solve_lambda(cs.symbol, cs.g, lat, 64)
    assert 0.0 < np.abs(raw.samples.real).max() < 1e-16
    ext = build_extension(mesh, extension_margin(lat, eps, mesh.box))
    U = np.random.default_rng(4).standard_normal((3, mesh.n_nodes))
    got = Corrector(sol, eps, cs.symbol, ext, lat).apply(U)
    unprojected = Corrector(dataclasses.replace(sol, Lambda=raw), eps,
                            cs.symbol, ext, lat).apply(U)
    want = _chain_oracle(extend(U, ext), ext, lat, eps, cs.symbol, True, *(
        eval_scaled_grid(f, lat, eps, ext.axes_ext())
        for f in (raw, sol.LambdaTilde)))
    assert unprojected.dtype == want.dtype == np.complex128
    if case.endswith("a_amp"):
        assert got.dtype == np.complex128 and np.abs(got.imag).max() > 1e-3
    else:
        assert got.dtype == np.float64
    for oracle in (unprojected, want):
        assert np.abs(got - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("case", ["sine1d", "sine1d_plain", "matrix_system",
                                  "laminate2d", "laminate2d_skew"])
def test_compiled_corrector_matches_the_chain(case):
    # Corrector and flux_approx run per-axis sparse factors of interior
    # nodes; the oracle runs extend, the tensor rule, bD_centered, the
    # weights and restrict
    from oscillat.study import extension_margin

    eps, k = 0.25, 3
    if case.startswith("laminate2d"):
        cs = catalog("laminate2d")
        lat = (build_lattice([[1.0, 0.0], [0.5, 1.0]]) if case.endswith("skew")
               else LAT2)
        mesh = make_mesh([1.0, 1.0], [23, 27])
    else:
        cs = matrix_system() if case == "matrix_system" else catalog("sine1d")
        lat, mesh = LAT1, make_mesh([1.0], [31])
    smoothed = case != "sine1d_plain"
    sol = solve_cell(cs, lat, 32)
    ext = build_extension(mesh, extension_margin(lat, eps, mesh.box))
    sym, n = cs.symbol, cs.symbol.n
    rng = np.random.default_rng(12)
    U = (rng.standard_normal((k, mesh.n_nodes * n))
         + 1j * rng.standard_normal((k, mesh.n_nodes * n)))
    on_ext = {name: eval_scaled_grid(f, lat, eps, ext.axes_ext())
              for name, f in (("lam", sol.Lambda), ("lam_t", sol.LambdaTilde),
                              ("g_t", sol.g_tilde), ("g", cs.g),
                              ("bdlt", sol.bD_LambdaTilde))}

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    cor = Corrector(sol, eps, sym, ext, lat, smoothed=smoothed)
    lam = on_ext["lam"], on_ext["lam_t"]
    assert close(cor.apply(U), _chain_oracle(extend(U, ext, n=n), ext, lat,
                                             eps, sym, smoothed, *lam))
    got = flux_approx(U, sol, eps, smoothed, cs, ext, lat)
    want = _chain_oracle(extend(U, ext, n=n), ext, lat, eps, sym, smoothed,
                         on_ext["g_t"], on_ext["g"] @ on_ext["bdlt"])
    assert close(got, want.reshape(got.shape))

    # the factors are per axis: per Kronecker term and grid axis k, a pair
    # of 1-D CSR factors (M_k x M_k) with the extension folded in, never a
    # d-dimensional matrix
    assert len(cor.factors) == 1 or case == "laminate2d_skew"
    for term in cor.factors:
        assert [[f.shape for f in pair] for pair in term] == [
            [(M, M)] * 2 for M in mesh.m_int]
    nnz = sum(f.nnz for term in cor.factors for pair in term for f in pair)
    assert nnz <= 40 * sum(mesh.m_int) * len(cor.factors)


@pytest.mark.parametrize("case", ["sine1d", "matrix_system", "laminate2d"])
def test_stacked_functions_match_one_at_a_time(case):
    # every grid map takes a stack of k functions on leading axes and gives
    # exactly the k results of applying it to one function at a time
    from oscillat.study import extension_margin

    eps, k = 0.25, 3
    if case == "laminate2d":
        cs, lat = catalog("laminate2d"), LAT2
        mesh = make_mesh([1.0, 1.0], [23, 27])
        steklov_lat = build_lattice([[1.0, 0.0], [0.5, 1.0]])  # non-diagonal
    else:
        cs = catalog("sine1d") if case == "sine1d" else matrix_system()
        lat, mesh = LAT1, make_mesh([1.0], [31])
        steklov_lat = lat
    sol = solve_cell(cs, lat, 32)
    ext = build_extension(mesh, extension_margin(lat, eps, mesh.box))
    sym, n = cs.symbol, cs.symbol.n
    rng = np.random.default_rng(11)
    U = (rng.standard_normal((k, mesh.n_nodes * n))
         + 1j * rng.standard_normal((k, mesh.n_nodes * n)))
    E = extend(U, ext, n=n)
    cor = Corrector(sol, eps, sym, ext, lat, smoothed=True)

    maps = {
        "extend": (lambda u: extend(u, ext, n=n), U),
        "restrict": (ext.restrict, E),
        "smooth": (lambda u: smooth(u, ext, steklov_lat, eps, n), U),
        "tensor_rule": (lambda e: steklov_tensor_rule(e, steklov_lat, eps,
                                                      mesh.h, False), E),
        "Corrector.apply": (cor.apply, U),
    }
    for name, (fn, stack) in maps.items():
        got = fn(stack)
        assert np.array_equal(got, np.array([fn(one) for one in stack])), name

    # fluxes map paths (T, ndof): compare with paths of one time each
    for fn in (lambda u: flux(u, cs, eps, ext, lat),
               lambda u: flux_approx(u, sol, eps, True, cs, ext, lat)):
        got = fn(U)
        assert np.array_equal(got, np.concatenate([fn(u[None]) for u in U]))

    # operator functions and solves take stacks of rows, and times lead;
    # the matrix products sum in another order, so agreement is to 1e-12
    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    op = assemble_b0(mesh, sol, cs)
    op = op.shifted(choose_lambda([op], cs))
    eb = spectral_decompose(op)
    times = np.array([0.0, 0.3, 1.1, 2.5])
    for fn in (op_cosine, op_sine_scaled):
        got = fn(eb, times, U)
        assert got.shape == times.shape + U.shape
        assert all(close(got[i, j], fn(eb, t, u)) for i, t in enumerate(times)
                   for j, u in enumerate(U)), fn.__name__
    for fn in (lambda v: op_inv_sqrt(eb, v), lambda v: resolvent(op, -1.0, v)):
        got = fn(U)
        assert all(close(g, fn(u)) for g, u in zip(got, U))

    # stacked phi rows with one shared psi (the call the sweeps make) or a
    # stacked psi, forced or not, at times of both signs: the forcing
    # integral runs over [0, t], t = -0.4 included
    phi, psi = U[0], U[1]
    times = np.r_[-0.4, times]
    psi_cases = ((psi, (psi, psi)),
                 (np.stack([psi, 2 * psi]), (psi, 2 * psi)))
    for forcing in (None, (1.5, U[2])):
        for psi_in, psi_each in psi_cases:
            path = solve_ibvp(eb, np.stack([phi, 0 * phi]), psi_in, forcing,
                              times)
            for row, (phi_row, psi_row) in enumerate(zip((phi, 0 * phi),
                                                         psi_each)):
                one = solve_ibvp(eb, phi_row, psi_row, forcing, times)
                assert close(path.u[:, row], one.u)
                assert close(synthesized_du_dt(path)[:, row],
                             synthesized_du_dt(one))
                assert close(path.energy[:, row], one.energy)


def test_cosine_rows_with_a_real_corrector_and_a_complex_b_eps():
    # real b and g, no a: the corrector is real, while a complex hermitian
    # Q of real mean makes B_eps complex and leaves B0 real, so the cosine
    # rows subtract real paths from complex ones
    from oscillat.study import (SweepConfig, Fixture, build_cases,
                                _cosine_rows)

    x = np.arange(64) / 64
    g = np.zeros((64, 2, 2))
    g[:, 0, 0], g[:, 1, 1] = 2.0 + np.sin(2 * np.pi * x), 3.0
    q = np.zeros((64, 2, 2), dtype=complex)
    q[:, 0, 1] = 0.5j * np.tile([0.0, 1.0, 0.0, -1.0], 16)    # mean 0, exactly
    q[:, 1, 0] = q[:, 0, 1].conj()
    cs = CoefficientSet(symbol=make_symbol([np.eye(2)]),
                        g=PeriodicField(g, dim=1, hermitian=True, positive=True),
                        Q=PeriodicField(q, dim=1, hermitian=True)).validate()
    fix = Fixture(lat=LAT1, coeffs=cs, cell=solve_cell(cs, LAT1, 64))
    cfg = SweepConfig(t_list=(0.5, 1.0), n_probe=5)
    case, = build_cases(fix, cfg, [0.125])
    assert case.op_eps.matrix.dtype.kind == "c"
    assert case.op_0.matrix.dtype.kind == "f"
    cor = Corrector(fix.cell, case.eps, cs.symbol, case.ext, LAT1)
    assert cor.apply(np.ones(case.mesh.n_nodes * 2)).dtype == np.float64
    rows = _cosine_rows(fix, cfg, 0, case)
    assert [len(r) for r in rows.values()] == [10, 10]
    assert all(np.isfinite(e) and e > 0 for r in rows.values() for *_, e in r)
