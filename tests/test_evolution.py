import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscillat import evolution
from oscillat.errors import CFLViolation, EigSolverFailure
from oscillat.lattice import unit_lattice
from oscillat.coefficients import catalog
from oscillat.cell import solve_cell
from oscillat.dirichlet import (
    make_mesh,
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    build_extension,
    l2_norm,
)
from oscillat.evolution import (
    EigenBasis,
    certify,
    spectral_decompose,
    op_cosine,
    op_sine_scaled,
    solve_ibvp,
    flux,
    flux_approx,
    leapfrog_oracle,
    _duhamel_tables,
)
from oracles import (beyond_reach, first_order_approx, leapfrog_energy_drift,
                     read_bands, steklov_tensor_rule, synthesized_du_dt)

LAT1 = unit_lattice(1)


def _gauss_panels(t: float, max_width: float, order: int = 8):
    """Composite Gauss-Legendre nodes/weights on [0, t]."""
    n_panels = max(1, int(np.ceil(t / max_width)))
    edges = np.linspace(0.0, t, n_panels + 1)
    xi, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xi + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


class _FakeOp:
    spectrum = None     # no closed form: the tridiagonal or dense path

    def __init__(self, matrix, eps_tag=0.5):
        self.matrix = sp.csr_matrix(matrix)
        self.size = matrix.shape[0]
        self.eps_tag = eps_tag
        self.bands = read_bands(self.matrix, (self.size,))

    def norm1(self, zeta=0.0):
        return spla.norm(self.matrix - zeta * sp.identity(self.size), 1)


def laplacian_op(M=63, L=1.0, g=1.0):
    mesh = make_mesh([L], [M])
    cs = catalog("const", {"g": g, "d": 1})
    return mesh, assemble_b_eps(mesh, cs, 1.0, LAT1)


def sine_fixture(eps=0.125):
    cs = catalog("sine1d")
    sol = solve_cell(cs, LAT1, 256)
    mesh = mesh_for([1.0], eps / 16)
    op_eps = assemble_b_eps(mesh, cs, eps, LAT1)
    op_0 = assemble_b0(mesh, sol, cs)
    ext = build_extension(mesh, 2 * LAT1.r1 * eps)
    return cs, sol, mesh, op_eps, op_0, ext


# ---------------------------------------------------------------------------
# eigendecomposition


def test_diagonal_matrix_eigens():
    eb = spectral_decompose(_FakeOp(np.diag([1.0, 4.0, 9.0])))
    assert np.allclose(eb.eigenvalues, [1.0, 4.0, 9.0])
    assert np.allclose(np.abs(eb.eigenvectors), np.eye(3))


def test_laplacian_eigenvalues_exact_formula():
    mesh, op = laplacian_op(63)
    eb = spectral_decompose(op)
    h = mesh.h[0]
    k = np.arange(1, 64)
    exact = (4.0 / h ** 2) * np.sin(k * np.pi * h / 2.0) ** 2
    assert np.allclose(eb.eigenvalues, exact, rtol=1e-12)
    # eigenvectors are discrete sines up to normalization
    x = mesh.axes()[0]
    v = eb.synthesize(np.eye(op.size)).T[:, 0]
    s = np.sin(np.pi * x)
    s /= np.linalg.norm(s)
    assert min(np.abs(v - s).max(), np.abs(v + s).max()) < 1e-10


def test_reconstruction_contract():
    cs = catalog("sine1d", {"a_amp": 0.2})
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    eb = spectral_decompose(op)
    rebuilt = (eb.eigenvectors * eb.eigenvalues) @ eb.eigenvectors.conj().T
    dense = op.matrix.toarray()
    assert np.linalg.norm(rebuilt - dense) <= 1e-8 * np.linalg.norm(dense)


@pytest.mark.parametrize("params", [None, {"a_amp": 0.2}])
def test_tridiagonal_backend_matches_dense(params, monkeypatch):
    # real sine1d and its complex hermitian variant with a first-order term,
    # at eps 1/120, whose bands repeat every 16 nodes only to a few ulp: no
    # Bloch basis, so ?stevd decomposes them
    eps = 1 / 120
    op = assemble_b_eps(mesh_for([1.0], eps / 16), catalog("sine1d", params),
                        eps, LAT1)
    assert op.size == 1919
    assert (op.matrix.dtype.kind == "c") == (params is not None)
    assert op.bands is not None and len(op.bands) == 1
    assert evolution._bloch_period(op.bands) is None
    dense = op.matrix.toarray()
    mu = scipy.linalg.eigh(dense, eigvals_only=True)

    def no_dense(*args, **kwargs):
        raise AssertionError("tridiagonal operator took the dense path")

    monkeypatch.setattr(scipy.linalg, "eigh", no_dense)
    eb = spectral_decompose(op)  # raises unless the residual check passes
    assert np.abs(eb.eigenvalues - mu).max() <= 1e-12 * mu[-1]
    Q = eb.eigenvectors
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(op.size)) <= 1e-10
    rebuilt = (Q * eb.eigenvalues) @ Q.conj().T
    assert np.linalg.norm(rebuilt - dense) <= 1e-8 * np.linalg.norm(dense)


def test_size_cap_raises():
    big = sp.identity(10000, format="csr")
    with pytest.raises(EigSolverFailure, match=r"eps=0\.5: 10000 unknowns"):
        spectral_decompose(_FakeOp(big))


def test_eigen_failures_name_the_operator():
    with pytest.raises(EigSolverFailure,
                       match="effective: non-positive eigenvalue"):
        spectral_decompose(_FakeOp(np.diag([-1.0, 2.0, 3.0]), "effective"))


def _tiny_lowest_tridiagonal(n=600, delta=1e-9):
    """A complex hermitian tridiagonal matrix whose lowest eigenvalue is
    about delta |A|_1, with |A|_1 about 9e6 (a fine-mesh scale)."""
    sub = np.full(n - 1, (-1.0 + 0.5j) * 2e6)
    diag = np.full(n, 2.0 * abs(sub[0]))
    lowest = scipy.linalg.eigvalsh_tridiagonal(diag, np.abs(sub), select="i",
                                               select_range=(0, 0))[0]
    diag -= lowest - delta * 4.0 * abs(sub[0])
    return sp.diags([sub, diag, sub.conj()], [-1, 0, 1], format="csr")


def test_eigen_check_bounds_the_normwise_backward_error():
    # ?stevd's residual on the lowest mode is about eps_mach |A|, far above
    # 1e-8 mu there, yet every pair is exact for a matrix within 1e-13 |A|_1
    op = _FakeOp(_tiny_lowest_tridiagonal())
    eb = spectral_decompose(op)
    norm1 = spla.norm(op.matrix, 1)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    assert 0.0 < eb.eigenvalues[0] < 1e-8 * norm1
    # Weyl: each eigenvalue within the backward error of the exact one
    assert np.abs(eb.eigenvalues - dense).max() <= 1e-13 * norm1
    # the bound still refuses a wrong pair, here in the last block of rows
    mu = eb.eigenvalues.copy()
    mu[-1] *= 1.0 + 1e-6
    with pytest.raises(EigSolverFailure, match="eigen backward error"):
        certify(EigenBasis(mu, eb.eigenvectors, op))


def _tridiagonal_basis(size):
    """The ?stevd basis of a random positive definite tridiagonal matrix."""
    rng = np.random.default_rng(size)
    sub = -1.0 - rng.random(size - 1)
    op = _FakeOp(sp.diags([sub, 4.0 + rng.random(size), sub], [-1, 0, 1]))
    return EigenBasis(*evolution._eigh(op), source=op)


@pytest.mark.parametrize("size", [1, 31, 32, 33, 100])
def test_checked_rows_yield_every_eigenvector_once(size):
    eb = _tridiagonal_basis(size)
    xs, ys = [], []
    for x, y, scale in eb.checked_rows():
        # rows of the Fortran-ordered Q^T, read in place
        assert x.flags.c_contiguous and np.shares_memory(x, eb.eigenvectors)
        assert len(x) <= 32 and scale == 1.0
        xs.append(x)
        ys.append(y)
    assert np.array_equal(np.concatenate(xs), eb.eigenvectors.T)
    assert np.array_equal(np.concatenate(ys),
                          eb.eigenvectors.T * eb.eigenvalues[:, None])


@pytest.mark.parametrize("k", [3, 98])     # the first block, the last one
def test_certify_refuses_one_corrupted_eigenvector(k):
    eb = _tridiagonal_basis(100)
    certify(eb)
    q = eb.eigenvectors.copy(order="F")
    q[:, k] += 1e-9 * np.random.default_rng(k).standard_normal(100)
    with pytest.raises(EigSolverFailure, match="eigen backward error"):
        certify(EigenBasis(eb.eigenvalues, q, eb.source))


def test_certify_peak_memory_is_a_few_blocks():
    # 2047 unknowns: a 32-row block's y and product take about 1.6 MiB
    eb = _tridiagonal_basis(2047)
    eb.source.norm1()
    tracemalloc.start()
    try:
        certify(eb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_dense_eigh_overwrites_one_fortran_copy():
    from test_matrix_system import matrix_system

    ops = [assemble_b_eps(make_mesh([1.0, 1.0], [31, 31]),
                          catalog("laminate2d"), 0.5, unit_lattice(2)),
           assemble_b_eps(make_mesh([1.0], [450]), matrix_system(), 0.25,
                          LAT1)]
    assert [op.matrix.dtype.kind for op in ops] == ["f", "c"]
    for op in ops:
        assert op.bands is None or len(op.bands) != 1   # the dense path
        tracemalloc.start()
        try:
            mu, q = evolution._eigh(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense copy LAPACK overwrites, the eigenvectors, and workspace
        assert peak <= 2.2 * op.size ** 2 * op.matrix.dtype.itemsize
        want_mu, want_q = scipy.linalg.eigh(op.matrix.toarray())
        assert np.array_equal(mu, want_mu) and np.array_equal(q, want_q)


# ---------------------------------------------------------------------------
# operator functions


def test_cosine_identity_at_zero():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(op.size)
    assert np.abs(op_cosine(eb, 0.0, v) - v).max() < 1e-12


def test_cosine_on_eigenvector():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    q3, mu3 = eb.synthesize(np.eye(op.size)).T[:, 3], eb.eigenvalues[3]
    out = op_cosine(eb, 0.8, q3)
    assert np.allclose(out, np.cos(0.8 * np.sqrt(mu3)) * q3, atol=1e-12)


def test_cosine_effective_unit_on_pi_interval():
    # g0 = 1 on (0, pi): nodal sin(x) is the exact first discrete eigenvector
    mesh = make_mesh([np.pi], [127])
    cs = catalog("const", {"g": 1.0, "d": 1})
    op = assemble_b_eps(mesh, cs, 1.0, LAT1)
    eb = spectral_decompose(op)
    x = mesh.axes()[0]
    v = np.sin(x)
    h = mesh.h[0]
    mu1 = (4.0 / h ** 2) * np.sin(h / 2.0) ** 2
    out = op_cosine(eb, 1.0, v)
    assert np.abs(out - np.cos(np.sqrt(mu1)) * v).max() < 1e-10
    assert mu1 == pytest.approx(eb.eigenvalues[0], rel=1e-12)


def test_sine_scaled_basics():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(op.size)
    assert np.abs(op_sine_scaled(eb, 0.0, v)).max() == 0.0
    q2, mu2 = eb.synthesize(np.eye(op.size)).T[:, 2], eb.eigenvalues[2]
    out = op_sine_scaled(eb, 0.6, q2)
    assert np.allclose(out, np.sin(0.6 * np.sqrt(mu2)) / np.sqrt(mu2) * q2,
                       atol=1e-12)


def test_sine_equals_integral_of_cosine():
    _, _, mesh, op_eps, op_0, _ = sine_fixture()
    eb = spectral_decompose(op_0)
    rng = np.random.default_rng(2)
    f = op_0.solve_shifted(0.0, op_0.solve_shifted(
        0.0, rng.standard_normal(op_0.size)))
    f /= np.abs(f).max()
    t = 1.3
    nodes, weights = _gauss_panels(t, 0.2, order=32)
    quad = sum(w * op_cosine(eb, tq, f) for tq, w in zip(nodes, weights))
    assert np.abs(quad - op_sine_scaled(eb, t, f)).max() < 1e-8


def test_cosine_functional_equation():
    _, _, mesh, op_eps, _, _ = sine_fixture()
    eb = spectral_decompose(op_eps)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(op_eps.size)
    t, s = 0.9, 0.35
    lhs = op_cosine(eb, t + s, v)
    rhs = 2 * op_cosine(eb, t, op_cosine(eb, s, v)) - op_cosine(eb, t - s, v)
    assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(v).max()


def test_time_tables_are_built_once_per_basis_and_times(monkeypatch):
    # op_cosine and op_sine_scaled share one memo entry per basis: repeated
    # calls on the same times (one per probe) build the table once
    built = []
    cos_factors = evolution._cos_factors
    monkeypatch.setattr(evolution, "_cos_factors",
                        lambda mu, t: built.append(t.size) or cos_factors(mu, t))
    mesh, op = laplacian_op(31)
    eb = spectral_decompose(op)
    root = np.sqrt(eb.eigenvalues)
    v = np.random.default_rng(8).standard_normal((2, op.size))
    t1, t2 = np.array([0.3, 1.1, 2.5]), np.array([0.3, 1.1, 2.6])

    def direct(fn, t, w):
        return eb.synthesize(fn(np.multiply.outer(t, root))[:, None]
                             * eb.project(w))

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    assert close(op_cosine(eb, t1, v), direct(np.cos, t1, v))
    assert close(op_cosine(eb, t1, v[0]), direct(np.cos, t1, v[0])[:, 0])
    assert close(op_cosine(eb, t1, v), direct(np.cos, t1, v))
    assert built == [3]
    sine = op_sine_scaled(eb, t1, v)
    assert close(sine, direct(lambda a: np.sin(a) / root, t1, v))
    assert close(op_cosine(eb, t1, v), direct(np.cos, t1, v))
    assert close(op_cosine(eb, t2, v), direct(np.cos, t2, v))
    assert close(op_cosine(eb, t1[0], v), direct(np.cos, t1[:1], v)[0])
    assert built == [3, 3, 3, 1]
    assert len(eb._last_table) == 1
    # a caller's result is not a view of the kept table
    sine += 1.0
    assert close(op_sine_scaled(eb, t1, v),
                 direct(lambda a: np.sin(a) / root, t1, v))


def test_sine_derivative_consistency():
    # central difference of the scaled sine converges to the cosine at dt^2
    mesh, op = laplacian_op(31)
    eb = spectral_decompose(op)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(op.size)
    v = op.solve_shifted(0.0, v)
    t = 0.8
    ref = op_cosine(eb, t, v)
    errs = []
    for delta in (1e-2, 5e-3, 2.5e-3):
        approx = (op_sine_scaled(eb, t + delta, v)
                  - op_sine_scaled(eb, t - delta, v)) / (2 * delta)
        errs.append(np.linalg.norm(approx - ref))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------------
# Duhamel evolution


def test_ibvp_zero_data():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    z = np.zeros(op.size)
    res = solve_ibvp(eb, z, z, None, [0.5, 1.0])
    assert np.abs(res.u).max() == 0.0
    assert np.abs(synthesized_du_dt(res)).max() == 0.0


def test_ibvp_velocity_synthesized_when_read():
    # u and the energy come from one solve; the path keeps du/dt modal, and
    # its reader synthesizes cos(t A^1/2) psi - A A^-1/2 sin(t A^1/2) phi
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    rng = np.random.default_rng(3)
    phi, psi = rng.standard_normal((2, op.size))
    res = solve_ibvp(eb, phi, psi, None, [0.7])
    assert res.du_hat.shape == res.u.shape and res.basis is eb
    du = op_cosine(eb, 0.7, psi) - op.matrix @ op_sine_scaled(eb, 0.7, phi)
    assert np.abs(synthesized_du_dt(res)[0] - du).max() \
        <= 1e-12 * np.abs(du).max()


def test_ibvp_single_mode_energy():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    q1, mu1 = eb.synthesize(np.eye(op.size)).T[:, 0], eb.eigenvalues[0]
    res = solve_ibvp(eb, q1, 0 * q1, None, np.linspace(0.2, 3.0, 8))
    for i, t in enumerate(res.times):
        assert np.allclose(res.u[i], np.cos(t * np.sqrt(mu1)) * q1, atol=1e-12)
    assert np.abs(res.energy / res.energy[0] - 1.0).max() < 1e-12


def test_ibvp_forced_mode_closed_form():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    q1, mu1 = eb.synthesize(np.eye(op.size)).T[:, 0], eb.eigenvalues[0]
    omega = 3.0
    res = solve_ibvp(eb, 0 * q1, 0 * q1, (omega, q1), [0.5, 1.0, 2.0])
    for i, t in enumerate(res.times):
        coef = (np.cos(omega * t) - np.cos(np.sqrt(mu1) * t)) / (mu1 - omega ** 2)
        assert np.abs(res.u[i] - coef * q1).max() < 1e-8


def test_ibvp_forced_mode_closed_form_negative_times():
    # the Duhamel integral runs over [0, t] for t < 0 too; the closed form
    # of the forced mode holds there unchanged (u(-1) = 0.0115 q1)
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    q1, mu1 = eb.synthesize(np.eye(op.size)).T[:, 0], eb.eigenvalues[0]
    omega = 3.0
    res = solve_ibvp(eb, 0 * q1, 0 * q1, (omega, q1), [-1.0, -0.5])
    for i, t in enumerate(res.times):
        coef = (np.cos(omega * t) - np.cos(np.sqrt(mu1) * t)) / (mu1 - omega ** 2)
        assert np.abs(res.u[i] - coef * q1).max() < 1e-8


def _forced_mode(root, omega, s):
    """Ku, Kdu of cos(omega x) at time s in closed form, written so that it
    holds at and near resonance: with A = (root + omega)/2 and
    B = (root - omega)/2, Ku = sin(A s) sin(B s) / (2 A B) and
    Kdu = (cos(A s) sin(B s) / B + sin(A s) cos(B s) / A) / 2; at B = 0 they
    are s sin(omega s) / (2 omega) and
    s cos(omega s) / 2 + sin(omega s) / (2 omega)."""
    a, b = (root + omega) / 2, (root - omega) / 2
    sin_b_over_b = s * np.sinc(b * s / np.pi)
    return (np.sin(a * s) * sin_b_over_b / (2 * a),
            (np.cos(a * s) * sin_b_over_b
             + np.sin(a * s) * np.cos(b * s) / a) / 2)


@pytest.mark.parametrize("detune", [0.5, 1e-6, 0.0],
                         ids=["away", "near", "at"])
def test_forced_mode_matches_closed_form(detune):
    # one mode of cos(omega t) f, f complex, with |omega^2 - mu1| = detune mu1,
    # at times of both signs against the closed form of _forced_mode
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    q1, mu1 = eb.synthesize(np.eye(op.size)).T[:, 0], eb.eigenvalues[0]
    omega = np.sqrt(mu1 * (1.0 - detune))
    f = (0.6 - 1.3j) * q1
    times = np.array([-1.3, -0.5, 0.5, 1.0, 2.0])
    res = solve_ibvp(eb, 0 * f, 0 * f, (omega, f), times)
    ku, kdu = _forced_mode(np.sqrt(mu1), omega, times)
    if detune == 0.0:   # the resonant growth s sin(omega s) / (2 omega)
        assert np.allclose(ku, times * np.sin(omega * times) / (2 * omega),
                           rtol=1e-14, atol=0.0)
    for got, k in ((res.u, ku), (synthesized_du_dt(res), kdu)):
        want = k[:, None] * f
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _direct_tables(mu, s, profile):
    """The per-node Duhamel sum: sin and cos at every Gauss node and mode."""
    nodes, weights = _gauss_panels(s, min(0.1, s / 4.0))
    cw = weights * profile(nodes)
    arg = (s - nodes)[:, None] * np.sqrt(mu)[None, :]
    return cw @ np.sin(arg) / np.sqrt(mu), cw @ np.cos(arg), np.abs(cw).sum()


@pytest.fixture(scope="module", params=["sine1d", "sine1d-complex"])
def fine_basis(request):
    """B_eps of sine1d at eps 1/128 (2047 unknowns), real or with a_amp 0.3."""
    cs = catalog("sine1d", {"a_amp": 0.3} if request.param != "sine1d" else {})
    eps = 1.0 / 128
    mesh = mesh_for([1.0], eps / 16)
    op = assemble_b_eps(mesh, cs, eps, LAT1)
    assert op.size == 2047
    assert (op.matrix.dtype.kind == "c") == (request.param != "sine1d")
    return spectral_decompose(op)


@pytest.mark.parametrize("s", [0.37, 0.5, 1.0, 1.93, 2.0])
def test_duhamel_tables_match_direct_panel_sum(fine_basis, s):
    mu = fine_basis.eigenvalues

    def profile(x):
        return np.cos(1.5 * x)

    ku, kdu = _duhamel_tables(np.sqrt(mu), s, 1.5)
    ku_ref, kdu_ref, scale = _direct_tables(mu, s, profile)
    assert (np.abs(ku - ku_ref) * np.sqrt(mu)).max() <= 1e-12 * scale
    assert np.abs(kdu - kdu_ref).max() <= 1e-12 * scale
    # at -s the same panels, mirrored: int_0^-s c(x) k(-s - x) dx equals
    # int_0^s c(-y) k(-(s - y)) dy with k = sin (odd) or cos (even), up to -1
    ku, kdu = _duhamel_tables(np.sqrt(mu), -s, 1.5)
    ku_ref, kdu_ref, scale = _direct_tables(mu, s, lambda y: profile(-y))
    assert (np.abs(ku - ku_ref) * np.sqrt(mu)).max() <= 1e-12 * scale
    assert np.abs(kdu + kdu_ref).max() <= 1e-12 * scale


def test_forced_solve_matches_direct_panel_sum(fine_basis):
    # complex f_hat on a complex basis meets the real tables
    eb, times = fine_basis, [0.37, 1.0, 1.93]
    rng = np.random.default_rng(6)
    f = rng.standard_normal(eb.size) + 1j * rng.standard_normal(eb.size)
    res = solve_ibvp(eb, 0 * f, 0 * f, (1.5, f), times)
    f_hat = eb.project(f)
    for i, s in enumerate(times):
        ku, kdu, _ = _direct_tables(eb.eigenvalues, s,
                                    lambda x: np.cos(1.5 * x))
        for got, table in ((res.u[i], ku), (synthesized_du_dt(res)[i], kdu)):
            want = eb.synthesize(table * f_hat)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_ibvp_energy_conservation_unforced():
    _, _, mesh, op_eps, _, _ = sine_fixture()
    eb = spectral_decompose(op_eps)
    rng = np.random.default_rng(5)
    phi = op_eps.solve_shifted(0.0, rng.standard_normal(op_eps.size))
    psi = op_eps.solve_shifted(0.0, rng.standard_normal(op_eps.size))
    res = solve_ibvp(eb, phi, psi, None, np.linspace(0.1, 4.0, 12))
    assert np.abs(res.energy / res.energy[0] - 1.0).max() <= 1e-8


def test_forcing_omega_must_be_real_and_finite():
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    z = np.zeros(op.size)
    for omega in (np.nan, np.inf, -np.inf, 1.5 + 0.5j, np.complex128(1.5)):
        with pytest.raises(ValueError, match="not real and finite"):
            solve_ibvp(eb, z, z, (omega, z), [1.0])


def test_forcing_as_samples_is_refused():
    # the earlier forms: (t_grid, samples), one dof vector per sample, and
    # the sampled profile (t_grid, profile, f_space)
    mesh, op = laplacian_op()
    eb = spectral_decompose(op)
    z, t_grid = np.zeros(op.size), np.linspace(0.0, 1.0, 9)
    for forcing in ((t_grid, np.zeros((9, op.size))),
                    (t_grid, np.cos(1.5 * t_grid), z)):
        with pytest.raises(ValueError, match=r"\(omega, f_space\)"):
            solve_ibvp(eb, z, z, forcing, [1.0])


# ---------------------------------------------------------------------------
# first-order approximation and fluxes


def test_first_order_approx_reduces_to_u0():
    cs = catalog("const", {"g": 2.0, "d": 1})
    sol = solve_cell(cs, LAT1, 32)
    mesh = mesh_for([1.0], 0.125 / 16)
    op0 = assemble_b0(mesh, sol, cs)
    eb = spectral_decompose(op0)
    ext = build_extension(mesh, 2 * LAT1.r1 * 0.125)
    phi = np.sin(np.pi * mesh.axes()[0])
    u0 = solve_ibvp(eb, phi, 0 * phi, None, [0.5, 1.0])
    v = first_order_approx(u0.u, sol, 0.125, True, cs.symbol, ext, LAT1)
    assert np.abs(v - u0.u).max() < 1e-14


def test_first_order_l2_distance_shrinks_linearly():
    cs = catalog("sine1d")
    sol = solve_cell(cs, LAT1, 256)
    dist = {}
    for eps in (0.125, 0.0625):
        mesh = mesh_for([1.0], eps / 16)
        op0 = assemble_b0(mesh, sol, cs)
        eb0 = spectral_decompose(op0)
        phi = np.sin(np.pi * mesh.axes()[0])
        u0 = solve_ibvp(eb0, phi, 0 * phi, None, [0.7])
        ext = build_extension(mesh, 2 * LAT1.r1 * eps)
        v = first_order_approx(u0.u, sol, eps, True, cs.symbol, ext, LAT1)
        dist[eps] = l2_norm(mesh, v[0] - u0.u[0])
    # the corrector term is O(eps) in L2
    assert dist[0.0625] == pytest.approx(dist[0.125] / 2.0, rel=0.15)


def test_flux_constant_coefficient_identity():
    cs = catalog("const", {"g": 2.0, "d": 1})
    sol = solve_cell(cs, LAT1, 32)
    mesh = mesh_for([1.0], 0.125 / 16)
    op0 = assemble_b0(mesh, sol, cs)
    eb = spectral_decompose(op0)
    phi = np.sin(np.pi * mesh.axes()[0])
    u0 = solve_ibvp(eb, phi, 0 * phi, None, [0.5])
    ext = build_extension(mesh, 2 * LAT1.r1 * 0.125)
    p = flux(u0.u, cs, 0.125, ext, LAT1)
    pa = flux_approx(u0.u, sol, 0.125, False, cs, ext, LAT1)
    assert np.abs(p - pa).max() < 1e-12


def test_flux_special_case_constant_g_tilde():
    # m = n makes the flux matrix constant: approx = g0 * S_eps b(D) u0
    eps = 0.125
    cs, sol, mesh, op_eps, op_0, ext = sine_fixture(eps)
    assert np.abs(sol.g_tilde.samples - np.sqrt(3.0)).max() < 1e-8
    eb0 = spectral_decompose(op_0)
    phi = np.sin(np.pi * mesh.axes()[0])
    u0 = solve_ibvp(eb0, phi, 0 * phi, None, [0.6])
    pa = flux_approx(u0.u, sol, eps, True, cs, ext, LAT1)
    from oscillat.dirichlet import extend

    u_ext = extend(u0.u[0], ext, n=1)
    sm = steklov_tensor_rule(u_ext, LAT1, eps, mesh.h, False)
    h = mesh.h[0]
    dsm = np.zeros(sm.shape, dtype=complex)
    dsm[1:-1] = -1j * (sm[2:] - sm[:-2]) / (2 * h)
    expected = np.sqrt(3.0) * dsm[ext.interior_slices()[0]]
    assert np.abs(pa[0].ravel() - expected.ravel()).max() < 1e-7


def test_flux_error_decreases_with_eps():
    cs = catalog("sine1d")
    sol = solve_cell(cs, LAT1, 256)
    errs = {}
    for eps in (0.125, 0.03125):
        mesh = mesh_for([1.0], eps / 16)
        ope = assemble_b_eps(mesh, cs, eps, LAT1)
        op0 = assemble_b0(mesh, sol, cs)
        ebe, eb0 = spectral_decompose(ope), spectral_decompose(op0)
        rng = np.random.default_rng(6)
        psi = op0.solve_shifted(0.0, op0.solve_shifted(
            0.0, rng.standard_normal(op0.size)))
        ue = solve_ibvp(ebe, 0 * psi, psi, None, [1.0])
        u0 = solve_ibvp(eb0, 0 * psi, psi, None, [1.0])
        ext = build_extension(mesh, 2 * LAT1.r1 * eps)
        p = flux(ue.u, cs, eps, ext, LAT1)
        pa = flux_approx(u0.u, sol, eps, True, cs, ext, LAT1)
        errs[eps] = l2_norm(mesh, (p[0] - pa[0]).ravel())
    assert errs[0.03125] < 0.6 * errs[0.125]


# ---------------------------------------------------------------------------
# leapfrog oracle


def test_leapfrog_single_mode_dt_squared():
    mesh, op = laplacian_op(31)
    eb = spectral_decompose(op)
    q1, mu1 = eb.synthesize(np.eye(op.size)).T[:, 0], eb.eigenvalues[0]
    t = 1.0
    exact = np.cos(t * np.sqrt(mu1)) * q1
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        u = leapfrog_oracle(op, q1, 0 * q1, None, t, dt)
        errs.append(np.linalg.norm(u - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_leapfrog_matches_spectral_evolution():
    _, _, mesh, op_eps, op_0, _ = sine_fixture()
    eb = spectral_decompose(op_eps)
    rng = np.random.default_rng(7)
    phi = op_0.solve_shifted(0.0, op_0.solve_shifted(
        0.0, rng.standard_normal(op_0.size)))
    phi /= l2_norm(mesh, phi)
    dt = 1e-3 * 1.9 / np.sqrt(op_eps.norm1())
    u_lf = leapfrog_oracle(op_eps, phi, 0 * phi, None, 1.0, dt)
    ref = solve_ibvp(eb, phi, 0 * phi, None, [1.0]).u[0]
    assert l2_norm(mesh, u_lf - ref) <= 1e-4 * l2_norm(mesh, ref)


def test_leapfrog_energy_drift_bounded():
    _, _, mesh, op_eps, op_0, _ = sine_fixture()
    rng = np.random.default_rng(8)
    phi = op_0.solve_shifted(0.0, op_0.solve_shifted(
        0.0, rng.standard_normal(op_0.size)))
    phi /= l2_norm(mesh, phi)
    drift = leapfrog_energy_drift(op_eps, phi, 0 * phi, 10.0, 1e-3)
    assert drift <= 1e-3


def test_leapfrog_cfl_violation():
    mesh, op = laplacian_op(63)
    with pytest.raises(CFLViolation):
        leapfrog_oracle(op, np.zeros(op.size), np.zeros(op.size), None,
                        1.0, 1.0)


def test_leapfrog_cfl_bound_is_certified():
    # 1.9 / sqrt(|A|_1) is the bound: one percent above it is refused,
    # though it lies below 1.9 / sqrt(mu_max) on sine1d (|A|_1 / mu_max
    # is about 1.08 there), where a Rayleigh quotient of mu_max let it pass
    _, _, _, op_eps, _, _ = sine_fixture()
    z = np.zeros(op_eps.size)
    with pytest.raises(CFLViolation):
        leapfrog_oracle(op_eps, z, z, None, 1.0,
                        1.01 * 1.9 / np.sqrt(op_eps.norm1()))


@pytest.mark.parametrize("name", ["sine1d", "laminate2d",
                                  "checkerboard-smooth", "random-bandlimited"])
def test_norm1_bounds_the_largest_eigenvalue(name):
    # |A|_1 >= |A|_2 >= mu_max for a hermitian A, so the CFL check certifies
    d = 1 if name in ("sine1d", "random-bandlimited") else 2
    op = assemble_b_eps(mesh_for([1.0] * d, 0.25 / 16 if d == 1 else 0.5 / 16),
                        catalog(name), 0.25 if d == 1 else 0.5, unit_lattice(d))
    assert op.norm1() >= scipy.linalg.eigvalsh(op.matrix.toarray())[-1]


def test_leapfrog_runs_backwards_at_negative_times():
    # t < 0 takes ceil(|t| / dt) steps of size t / n, not one step of size t
    mesh, op = laplacian_op(31)
    eb = spectral_decompose(op)
    phi, psi = eb.synthesize(np.random.default_rng(5).standard_normal(
        (2, op.size)) / (1.0 + np.arange(op.size)) ** 2)
    for t in (-0.5, 0.5):
        ref = solve_ibvp(eb, phi, psi, None, [t]).u[0]
        u = leapfrog_oracle(op, phi, psi, None, t, 1e-3)
        assert np.linalg.norm(u - ref) <= 1e-4 * np.linalg.norm(ref)


def test_leapfrog_forced_matches_duhamel():
    mesh, op = laplacian_op(31)
    eb = spectral_decompose(op)
    q1 = eb.synthesize(np.eye(op.size)).T[:, 0]
    omega = 2.0
    res = solve_ibvp(eb, 0 * q1, 0 * q1, (omega, q1), [1.0])
    u_lf = leapfrog_oracle(op, 0 * q1, 0 * q1,
                           lambda t: np.cos(omega * t) * q1, 1.0, 2e-4)
    assert np.abs(u_lf - res.u[0]).max() < 1e-6


def test_forced_low_modes_match_leapfrog_to_second_order():
    # data and forcing in the five lowest modes, cos(2t) f, at t = 1.5: the
    # leapfrog error falls by 4 per halved dt, and the Richardson value of
    # the two finest runs, (4 u(dt/2) - u(dt)) / 3, meets the Duhamel
    # solution to 2.5e-6 relative (the error of the finest run is 1.4e-3)
    mesh, op = laplacian_op(31)
    eb = spectral_decompose(op)
    coeffs = np.zeros((3, op.size))
    coeffs[:, :5] = np.random.default_rng(17).standard_normal((3, 5))
    phi, psi, f = eb.synthesize(coeffs)
    omega, t = 2.0, 1.5
    u = solve_ibvp(eb, phi, psi, (omega, f), [t]).u[0]
    runs = [leapfrog_oracle(op, phi, psi, lambda s: np.cos(omega * s) * f,
                            t, dt) for dt in (0.01, 0.005, 0.0025)]

    def rel(v):
        return np.abs(v - u).max() / np.abs(u).max()

    errs = [rel(v) for v in runs]
    assert all(3.9 <= a / b <= 4.1 for a, b in zip(errs, errs[1:])), errs
    assert rel((4 * runs[2] - runs[1]) / 3) <= 1e-5


def test_real_tridiagonal_operator_keeps_its_signed_subdiagonal(monkeypatch):
    # sine1d B_eps at 1919 unknowns (eps 1/120, no exact period, so no Bloch
    # basis): ?stevd on the signed subdiagonal gives the eigenpairs of the
    # sign-transformed |sub| matrix, eigenvalues equal and eigenvectors
    # equal up to sign, and the eigen check passes
    eps = 1.0 / 120
    op = assemble_b_eps(mesh_for([1.0], eps / 16), catalog("sine1d"), eps, LAT1)
    assert op.size == 1919
    (diag, sub), = op.bands
    assert np.isrealobj(sub) and (sub < 0.0).all()
    mu_abs, q_abs = scipy.linalg.eigh_tridiagonal(diag, np.abs(sub),
                                                  lapack_driver="stevd")
    signs = np.concatenate(([1.0], np.cumprod(np.sign(sub))))
    q_ref = signs[:, None] * q_abs
    seen = []
    stevd = scipy.linalg.eigh_tridiagonal

    def recording(d, e, **kwargs):
        seen.append(e)
        return stevd(d, e, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
    eb = spectral_decompose(op)             # runs certify
    assert len(seen) == 1 and seen[0] is sub
    assert np.abs(eb.eigenvalues - mu_abs).max() <= 1e-15 * np.abs(mu_abs).max()
    assert (np.abs(eb.eigenvalues / mu_abs - 1.0) <= 1e-15).all()
    flip = np.sign(np.einsum("ij,ij->j", eb.eigenvectors, q_ref))
    assert np.abs(eb.eigenvectors - q_ref * flip).max() <= 1e-12


def test_gauss_rule_is_computed_once(monkeypatch):
    # the Steklov averages and the Duhamel tables share one 8-point rule
    from oscillat import dirichlet
    from oscillat.dirichlet import GAUSS_8, smooth

    want = np.polynomial.legendre.leggauss(8)
    assert all(np.array_equal(a, b) for a, b in zip(GAUSS_8, want))

    def no_rule(*args, **kwargs):
        raise AssertionError("the Gauss-Legendre rule was computed again")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    mu = np.linspace(1.0, 400.0, 17)
    ku, kdu = _duhamel_tables(np.sqrt(mu), 0.7, 1.5)
    assert np.isfinite(ku).all() and np.isfinite(kdu).all()
    mesh = make_mesh([1.0], [63])
    out = smooth(np.ones(63), build_extension(mesh, 0.2), LAT1, 0.25)
    assert np.abs(out[beyond_reach(mesh, 0.125)] - 1.0).max() < 1e-12
    assert len(dirichlet._steklov_terms(LAT1, 0.25, 1.0 / 64, [0])) == 16
