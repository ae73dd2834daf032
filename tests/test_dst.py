"""The sine backend: constant-coefficient operators get their eigenbasis and
resolvent solves from the known sine spectrum and fast sine transforms,
every other operator keeps its eigensolver and its sparse LU."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscillat.errors import EigSolverFailure, NearSpectrumShift
from oscillat.lattice import unit_lattice
from oscillat.coefficients import catalog
from oscillat.cell import solve_cell
from oscillat.dirichlet import (
    make_mesh,
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    dst_spectrum,
    resolvent,
    sine_transform,
    DiscreteDirichletOperator,
)
from oscillat.evolution import (
    EigenBasis,
    SineBasis,
    certify,
    solve_ibvp,
    spectral_decompose,
    op_cosine,
    op_sine_scaled,
    op_inv_sqrt,
)
from oracles import read_bands, synthesized_du_dt

LAT1 = unit_lattice(1)
LAT2 = unit_lattice(2)


def sine1d_b0(eps=1 / 16):
    cs = catalog("sine1d")
    return assemble_b0(mesh_for([1.0], eps / 16), solve_cell(cs, LAT1, 256), cs)


def const_op(M=255):
    return assemble_b_eps(make_mesh([1.0], [M]),
                          catalog("const", {"g": 2.0, "d": 1}), 1.0, LAT1)


def laminate2d_b0():
    """laminate2d B0 on the box [1, 1.5]: 31 x 47 = 1457 unknowns."""
    cs = catalog("laminate2d")
    mesh = mesh_for([1.0, 1.5], 0.5 / 16)
    assert mesh.m_int == (31, 47)
    return assemble_b0(mesh, solve_cell(cs, LAT2, 64), cs)


CLOSED_FORM = {"sine1d-b0": sine1d_b0, "const": const_op,
               "laminate2d-b0": laminate2d_b0}


@pytest.fixture(scope="module", params=sorted(CLOSED_FORM))
def closed_form_op(request):
    op = CLOSED_FORM[request.param]()
    assert op.size <= 4096
    assert op.spectrum is not None
    return op


# ---------------------------------------------------------------------------
# the numpy DST-I against scipy's


@pytest.mark.parametrize("shape", [(9,), (255,), (5, 7), (31, 24)])
@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
@pytest.mark.parametrize("kind", [float, complex])
def test_sine_transform_matches_scipy_dstn(shape, lead, kind):
    rng = np.random.default_rng(sum(shape) + len(lead))
    rows = rng.standard_normal(lead + (int(np.prod(shape)),))
    if kind is complex:
        rows = rows + 1j * rng.standard_normal(rows.shape)
    grid = rows.reshape(lead + shape)
    axes = tuple(range(-len(shape), 0))
    out = sine_transform(rows, shape)
    assert out.shape == rows.shape and out.dtype == rows.dtype
    for fn in (scipy.fft.dstn, scipy.fft.idstn):
        ref = fn(grid, type=1, norm="ortho", axes=axes).reshape(rows.shape)
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)
    # its own inverse
    back = sine_transform(out, shape)
    assert np.linalg.norm(back - rows) <= 1e-15 * np.linalg.norm(rows)


# ---------------------------------------------------------------------------
# equivalence with the reference paths


def test_closed_form_eigenvalues_match_dense(closed_form_op):
    op = closed_form_op
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    eb = spectral_decompose(op)
    # a sine basis keeps the grid order of op.spectrum
    assert np.array_equal(eb.eigenvalues, op.spectrum.ravel())
    assert np.abs(np.sort(eb.eigenvalues) - dense).max() <= 1e-12 * dense[-1]
    Q = eb.synthesize(np.eye(op.size)).T
    assert np.linalg.norm(Q.T @ Q - np.eye(op.size)) <= 1e-10


def test_closed_form_low_modes_accurate_to_ulps():
    # the matrix is 2/h^2 times the unit Laplacian stencil, whose eigenvalues
    # are 4 sin^2(j pi h / 2): the closed form meets them to a few ulp at
    # every mode, where an eigensolver's error is eps * |A|, about 7e-12
    # relative on the lowest mode at 255 unknowns
    op = const_op(255)
    h = op.mesh.h[0]
    exact = 2.0 / h ** 2 * 4.0 * np.sin(np.arange(1, 256) * np.pi * h / 2) ** 2
    assert np.abs(spectral_decompose(op).eigenvalues / exact - 1.0).max() \
        <= 1e-14


def test_closed_form_operator_functions_match_dense_basis(closed_form_op):
    op = closed_form_op
    mu, Q = scipy.linalg.eigh(op.matrix.toarray())
    dense = EigenBasis(eigenvalues=mu, eigenvectors=Q, source=op)
    eb = spectral_decompose(op)
    rng = np.random.default_rng(11)
    v = rng.standard_normal((2, op.size))
    times = [0.5, 1.0, 2.0]
    scale = np.abs(v).max()
    for fn in (op_cosine, op_sine_scaled):
        assert np.abs(fn(eb, times, v) - fn(dense, times, v)).max() \
            <= 1e-10 * scale
    assert np.abs(op_inv_sqrt(eb, v) - op_inv_sqrt(dense, v)).max() \
        <= 1e-10 * scale


def test_sine_basis_matches_dense_basis(closed_form_op):
    op = closed_form_op
    eb = spectral_decompose(op)
    assert isinstance(eb, SineBasis)
    mu, Q = scipy.linalg.eigh(op.matrix.toarray())
    # the sine modes in grid order, the dense ones ascending: column k of the
    # dense basis pairs with sine mode order[k]
    order = np.argsort(eb.eigenvalues, kind="stable")
    Q *= np.sign(np.einsum("ij,ij->j", Q,
                           eb.synthesize(np.eye(op.size)).T[:, order]))
    dense = EigenBasis(eigenvalues=mu, eigenvectors=Q, source=op)
    # a dense eigenvector is accurate to about eps_mach |A| / gap: compare
    # single modes only where the relative gap to both neighbours is >= 3e-4
    gaps = np.diff(mu) / mu[-1]
    apart = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf]) >= 3e-4
    assert apart.sum() >= 0.3 * op.size

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    rng = np.random.default_rng(14)
    v = rng.standard_normal((2, op.size))
    assert close(eb.project(v)[:, order][:, apart], dense.project(v)[:, apart])
    c = rng.standard_normal((2, op.size)) * apart
    grid_c = np.empty_like(c)
    grid_c[:, order] = c
    assert close(eb.synthesize(grid_c), dense.synthesize(c))
    # functions of the operator do not depend on the choice of eigenvectors
    times = [0.5, 1.0, 2.0]
    assert close(
        eb.map_spectrum(np.cos(np.multiply.outer(times, np.sqrt(
            eb.eigenvalues)))[:, None], v),
        dense.map_spectrum(np.cos(np.multiply.outer(times, np.sqrt(mu)))
                           [:, None], v))
    got, ref = (solve_ibvp(basis, v, v[::-1], (1.5, v[1]), [0.5, 1.0, 2.0])
                for basis in (eb, dense))
    for name in ("u", "energy"):
        assert close(getattr(got, name), getattr(ref, name))
    assert close(synthesized_du_dt(got), synthesized_du_dt(ref))


def _mutated(op, spectrum):
    """A copy of op whose closed-form spectrum is replaced."""
    out = DiscreteDirichletOperator(op.matrix, op.mesh, op.eps_tag,
                                    op.smallest_eig)
    out.spectrum = spectrum
    return out


@pytest.mark.parametrize("name", ["const", "laminate2d-b0"])
def test_sine_certificate_catches_mutations(name):
    op = CLOSED_FORM[name]()
    eb = spectral_decompose(op)
    certify(eb)
    spectra = {"mode numbers off by one": np.roll(op.spectrum, 1, axis=-1)}
    if op.mesh.dim == 2:
        spectra["axes swapped"] = op.spectrum.T.copy()
    for spectrum in spectra.values():
        with pytest.raises(EigSolverFailure, match="eigen backward error"):
            spectral_decompose(_mutated(op, spectrum))
    # two distinct modes with their eigenvalues swapped
    swapped = eb.eigenvalues.copy()
    mid = op.size // 2
    assert swapped[mid] != swapped[mid + 1]
    swapped[[mid, mid + 1]] = swapped[[mid + 1, mid]]
    lowest_off = eb.eigenvalues.copy()
    lowest_off[lowest_off.argmin()] *= 1.0 + 1e-6
    for mu in (swapped, lowest_off):
        basis = SineBasis(mu, op)
        with pytest.raises(EigSolverFailure, match="eigen backward error"):
            certify(basis)


def test_sine_path_allocates_no_square_array():
    op = const_op(2047)
    v = np.random.default_rng(15).standard_normal((2, op.size))
    tracemalloc.start()
    try:
        eb = spectral_decompose(op)
        op_cosine(eb, [0.5, 1.0, 2.0], v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * op.size ** 2 * 8


def _inside_spectrum(op):
    """A real shift halfway between the 10th and 11th eigenvalues."""
    mu = np.sort(op.spectrum, axis=None)
    return 0.5 * (mu[9] + mu[10])


def test_closed_form_resolvent_matches_default_lu(closed_form_op):
    op = closed_form_op
    rng = np.random.default_rng(12)
    f = rng.standard_normal((3, op.size))
    for zeta in (-1.0, 2.0 + 1.5j, _inside_spectrum(op)):
        shifted = op.matrix - zeta * sp.identity(op.size)
        ref = spla.splu(shifted.tocsc()).solve(f.T.astype(shifted.dtype)).T
        u = resolvent(op, zeta, f)
        assert np.isrealobj(u) == np.isrealobj(zeta)
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
        one = resolvent(op, zeta, f[1])
        assert np.abs(one - u[1]).max() <= 1e-14 * np.abs(u[1]).max()


@pytest.mark.parametrize("name", ["const", "laminate2d-b0"])
def test_resolvent_divides_in_the_sine_basis(name):
    # the solve and the eigenbasis share one transform pair: the resolvent
    # is the basis's synthesis of its projection over mu - zeta, bit for bit
    op = CLOSED_FORM[name]()
    eb = spectral_decompose(op)
    f = np.random.default_rng(16).standard_normal((3, op.size))
    for zeta in (-1.0, 2.0 + 1.5j):
        assert np.array_equal(resolvent(op, zeta, f), eb.synthesize(
            eb.project(f) / (eb.eigenvalues - zeta)))


# ---------------------------------------------------------------------------
# which path each operator takes


def _decompose_and_solve(op):
    spectral_decompose(op)
    rng = np.random.default_rng(13)
    f = rng.standard_normal((2, op.size))
    resolvent(op, -1.0, f)
    resolvent(op, 2.0 + 1.5j, f)
    op.solve_shifted(0.0, f[0])


@pytest.mark.parametrize("name", ["sine1d-b0", "laminate2d-b0"])
def test_b0_takes_neither_lu_nor_eigensolver(name, solver_calls):
    _decompose_and_solve(CLOSED_FORM[name]())
    assert solver_calls == {"splu": 0, "eigh_tridiagonal": 0}


def _one_ulp_off(op):
    """op with its first diagonal entry moved up by one ulp."""
    matrix = op.matrix.tolil()
    matrix[0, 0] = np.nextafter(matrix[0, 0], np.inf)
    return DiscreteDirichletOperator(
        matrix, op.mesh, op.eps_tag, op.smallest_eig,
        bands=read_bands(matrix, op.mesh.m_int))


def _complex_constant_tridiagonal(M=63):
    """A complex hermitian tridiagonal operator with constant bands."""
    mesh = make_mesh([1.0], [M])
    sub = np.full(M - 1, -1.0 + 0.5j) / mesh.h[0] ** 2
    diag = np.full(M, 3.0) / mesh.h[0] ** 2
    matrix = sp.diags([sub, diag, sub.conj()], [-1, 0, 1], format="csr")
    return DiscreteDirichletOperator(matrix, mesh, "complex", 1.0,
                                     bands=((diag, sub),))


@pytest.mark.parametrize("name, eigh_tridiagonal", [
    ("laminate2d-b-eps", 0), ("sine1d-b0-one-ulp", 1), ("complex-tridiagonal", 1)])
def test_other_operators_keep_their_paths(name, eigh_tridiagonal,
                                         solver_calls):
    if name == "laminate2d-b-eps":
        op = assemble_b_eps(mesh_for([1.0, 1.5], 0.5 / 16),
                            catalog("laminate2d"), 0.5, LAT2)
    elif name == "sine1d-b0-one-ulp":
        op = _one_ulp_off(sine1d_b0())
    else:
        op = _complex_constant_tridiagonal()
    assert op.spectrum is None
    _decompose_and_solve(op)
    # one LU per shift: -1, 2 + 1.5j and 0
    assert solver_calls == {"splu": 3, "eigh_tridiagonal": eigh_tridiagonal}


def test_shift_at_closed_form_eigenvalue_raises():
    for op in (const_op(), laminate2d_b0()):
        zeta = float(op.spectrum.flat[3])
        with pytest.raises(NearSpectrumShift, match=r"is an eigenvalue"):
            resolvent(op, zeta, np.ones(op.size))


def _closed_form(matrix, m_int):
    return dst_spectrum(read_bands(matrix, m_int), m_int)


def test_dst_spectrum_needs_scalar_grid_operator():
    op = const_op(31)
    assert _closed_form(op.matrix, (31,)) is not None
    # a dof count that is not the grid's, or complex storage
    assert _closed_form(op.matrix, (30,)) is None
    assert _closed_form(op.matrix.astype(complex), (31,)) is None
    # a 2-D operator read on a 1-D grid is not tridiagonal
    t5 = sp.diags([-np.ones(4), np.full(5, 2.0), -np.ones(4)], [-1, 0, 1])
    lap2 = sp.kron(op.matrix, sp.identity(5)) + sp.kron(sp.identity(31), t5)
    assert _closed_form(lap2.tocsr(), (31, 5)) is not None
    assert _closed_form(lap2.tocsr(), (155,)) is None
    # a constant matrix that is not symmetric
    upper = sp.diags([np.full(30, -1.0), np.full(31, 2.0), np.full(30, -2.0)],
                     [-1, 0, 1], format="csr")
    assert _closed_form(upper, (31,)) is None
