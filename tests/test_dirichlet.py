import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oscillat.errors import (
    ResolutionViolation,
    NotPositiveDefinite,
    MarginTooSmall,
    NearSpectrumShift,
)
from oscillat.lattice import build_lattice, unit_lattice
from oscillat.coefficients import (
    CoefficientSet,
    catalog,
    constant_field,
    eval_scaled_grid,
    field_from_function,
    make_symbol,
)
from oscillat.cell import solve_cell
from oscillat.dirichlet import (
    make_mesh,
    mesh_for,
    h1_norm,
    assemble_b_eps,
    assemble_b0,
    choose_lambda,
    coercive_margin,
    smallest_eigenvalue,
    _gershgorin_lower,
    build_extension,
    extend,
    _smoothstep,
    smooth,
    Corrector,
    resolvent,
    DiscreteDirichletOperator,
    _smoothing_factors,
    _sparse_lu,
    _stencil_form,
    _stencil_rows,
)
from oracles import (
    beyond_reach,
    blocks_csr,
    coo_principal_form,
    csr_symmetrized_b0,
    csr_symmetrized_b_eps,
    raw_operator,
    read_bands,
    steklov_tensor_rule,
)

LAT1 = unit_lattice(1)
LAT2 = unit_lattice(2)


def tridiag_laplacian(M, h):
    return sp.diags([np.full(M - 1, -1.0), np.full(M, 2.0),
                     np.full(M - 1, -1.0)], [-1, 0, 1]) / h ** 2


def dirichlet_laplacian_eigs(M, h, L):
    k = np.arange(1, M + 1)
    return (4.0 / h ** 2) * np.sin(k * np.pi * h / (2 * L)) ** 2


# ---------------------------------------------------------------------------
# assembly


def test_unit_coefficient_gives_standard_stencil():
    mesh = make_mesh([1.0], [31])
    op = assemble_b_eps(mesh, catalog("const", {"g": 1.0, "d": 1}), 1.0)
    ref = tridiag_laplacian(31, mesh.h[0])
    assert np.abs((op.matrix - ref).toarray()).max() == 0.0


def test_constant_coefficient_scales_linearly():
    mesh = make_mesh([1.0], [31])
    op = assemble_b_eps(mesh, catalog("const", {"g": 2.5, "d": 1}), 1.0)
    ref = 2.5 * tridiag_laplacian(31, mesh.h[0])
    assert np.abs((op.matrix - ref).toarray()).max() < 1e-12


def test_oscillating_probe_vs_dense_oracle():
    cs = catalog("sine1d")
    eps = 0.25
    mesh = mesh_for([1.0], eps / 16)
    op = assemble_b_eps(mesh, cs, eps, LAT1)
    dense_min = np.linalg.eigvalsh(op.matrix.toarray().real)[0]
    assert op.smallest_eig == pytest.approx(dense_min, rel=1e-10)
    g_min = 1.0
    assert op.smallest_eig >= g_min * np.pi ** 2 * 0.95


def test_assembly_is_hermitian_with_lower_order_terms():
    cs = catalog("sine1d", {"a_amp": 0.2, "q_amp": 0.3, "q_const": 0.1})
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    assert np.abs((op.matrix - op.matrix.conj().T).toarray()).max() == 0.0


def test_resolution_policy_enforced():
    cs = catalog("sine1d")
    mesh = make_mesh([1.0], [15])
    with pytest.raises(ResolutionViolation):
        assemble_b_eps(mesh, cs, 0.125, LAT1)


def test_2d_constant_positive_definite():
    cs = catalog("const", {"g": 1.0, "d": 2})
    mesh = make_mesh([1.0, 1.0], [15, 15])
    op = assemble_b_eps(mesh, cs, 1.0, LAT2)
    # Q1 Laplacian on the unit square: lowest eigenvalue near 2 pi^2
    assert op.smallest_eig == pytest.approx(2 * np.pi ** 2, rel=0.02)
    assert np.abs((op.matrix - op.matrix.conj().T).toarray()).max() < 1e-14


def test_b0_identity_and_sine_fixture():
    cs = catalog("sine1d")
    sol = solve_cell(cs, LAT1, 256)
    mesh = make_mesh([1.0], [63])
    op0 = assemble_b0(mesh, sol, cs)
    ref = np.sqrt(3.0) * tridiag_laplacian(63, mesh.h[0])
    assert np.abs((op0.matrix - ref).toarray()).max() < 1e-12

    csc = catalog("const", {"g": 1.0, "d": 1})
    solc = solve_cell(csc, LAT1, 32)
    opc = assemble_b0(mesh, solc, csc)
    assert np.abs((opc.matrix - tridiag_laplacian(63, mesh.h[0])).toarray()
                  ).max() < 1e-12


def test_b0_with_constant_a_hermitian():
    cs = catalog("sine1d", {"a_amp": 0.3})
    sol = solve_cell(cs, LAT1, 128)
    mesh = make_mesh([1.0], [63])
    # graft a constant lower-order block: mean(a) + mean(a)* enters B0
    op0 = assemble_b0(mesh, sol, cs)
    assert np.abs((op0.matrix - op0.matrix.conj().T).toarray()).max() == 0.0


# ---------------------------------------------------------------------------
# the stencil kernel against the cell-by-cell COO assembly


def _kernel_case(name):
    """(mesh, coefficients, eps, lattice) of one oracle fixture: the 1-D
    ones on a mesh of 63 nodes, the 2-D ones on 31 x 47 nodes."""
    if name.startswith("sine1d"):
        params = ({"a_amp": 0.3, "q_amp": 0.2} if name == "sine1d-q"
                  else {"a_amp": 0.3, "q_const": 0.5})
        return (mesh_for([1.0], 0.25 / 16), catalog("sine1d", params), 0.25,
                LAT1)
    if name == "matrix_system":
        from test_matrix_system import matrix_system
        return mesh_for([1.0], 0.25 / 16), matrix_system(), 0.25, LAT1
    lat = LAT2
    if name.endswith("-skew"):
        lat = build_lattice([[1.0, 0.0], [0.5, 1.0]])
    cs = (_laminate_pair_symbol_set() if name == "laminate-pair"
          else _laminate_lower_order_set() if name == "laminate2d-lower"
          else catalog(name.removesuffix("-skew")))
    return mesh_for([1.0, 1.5], 0.5 / 16), cs, 0.5, lat


def _laminate_lower_order_set():
    """laminate2d with complex first-order fields a_1, a_2 and a potential
    Q, all varying in both directions."""
    lam = catalog("laminate2d")
    return CoefficientSet(symbol=lam.symbol, g=lam.g, a=(
        field_from_function(lambda x, y: 0.3 * np.sin(2 * np.pi * y)
                            + 0.1j * np.cos(2 * np.pi * x), 2, 32),
        field_from_function(lambda x, y: 0.2 * np.cos(2 * np.pi * x) + 0.05,
                            2, 32)),
        Q=field_from_function(lambda x, y: 0.4 + 0.1 * np.cos(
            2 * np.pi * (x + y)), 2, 32, hermitian=True)).validate()


@pytest.mark.parametrize("name", ["sine1d", "matrix_system", "laminate2d",
                                  "checkerboard-smooth", "laminate2d-skew",
                                  "laminate-pair"])
def test_stencil_kernel_matches_coo_assembly(name):
    mesh, cs, eps, lat = _kernel_case(name)
    sol = solve_cell(cs, lat, 32)
    g_cells = eval_scaled_grid(cs.g, lat, eps, mesh.midpoint_axes())
    for g in (g_cells, sol.g0):
        form = blocks_csr(_stencil_form(mesh, cs.symbol, g), mesh)
        ref = coo_principal_form(mesh, cs.symbol, g)
        assert form.has_canonical_format
        assert np.array_equal(form.indptr, ref.indptr)
        assert np.array_equal(form.indices, ref.indices)
        scale = np.abs(ref.data).max()
        assert np.abs(form.data - ref.data).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", ["sine1d", "sine1d-q", "matrix_system",
                                  "laminate2d", "checkerboard-smooth",
                                  "laminate2d-skew", "laminate-pair",
                                  "laminate2d-lower"])
def test_one_writer_matches_the_csr_symmetrization(name):
    # every operator is written once from its neighbour blocks; the CSR
    # path it replaced (the lower-order terms as sparse products, then
    # (A + A^H) / 2 rebuilt in CSR) on the COO principal form is the
    # reference: the same pattern, the same data (bit for bit in d = 1),
    # and bands and norms read off the matrix agree with the blocks'
    mesh, cs, eps, lat = _kernel_case(name)
    sol = solve_cell(cs, lat, 32)
    if name.startswith("sine1d"):
        assert np.abs(sol.V).max() > 0 and np.abs(sol.W).max() > 0
    ops = (assemble_b_eps(mesh, cs, eps, lat), assemble_b0(mesh, sol, cs))
    refs = (csr_symmetrized_b_eps(mesh, cs, eps, lat, coo_principal_form),
            csr_symmetrized_b0(mesh, sol, cs, coo_principal_form))
    for op, ref in zip(ops, refs):
        A = op.matrix
        assert (A != A.conj().T).nnz == 0
        assert A.dtype == ref.dtype
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        if mesh.dim == 1:
            assert np.array_equal(A.data, ref.data)
            assert op.smallest_eig == smallest_eigenvalue(
                ref, read_bands(ref, mesh.m_int), None,
                coercive_margin(cs, max(mesh.box)))
        scale = np.abs(ref.data).max()
        assert np.abs(A.data - ref.data).max() <= 1e-14 * scale
        bands = read_bands(A, mesh.m_int)
        assert (op.bands is None) == (bands is None)
        for pair, ref_pair in zip(op.bands or (), bands or ()):
            for got, want in zip(pair, ref_pair):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for zeta in (0.0, -1.0, 2.0 + 1.5j):
            assert op.norm1(zeta) == pytest.approx(
                spla.norm(A - zeta * sp.identity(op.size), 1), rel=1e-14)


def test_assembly_memory_peak_laminate2d():
    # 223 x 223 = 49,729 unknowns, the finest resolvent-d2 case, with a
    # final CSR of 5.5 MB: a COO scatter over all nodes peaked near 70 MB,
    # the CSR symmetrization after assembly near 35 MB, and one writer on
    # the neighbour blocks peaks at 15.9 MB (the bound is that plus 25%)
    cs = catalog("laminate2d")
    sol = solve_cell(cs, LAT2, 32)
    mesh = mesh_for([1.0, 1.0], 1 / 14 / 16)
    assert mesh.n_nodes == 49729
    for assemble in (lambda: assemble_b_eps(mesh, cs, 1 / 14, LAT2),
                     lambda: assemble_b0(mesh, sol, cs)):
        tracemalloc.start()
        try:
            assemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 19.9e6


@pytest.mark.parametrize("d", [1, 2])
def test_factor_real_shift_stays_real(d):
    cs = catalog("sine1d") if d == 1 else catalog("laminate2d")
    lat = LAT1 if d == 1 else LAT2
    mesh = mesh_for([1.0] * d, 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, lat)
    A = op.matrix
    assert A.dtype == np.float64 and op.spectrum is None
    tracemalloc.start()
    try:
        op.factor(-1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lu = _sparse_lu(A, -1.0, op.order, "real")[1]
    assert lu.L.dtype == np.float64 and lu.U.dtype == np.float64
    if d == 2:  # the one copy P (A - zeta I) P^T, which SuperLU reads as
        # CSC; a CSC copy came to 2.1x, a complex copy to 4x
        assert peak <= 1.5 * (A.data.nbytes + A.indices.nbytes
                              + A.indptr.nbytes)
    # the same LU as factoring the complex copy A - (-1 + 0j) I's real part,
    # in d = 2 permuted to the operator's order, with its supernode sizes
    shifted = (op.matrix - complex(-1.0) * sp.identity(op.size, format="csr"))
    rhs = np.cos(np.arange(op.size))
    if d == 1:
        want = spla.splu(shifted.real.tocsc()).solve(rhs)
    else:
        p = op.order
        ref = spla.splu(shifted.real.tocsc()[p][:, p], permc_spec="NATURAL",
                        options=dict(SymmetricMode=True), relax=4,
                        panel_size=4)
        want = np.empty_like(rhs)
        want[p] = ref.solve(rhs[p])
    assert np.array_equal(op.solve_shifted(-1.0, rhs), want)


def test_choose_lambda_zero_when_unneeded():
    cs = catalog("sine1d")
    mesh = mesh_for([1.0], 0.125 / 16)
    ops = [assemble_b_eps(mesh, cs, eps, LAT1) for eps in (0.25, 0.125)]
    assert choose_lambda(ops, cs) == 0.0


def test_choose_lambda_negative_potential_oracle():
    # g = 1, Q = -q: spectrum k^2 pi^2 / L^2 - q, so the shift must beat
    # q - pi^2 plus the demanded margin
    q = 30.0
    cs = catalog("sine1d", {"base": 1.0, "amp": 0.0, "q_const": -q})
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    lam = choose_lambda([op], cs)
    eigs = dirichlet_laplacian_eigs(mesh.m_int[0], mesh.h[0], 1.0)
    margin = 0.25 * 0.25 * np.pi ** 2
    needed = margin - (eigs[0] - q)
    grid = [0.0] + [2.0 ** k for k in range(17)]
    expected = min(v for v in grid if v >= needed)
    assert lam == expected
    shifted = op.shifted(lam)
    assert smallest_eigenvalue(shifted.matrix, shifted.bands) > 0


def test_choose_lambda_small_perturbation():
    cs = catalog("sine1d", {"a_amp": 0.1})
    sol = solve_cell(cs, LAT1, 128)
    mesh = mesh_for([1.0], 0.125 / 16)
    ops = [assemble_b_eps(mesh, cs, eps, LAT1) for eps in (0.25, 0.125)]
    ops.append(assemble_b0(mesh, sol, cs))
    lam = choose_lambda(ops, cs)
    for op in ops:
        shifted = op.shifted(lam)
        assert smallest_eigenvalue(shifted.matrix, shifted.bands) > 0


def test_not_positive_definite_raises():
    cs = catalog("sine1d", {"base": 1.0, "amp": 0.0, "q_const": -50.0})
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    with pytest.raises(NotPositiveDefinite, match=r"eps=0\.25"):
        op.shifted(0.0)


def test_lambda_search_failed_beyond_grid():
    from oscillat.errors import LambdaSearchFailed

    cs = catalog("sine1d", {"base": 1.0, "amp": 0.0, "q_const": -2.0 ** 18})
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    with pytest.raises(LambdaSearchFailed, match=r"eps=0\.25"):
        choose_lambda([op], cs)


# ---------------------------------------------------------------------------
# extension


def test_extension_zero_and_identity():
    mesh = make_mesh([1.0], [63])
    ext = build_extension(mesh, 0.15)
    assert np.abs(extend(np.zeros(63), ext)).max() == 0.0
    u = np.sin(np.pi * mesh.axes()[0])
    assert np.abs(ext.restrict(extend(u, ext)) - u).max() == 0.0


def test_extension_reproduces_quadratics():
    # order-3 reflection continues any quadratic exactly: checked with the
    # cutoff divided out wherever it is positive
    mesh = make_mesh([1.0], [63])
    ext = build_extension(mesh, 0.1)
    x = mesh.axes()[0]
    u = x * (1.0 - x)
    vals = extend(u, ext)[:, 0]
    ax = ext.axes_ext()[0]
    cutoff = _smoothstep(np.maximum(np.maximum(-ax, ax - 1.0), 0.0)
                         / ext.margin)
    pos = cutoff > 0.0
    assert pos.sum() > mesh.n_nodes + 2     # reflected nodes are checked
    assert np.abs(vals[pos] / cutoff[pos] - (ax * (1.0 - ax))[pos]).max() < 1e-12


def test_extension_h1_bound_on_eigenvectors():
    cs = catalog("sine1d")
    eps = 0.125
    mesh = mesh_for([1.0], eps / 16)
    ext = build_extension(mesh, 2 * LAT1.r1 * eps)
    op = assemble_b_eps(mesh, cs, eps, LAT1)
    dense = op.matrix.toarray().real
    _, vecs = np.linalg.eigh(dense)
    ext_mesh = make_mesh([ext.axes_ext()[0][-1] - ext.axes_ext()[0][0]],
                         [ext.shape_ext[0] - 2])
    worst = 0.0
    for k in (0, 3, 10, 40):
        u = vecs[:, k]
        ue = extend(u, ext)[1:-1, :]
        ratio = h1_norm(ext_mesh, ue.ravel(), 1) / h1_norm(mesh, u, 1)
        worst = max(worst, ratio)
    assert worst <= 10.0


def test_extension_margin_too_small():
    mesh = make_mesh([1.0], [7])
    with pytest.raises(MarginTooSmall):
        build_extension(mesh, 0.9)


# ---------------------------------------------------------------------------
# steklov smoothing: smooth, read where it reads interior nodes only


def _smoothed(u, box, m_int, lat, eps, margin, n=1):
    """smooth of u, given on the interior nodes of the mesh as a function of
    the coordinates, at the nodes beyond the smoothing's reach."""
    mesh = make_mesh(box, m_int)
    nodes = np.meshgrid(*mesh.axes(), indexing="ij")
    out = smooth(u(*nodes).ravel(), build_extension(mesh, margin), lat, eps, n)
    return out[beyond_reach(mesh, eps * lat.r1)], mesh


def test_steklov_constant_unchanged():
    out, _ = _smoothed(np.ones_like, [1.0], [127], LAT1, 0.25, 0.2)
    assert out.size > 64
    assert np.abs(out - 1.0).max() < 1e-12


def test_steklov_linear_unchanged():
    # odd integrand over a symmetric cell cancels; multilinear interpolation
    # is exact on linear data, so the values beyond the reach match exactly
    out, mesh = _smoothed(lambda x: x - 1.0, [2.0], [255], LAT1, 0.25, 0.2)
    want = mesh.axes()[0][:, None] - 1.0
    assert np.abs(out - want[beyond_reach(mesh, 0.125)]).max() < 1e-12


def test_steklov_character_annihilated():
    # a character of the cell averages to zero: 256 nodes per period
    out, _ = _smoothed(lambda x: np.exp(2j * np.pi * x), [2.0], [511], LAT1,
                       1.0, 0.5)
    assert out.size > 200
    assert np.abs(out).max() < 1e-4


def test_steklov_contraction_bound():
    # |S_eps u - u| <= 1.1 eps r1 |Du| on band-limited periodic samples,
    # the left side beyond the reach, the right side on every node
    rng = np.random.default_rng(0)
    N = 256
    mesh = make_mesh([1.0], [N - 1])
    ext = build_extension(mesh, 0.125)
    x = mesh.axes()[0]
    ks = np.arange(1, 9)
    for eps in (0.25, 0.0625):
        inner = beyond_reach(mesh, eps * LAT1.r1)
        for _ in range(10):
            c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            u = (c * np.exp(2j * np.pi * np.outer(x, ks))).sum(axis=1)
            du = (c * 2j * np.pi * ks
                  * np.exp(2j * np.pi * np.outer(x, ks))).sum(axis=1)
            diff = smooth(u, ext, LAT1, eps) - u[:, None]
            lhs = np.linalg.norm(diff[inner])
            assert lhs <= 1.1 * eps * LAT1.r1 * np.linalg.norm(du)


@pytest.mark.parametrize("periodic", [False, True])
def test_steklov_matches_tensor_rule(periodic):
    # smooth runs per-axis sparse factors of interior nodes; the reference
    # is the 8^d-point tensor rule in one pass.  On every node smooth is
    # restrict(tensor rule(extend u)); beyond the reach it reads interior
    # nodes only, so there it is the periodic tensor rule of u itself
    rng = np.random.default_rng(12)
    mesh = make_mesh([1.0, 1.3], [47, 39])
    shape = (3,) + mesh.m_int + (2,)   # a stack of 3 functions with n = 2
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ext = build_extension(mesh, 0.3)
    for basis in (np.eye(2), np.diag([1.0, 1.3]), [[1.0, 0.0], [0.5, 1.0]]):
        lat = build_lattice(basis)
        got = smooth(mesh.from_grid(u), ext, lat, 0.3, n=2)
        if periodic:
            inner = beyond_reach(mesh, 0.3 * lat.r1)
            got, want = got[inner], steklov_tensor_rule(u, lat, 0.3, mesh.h,
                                                        True)[inner]
            assert got.size >= 3 * 2 * 10
        else:
            want = mesh.to_grid(ext.restrict(steklov_tensor_rule(
                extend(mesh.from_grid(u), ext, n=2), lat, 0.3, mesh.h,
                False)), 2)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_steklov_margin_check():
    mesh = make_mesh([1.0], [63])
    with pytest.raises(MarginTooSmall):
        smooth(np.ones(63), build_extension(mesh, 0.1), LAT1, 0.5)


@pytest.mark.parametrize("box, m_int, margin", [
    ([1.0], [63], 0.1), ([1.0], [159], 0.3), ([1.0, 2.0], [15, 31], 0.2)])
def test_unsmoothed_factors_read_off_the_mesh(box, m_int, margin):
    # R_k E_k and R_k D_k E_k equal the products through the extension's
    # E_k, on dyadic, non-dyadic and 2-D meshes, entry for entry
    ext = build_extension(make_mesh(box, m_int), margin)
    got = _smoothing_factors(ext, unit_lattice(len(box)), 0.25, False)
    assert len(got) == 1 and len(got[0]) == len(m_int)
    for pair, E, sl in zip(got[0], ext.factors, ext.interior_slices()):
        for diff, mine in zip((False, True), pair):
            want = _stencil_rows(E.shape[0], np.arange(E.shape[0])[sl],
                                 [(1.0, 0)], diff) @ E
            assert np.array_equal(mine.toarray(), want.toarray())


# ---------------------------------------------------------------------------
# corrector


def build_sine_fixture(eps=0.125, h_div=16):
    cs = catalog("sine1d")
    sol = solve_cell(cs, LAT1, 256)
    mesh = mesh_for([1.0], eps / h_div)
    ext = build_extension(mesh, 2 * LAT1.r1 * eps)
    return cs, sol, mesh, ext


def test_corrector_zero_when_correctors_vanish():
    cs = catalog("const", {"g": 2.0, "d": 1})
    sol = solve_cell(cs, LAT1, 32)
    mesh = mesh_for([1.0], 0.125 / 16)
    ext = build_extension(mesh, 2 * LAT1.r1 * 0.125)
    cor = Corrector(sol, 0.125, cs.symbol, ext, LAT1, smoothed=True)
    out = cor.apply(np.sin(np.pi * mesh.axes()[0]))
    assert np.abs(out).max() < 1e-14


def test_corrector_zero_on_constants():
    # constant data: b(D) term vanishes where the smoothing and the
    # difference read no extended node; LambdaTilde is zero
    eps = 0.125
    cs, sol, mesh, ext = build_sine_fixture(eps)
    x, h = mesh.axes()[0], mesh.h[0]
    for smoothed in (False, True):
        cor = Corrector(sol, eps, cs.symbol, ext, LAT1, smoothed=smoothed)
        out = cor.apply(np.ones(mesh.n_nodes))
        reach = eps * LAT1.r1 * smoothed + h
        inner = (x > reach) & (x < 1.0 - reach)
        assert inner.sum() > mesh.n_nodes // 2
        assert np.abs(out[inner]).max() < 1e-12
        assert np.abs(out).max() > 1e-2     # the extension reaches the rest


def test_corrector_hand_composed_oracle():
    # h well below eps/16 so interpolation bias sits under the 1e-6 target
    eps = 0.125
    cs, sol, mesh, ext = build_sine_fixture(eps, h_div=128)
    x = mesh.axes()[0]
    u = np.sin(np.pi * x)
    cor = Corrector(sol, eps, cs.symbol, ext, LAT1, smoothed=True)
    val = cor.apply(u)
    # oracle: zero-mean antiderivative of sqrt(3)/g - 1 by fine quadrature,
    # times the centered difference of the exact smoothed field
    y = np.linspace(0.0, 1.0, 200001)
    chi_p = np.sqrt(3.0) / (2 + np.sin(2 * np.pi * y)) - 1.0
    X = np.concatenate([[0.0], np.cumsum((chi_p[1:] + chi_p[:-1]) / 2)
                        * (y[1] - y[0])])
    X -= np.trapezoid(X, y)
    kappa = np.sin(np.pi * eps / 2) / (np.pi * eps / 2)
    ax = ext.axes_ext()[0]
    smoothed_exact = kappa * np.sin(np.pi * ax)
    h = mesh.h[0]
    dsm = np.zeros_like(ax)
    dsm[1:-1] = (smoothed_exact[2:] - smoothed_exact[:-2]) / (2 * h)
    sl = ext.interior_slices()[0]
    oracle = np.interp((x / eps) % 1.0, y, X) * dsm[sl]
    inner = (x > eps * LAT1.r1 + 2 * h) & (x < 1 - eps * LAT1.r1 - 2 * h)
    assert np.abs((val - oracle))[inner].max() < 1e-6


def test_corrector_margin_guard():
    cs, sol, mesh, ext = build_sine_fixture(0.125)
    with pytest.raises(MarginTooSmall):
        Corrector(sol, 0.5, cs.symbol, ext, LAT1)


# ---------------------------------------------------------------------------
# resolvent


def test_resolvent_roundtrip():
    cs = catalog("sine1d")
    mesh = mesh_for([1.0], 0.125 / 16)
    op = assemble_b_eps(mesh, cs, 0.125, LAT1)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(op.size)
    f = op.matrix @ v
    assert np.abs(resolvent(op, 0.0, f) - v).max() < 1e-10


def test_resolvent_laplacian_eigen_oracle():
    csc = catalog("const", {"g": 1.0, "d": 1})
    mesh = make_mesh([1.0], [63])
    op = assemble_b_eps(mesh, csc, 1.0, LAT1)
    M, h = 63, mesh.h[0]
    x = mesh.axes()[0]
    mu = dirichlet_laplacian_eigs(M, h, 1.0)
    # build f with known discrete sine expansion, solve (A + I) u = f
    coeffs = np.array([1.0, -0.5, 0.25])
    modes = [np.sin((k + 1) * np.pi * x) for k in range(3)]
    f = sum(c * m for c, m in zip(coeffs, modes))
    u = resolvent(op, -1.0, f)
    expected = sum(c / (mu[k] + 1.0) * modes[k]
                   for k, c in enumerate(coeffs))
    assert np.abs(u - expected).max() < 1e-10


def _laminate2d_op():
    """laminate2d B_eps at eps 1/2 on the box [1, 1.5] (31 x 47 nodes)."""
    return assemble_b_eps(mesh_for([1.0, 1.5], 0.5 / 16), catalog("laminate2d"),
                          0.5, LAT2)


def test_resolvent_complex_shift_residual():
    # complex shifts, and on 2-D a real shift inside the spectrum (A - zeta I
    # indefinite), through the one symmetric-mode LU of factor()
    op_1d = assemble_b_eps(mesh_for([1.0], 0.25 / 16), catalog("sine1d"),
                           0.25, LAT1)
    op_2d = _laminate2d_op()
    assert op_2d.smallest_eig < 200.5
    for op, zeta in ((op_1d, 2.0 + 1.5j), (op_2d, 2.0 + 1.5j), (op_2d, 200.5)):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(op.size)
        u = resolvent(op, zeta, f)
        res = op.matrix @ u - zeta * u - f
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(f)


def test_resolvent_2d_matches_default_ordering_lu():
    op = _laminate2d_op()
    rng = np.random.default_rng(8)
    f = rng.standard_normal((3, op.size))
    u = resolvent(op, -1.0, f)
    default = spla.splu((op.matrix + sp.identity(op.size)).tocsc())
    ref = default.solve(f.T).T
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)
    # stored L + U entries, read without building L or U
    assert _sparse_lu(op.matrix, -1.0, op.order, "nnz")[1].nnz \
        < 0.8 * default.nnz


def test_resolvent_real_for_real_shift():
    cs = catalog("sine1d")
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(op.size)
    u = resolvent(op, -1.0, f)
    assert np.isrealobj(u)


def test_resolvent_near_spectrum_raises():
    csc = catalog("const", {"g": 1.0, "d": 1})
    mesh = make_mesh([1.0], [63])
    op = assemble_b_eps(mesh, csc, 1.0, LAT1)
    mu1 = dirichlet_laplacian_eigs(63, mesh.h[0], 1.0)[0]
    rng = np.random.default_rng(5)
    f = rng.standard_normal(op.size)
    with pytest.raises(NearSpectrumShift):
        resolvent(op, mu1 + 1e-14, f)


def test_resolvent_residual_bound_holds_per_row(monkeypatch):
    # a stack whose second row is 1e6 times larger: a solve that is wrong
    # by 1e-7 relative on the small row only must still be refused, though
    # measured against the whole stack its residual is about 1e-13
    cs = catalog("sine1d")
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((2, op.size)) * np.array([[1.0], [1e6]])
    u = resolvent(op, -1.0, f)
    for row, f_row in zip(u, f):
        one = resolvent(op, -1.0, f_row)
        assert np.abs(row - one).max() <= 1e-12 * np.abs(one).max()
    corrupt_solver(monkeypatch, 1e-7)
    with pytest.raises(NearSpectrumShift, match="eps=0.25"):
        resolvent(op, -1.0, f)


def corrupt_solver(monkeypatch, rel):
    """Make every solver that factor returns scale the first row (or entry)
    of its solution by 1 + rel."""
    factor = DiscreteDirichletOperator.factor

    def corrupted_factor(self, zeta=0.0):
        solve = factor(self, zeta)

        def corrupted(rows):
            u = solve(rows)
            u[0] *= 1.0 + rel
            return u
        return corrupted

    monkeypatch.setattr(DiscreteDirichletOperator, "factor", corrupted_factor)


@pytest.mark.parametrize("closed_form", [True, False])
def test_solve_shifted_certifies_every_solve(closed_form, monkeypatch):
    # solve_shifted refuses a wrong solution by its backward error, whether
    # factor divides in a SineBasis or solves with a sparse LU: a vector
    # with one entry off by 1e-6 and the first row of a stack
    cs = (catalog("const", {"g": 1.0, "d": 1}) if closed_form
          else catalog("sine1d"))
    op = assemble_b_eps(mesh_for([1.0], 0.25 / 16), cs, 0.25, LAT1)
    assert (op.spectrum is not None) == closed_form
    f = np.random.default_rng(9).standard_normal((2, op.size))
    want = op.solve_shifted(-1.0, f)
    assert np.array_equal(op.factor(-1.0)(f), want)
    corrupt_solver(monkeypatch, 1e-6)
    for rhs in (f, f[1]):
        with pytest.raises(NearSpectrumShift, match="eps=0.25: backward"):
            op.solve_shifted(-1.0, rhs)


def test_resolvent_accepts_backward_stable_fine_mesh_solves():
    # sine1d at eps 1/1024 (16,383 unknowns): these probes' solves leave
    # relative residuals up to 3.2e-10, all from the conditioning of a fine
    # mesh; each solve's backward error is about 1e-16, so none is refused
    from oscillat.study import SweepConfig, _seeded_probes

    cs, eps = catalog("sine1d"), 1.0 / 1024
    mesh = mesh_for([1.0], eps / 16)
    ops = (assemble_b_eps(mesh, cs, eps, LAT1),
           assemble_b0(mesh, solve_cell(cs, LAT1, 256), cs))
    for idx in (3, 4):
        f = _seeded_probes(SweepConfig(), idx, mesh, 1)
        for op in ops:
            u = resolvent(op, -1.0, f)
            res = np.linalg.norm((op.matrix @ u.T).T + u - f, axis=1)
            assert (res / np.linalg.norm(f, axis=1)).max() > 1e-10
    # a shift within rounding of an eigenvalue is still refused on the LU
    # path, where the solve is backward stable too
    op = assemble_b_eps(mesh_for([1.0], 0.25 / 16), cs, 0.25, LAT1)
    mu = scipy.linalg.eigvalsh(op.matrix.toarray())[2]
    f = np.random.default_rng(7).standard_normal(op.size)
    with pytest.raises(NearSpectrumShift, match="eps=0.25"):
        resolvent(op, mu, f)


def test_norm1_matches_the_shifted_matrix_norm_and_is_cached():
    # complex hermitian 1-D and real 2-D, real and complex shifts; the
    # off-diagonal column sums, which no shift moves, are read once
    op_1d = assemble_b_eps(mesh_for([1.0], 0.25 / 16),
                           catalog("sine1d", {"a_amp": 0.2}), 0.25, LAT1)
    for op in (op_1d, _laminate2d_op()):
        for zeta in (0.0, -1.0, 2.0 + 1.5j, 1e6):
            ref = spla.norm(op.matrix - zeta * sp.identity(op.size), 1)
            assert op.norm1(zeta) == pytest.approx(ref, rel=1e-14)
        assert "off_diagonal_sums" in vars(op)


def test_smallest_eigenvalue_probe_matches_dense():
    cs = catalog("sine1d", {"a_amp": 0.2})
    mesh = mesh_for([1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, cs, 0.25, LAT1)
    dense = np.linalg.eigvalsh(op.matrix.toarray())[0]
    assert smallest_eigenvalue(op.matrix, op.bands) == pytest.approx(
        dense, rel=1e-8)


@pytest.mark.parametrize("params", [None, {"a_amp": 0.2}])
def test_sturm_probe_matches_dense(params, monkeypatch):
    eps = 1 / 64
    op = assemble_b_eps(mesh_for([1.0], eps / 16), catalog("sine1d", params),
                        eps, LAT1)
    assert op.size >= 1023
    dense = np.linalg.eigvalsh(op.matrix.toarray())[0]

    def no_dense(*args, **kwargs):
        raise AssertionError("tridiagonal matrix took the dense probe")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense)
    assert smallest_eigenvalue(op.matrix, op.bands) == pytest.approx(
        dense, rel=1e-8)


def _laplacian_2d(M):
    h = 1.0 / (M + 1)
    T = tridiag_laplacian(M, h)
    eye = sp.identity(M)
    return (sp.kron(T, eye) + sp.kron(eye, T)).tocsr(), h


def test_sparse_probe_certifies_margins_below_the_laplacian_eigenvalue():
    # without bands, one LU of A - margin I certifies any margin below the
    # lowest eigenvalue, here known in closed form, and refuses one just
    # above it: the probe is then the Gershgorin bound, 0 for the Laplacian
    A, h = _laplacian_2d(65)  # 4225 unknowns
    exact = 2 * dirichlet_laplacian_eigs(65, h, 1.0)[0]
    for margin in (0.0, 0.25 * exact, exact * (1 - 1e-9)):
        assert smallest_eigenvalue(A, margin=margin) == margin
    for margin in (exact * (1 + 1e-9), 2 * exact):
        assert smallest_eigenvalue(A, margin=margin) == 0.0
    assert _gershgorin_lower(A) == 0.0


def test_probe_rejects_indefinite_matrix_above_dense_limit():
    # -10 is the smallest eigenvalue but 0.1 the one nearest zero
    size = 5002
    diag = sp.diags(np.concatenate([[-10.0, 0.1], np.ones(size - 2)]),
                    format="csr")
    corner = sp.coo_matrix(([0.01, 0.01], ([0, size - 1], [size - 1, 0])),
                           shape=(size, size))
    shifted_laplacian = _laplacian_2d(71)[0] - 40.0 * sp.identity(71 * 71)
    for A in (diag, (diag + corner).tocsr(), shifted_laplacian.tocsr()):
        m = make_mesh([1.0], [A.shape[0]])
        assert smallest_eigenvalue(A, read_bands(A, m.m_int)) <= 0.0
        with pytest.raises(NotPositiveDefinite):
            raw_operator(A, m, 1.0).shifted(0.0)
    assert smallest_eigenvalue(diag, read_bands(diag, (size,))) \
        == pytest.approx(-10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the separable d=2 probe


def _block_eigenvalues(split, m2):
    """Eigenvalues of every DST block Ta + 2 cos(j pi/(M2+1)) To."""
    (d_a, s_a), (d_o, s_o) = split
    c = 2.0 * np.cos(np.arange(1, m2 + 1) * np.pi / (m2 + 1))
    return np.sort(np.concatenate([scipy.linalg.eigvalsh_tridiagonal(
        d_a + cj * d_o, np.abs(s_a + cj * s_o)) for cj in c]))


def test_separable_probe_matches_dense_on_laminate():
    # box [1, 1.5]: 31 x 47 interior nodes, so a mixed-up axis shows
    cs = catalog("laminate2d")
    sol = solve_cell(cs, LAT2, 32)
    eps = 0.5
    mesh = mesh_for([1.0, 1.5], eps / 16)
    assert mesh.m_int == (31, 47)
    for op in (assemble_b_eps(mesh, cs, eps, LAT2), assemble_b0(mesh, sol, cs)):
        dense = np.linalg.eigvalsh(op.matrix.toarray())
        split = read_bands(op.matrix, mesh.m_int)
        assert split is not None and len(split) == 2
        blocks = _block_eigenvalues(split, mesh.m_int[1])
        assert np.abs(blocks - dense).max() <= 1e-12 * dense[-1]
        assert blocks[0] == pytest.approx(dense[0], rel=1e-12)
        assert op.smallest_eig == pytest.approx(dense[0], rel=1e-12)
        # flipping the sign of every other x2 line flips To, a similarity
        # that moves the lowest block to the other end of the cosines
        flip = sp.kron(sp.identity(mesh.m_int[0]),
                       sp.diags((-1.0) ** np.arange(mesh.m_int[1])))
        flipped = (flip @ op.matrix @ flip).tocsr()
        assert smallest_eigenvalue(
            flipped, read_bands(flipped, mesh.m_int)) == pytest.approx(
                dense[0], rel=1e-12)


def test_separable_probe_rejects_indefinite_operator():
    op = _laminate2d_op()
    mesh = op.mesh
    A = (op.matrix - (op.smallest_eig + 50.0) * sp.identity(op.size)).tocsr()
    bands = read_bands(A, mesh.m_int)
    assert bands is not None
    dense_min = np.linalg.eigvalsh(A.toarray())[0]
    probe = smallest_eigenvalue(A, bands)
    assert probe <= 0.0
    assert probe == pytest.approx(dense_min, rel=1e-12)
    with pytest.raises(NotPositiveDefinite):
        raw_operator(A, mesh, 0.5).shifted(0.0)


def _laminate_pair_symbol_set():
    """n = 2 laminate on d = 2: b(D) the gradient of a 2-vector (m = 4)."""
    b1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    b2 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = field_from_function(
        lambda x, y: (2.0 + np.sin(2 * np.pi * x))[..., None, None] * np.eye(4),
        2, 32, hermitian=True, positive=True)
    return CoefficientSet(symbol=make_symbol([b1, b2]), g=g).validate()


@pytest.mark.parametrize("fixture", ["laminate2d", "checkerboard-smooth",
                                     "laminate2d-skew", "laminate-pair"])
def test_probe_path_separable_or_lu(fixture, monkeypatch):
    # only the scalar laminate on the unit lattice separates; the others,
    # and every call without bands, take exactly one symmetric-mode LU
    lat = LAT2
    if fixture == "laminate-pair":
        cs = _laminate_pair_symbol_set()
    else:
        cs = catalog(fixture.removesuffix("-skew"))
    if fixture.endswith("-skew"):
        lat = build_lattice([[1.0, 0.0], [0.5, 1.0]])
    mesh = mesh_for([1.0, 1.5], 0.5 / 16)
    A = assemble_b_eps(mesh, cs, 0.5, lat).matrix
    dense_min = np.linalg.eigvalsh(A.toarray())[0]
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    separates = fixture == "laminate2d"
    bands = read_bands(A, mesh.m_int)
    assert (bands is not None) == separates
    margin = coercive_margin(cs, 1.5)
    probe = smallest_eigenvalue(A, bands, None, margin)
    assert len(calls) == (0 if separates else 1)
    assert probe == (pytest.approx(dense_min, rel=1e-12) if separates
                     else margin)
    assert margin < dense_min
    assert smallest_eigenvalue(A, None, None, margin) == margin
    assert len(calls) == (1 if separates else 2)


def _probe_kind_case(kind):
    """(operator, coefficients) of one probe kind, at most 1,000 unknowns:
    Sturm counts, the separable split, the LU certificate of the margin,
    and the Gershgorin bound where the certificate fails."""
    if kind in ("sturm", "lu-matrix_system"):
        from test_matrix_system import matrix_system
        cs = catalog("sine1d") if kind == "sturm" else matrix_system()
        return assemble_b_eps(mesh_for([1.0], 0.25 / 16), cs, 0.25, LAT1), cs
    if kind == "gershgorin":
        return _below_margin_case()
    lat = build_lattice([[1.0, 0.0], [0.5, 1.0]]) if kind.endswith("skew") \
        else LAT2
    cs = catalog("checkerboard-smooth" if kind == "lu-checkerboard"
                 else "laminate2d")
    return assemble_b_eps(mesh_for([1.0, 1.0], 0.5 / 16), cs, 0.5, lat), cs


def _below_margin_case():
    """checkerboard-smooth B_eps (961 unknowns) with a constant potential
    that puts its lowest eigenvalue at 0.99 of the margin."""
    cs = catalog("checkerboard-smooth")
    mesh = mesh_for([1.0, 1.0], 0.5 / 16)
    lowest = np.linalg.eigvalsh(
        assemble_b_eps(mesh, cs, 0.5, LAT2).matrix.toarray())[0]
    q = 0.99 * coercive_margin(cs, 1.0) - lowest
    cs = CoefficientSet(symbol=cs.symbol, g=cs.g, Q=constant_field(
        [[q]], 2, hermitian=True)).validate()
    return assemble_b_eps(mesh, cs, 0.5, LAT2), cs


@pytest.mark.parametrize("kind", ["sturm", "separable", "lu-laminate2d-skew",
                                  "lu-checkerboard", "lu-matrix_system",
                                  "gershgorin"])
def test_probe_is_a_certified_lower_bound(kind):
    # smallest_eig never exceeds the lowest eigenvalue.  Dense eigvalsh is
    # backward stable, so the exact Sturm probes may sit above its result
    # by a few ulps of |A|_1 (6e-13 of 4.9e4 for sine1d); an estimate from
    # above, a Rayleigh quotient converged to 1e-8, sits 1.4e-8 to 1e-7
    # above it on the LU kinds, far beyond that tolerance
    op, cs = _probe_kind_case(kind)
    assert op.size <= 1000
    A = op.matrix
    dense = np.linalg.eigvalsh(A.toarray())[0]
    ulps = 1e-14 * spla.norm(A, 1)
    assert op.smallest_eig <= dense + ulps
    margin = coercive_margin(cs, max(op.mesh.box))
    if kind in ("sturm", "separable"):
        # the exact probes agree with dense eigvalsh to its backward error
        # only (7e-11 of 1.6e-10 here, 1.9e-12 relative with one BLAS
        # thread), and to 1e-12 relative with tridiagonal eigenvalues: of A
        # read off its matrix, or of every block Ta + c_j To, c_j =
        # 2 cos(j pi / (M_2 + 1)), j = 1 .. M_2, of the separable split
        bands = read_bands(A, op.mesh.m_int)
        assert len(op.bands) == len(bands) == (1 if kind == "sturm" else 2)
        (d_along, s_along), *across = bands
        m2 = op.size // d_along.size
        c = 2.0 * np.cos(np.pi * np.arange(1, m2 + 1) / (m2 + 1))
        d_across, s_across = across[0] if across else (0.0, 0.0)
        exact = min(scipy.linalg.eigvalsh_tridiagonal(
            d_along + cj * d_across, np.abs(s_along + cj * s_across))[0]
            for cj in (c if across else [0.0]))
        assert op.smallest_eig == pytest.approx(exact, rel=1e-12)
        assert op.smallest_eig == pytest.approx(dense, rel=0.0, abs=ulps)
    elif kind == "gershgorin":
        assert op.bands is None and op.smallest_eig == _gershgorin_lower(A)
        assert op.smallest_eig < margin
    else:
        assert op.bands is None and op.smallest_eig == margin < dense


def test_certificate_fails_just_below_margin_and_the_shift_lifts_it():
    # lowest eigenvalue 0.99 of the margin: A - margin I is indefinite, so
    # the probe is the Gershgorin bound, and choose_lambda takes the least
    # shift of its grid that lifts that bound to the margin
    op, cs = _below_margin_case()
    margin = coercive_margin(cs, 1.0)
    dense = np.linalg.eigvalsh(op.matrix.toarray())[0]
    assert dense == pytest.approx(0.99 * margin, rel=1e-9)
    assert op.smallest_eig == _gershgorin_lower(op.matrix) < dense
    lam = choose_lambda([op], cs)
    grid = [0.0] + [2.0 ** k for k in range(17)]
    assert lam == min(v for v in grid if op.smallest_eig + v >= margin)
    assert lam > 0 and op.shifted(lam).smallest_eig >= margin
