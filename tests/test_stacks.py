"""Row-stacked sweep kernels: the norms, the eigenbasis products, the
reflection, the seeded probes and the cosine rows take a whole stack in one
call and agree with one call per row, kept here as the reference loops."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillat.lattice import unit_lattice
from oscillat.coefficients import catalog
from oscillat.dirichlet import (
    make_mesh,
    mesh_for,
    assemble_b_eps,
    l2_norm,
    grad_sq,
    h1_norm,
    Corrector,
    _smoothstep,
    build_extension,
    extend,
)
from oscillat.evolution import (BlochBasis, EigenBasis, SineBasis, op_cosine,
                                spectral_decompose)
from oscillat.study import (
    SweepConfig,
    build_fixture,
    build_cases,
    _cosine_rows,
    _seeded_probes,
)
from oracles import read_bands

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# norms over the last axis


@PROPERTY
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2]),
       lead=st.lists(st.integers(min_value=1, max_value=4), min_size=0,
                     max_size=2),
       complex_=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_stacked_norms_equal_per_row_calls(d, n, lead, complex_, seed):
    mesh = make_mesh([1.0, 1.3][:d], [7, 5][:d])
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (mesh.n_nodes * n,)
    vec = rng.standard_normal(shape)
    if complex_:
        vec = vec + 1j * rng.standard_normal(shape)
    stacked = {"l2": l2_norm(mesh, vec), "h1": h1_norm(mesh, vec, n)}
    for name, norm in stacked.items():
        assert isinstance(norm, np.ndarray) if lead else isinstance(norm, float)
        assert np.shape(norm) == tuple(lead)
    for idx in np.ndindex(*lead):
        row = {"l2": l2_norm(mesh, vec[idx]), "h1": h1_norm(mesh, vec[idx], n)}
        for name, value in row.items():
            assert type(value) is float
            assert abs(np.asarray(stacked[name])[idx] - value) <= 1e-14 * value


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_norms_match_the_explicit_formulas(d, n, complex_):
    # one einsum per part replaces |x|^2, /h and abs temporaries
    mesh = make_mesh([1.0, 1.3][:d], [9, 6][:d])
    rng = np.random.default_rng(3 + d + 2 * n)
    shape = (3, 2, mesh.n_nodes * n)
    vec = rng.standard_normal(shape)
    if complex_:
        vec = vec + 1j * rng.standard_normal(shape)
    l2 = np.sqrt(mesh.sigma) * np.linalg.norm(vec, axis=-1)
    grid = mesh.to_grid(vec, n)
    grad = sum(mesh.sigma * np.sum(
        np.abs(np.diff(grid, axis=k - d - 1) / mesh.h[k]) ** 2,
        axis=tuple(range(-d - 1, 0))) for k in range(d))
    h1 = np.sqrt(l2 ** 2 + grad)
    for got, want in ((l2_norm(mesh, vec), l2), (grad_sq(mesh, vec, n), grad),
                      (h1_norm(mesh, vec, n), h1)):
        assert got.shape == want.shape == (3, 2)
        assert got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).min()


# ---------------------------------------------------------------------------
# eigenbasis products: one GEMM per stack, no conjugated copy of the basis


def _random_basis(size, complex_, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    if complex_:
        a = a + 1j * rng.standard_normal((size, size))
    q, _ = np.linalg.qr(a)
    return EigenBasis(np.arange(1.0, size + 1.0), q, source=None)


def _backend(name):
    """A basis of each backend: stored real or complex eigenvectors, the
    2-D DST-I, and the Floquet-Bloch basis of a complex, phased B_eps."""
    if name.startswith("eigen"):
        return _random_basis(64, name == "eigen-complex")
    if name == "sine-2d":
        op = assemble_b_eps(make_mesh([1.0, 1.3], [15, 20]),
                            catalog("const", {"g": 1.0, "d": 2}), 1.0,
                            unit_lattice(2))
        eb = spectral_decompose(op)
        assert isinstance(eb, SineBasis)
        return eb
    op = assemble_b_eps(mesh_for([1.0], 1 / 256),
                        catalog("sine1d", {"a_amp": 0.3}), 1 / 16,
                        unit_lattice(1))
    eb = spectral_decompose(op)
    assert isinstance(eb, BlochBasis) and eb.phase is not None
    return eb


@pytest.mark.parametrize("name", ["eigen-real", "eigen-complex", "sine-2d",
                                  "bloch-phased"])
def test_basis_products_of_a_stack_equal_per_slice_calls(name):
    # one row contract: a real or complex stack of rank 1 to 3 is flattened
    # into rows once, and each row equals its own call
    eb = _backend(name)
    rng = np.random.default_rng(1)
    for lead in ((), (4,), (2, 3)):
        for complex_ in (False, True):
            v = rng.standard_normal(lead + (eb.size,))
            if complex_:
                v = v + 1j * rng.standard_normal(v.shape)
            for fn in (eb.project, eb.synthesize):
                stacked = fn(v)
                assert stacked.shape == v.shape
                for idx in np.ndindex(*lead):
                    per_slice = fn(v[idx])
                    assert (np.abs(stacked[idx] - per_slice).max()
                            <= 1e-14 * np.abs(per_slice).max())


def test_complex_projection_copies_no_basis():
    eb = _random_basis(1023, complex_=True)
    v = np.random.default_rng(2).standard_normal((2, 1023))
    tracemalloc.start()
    try:
        coeffs = eb.project(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6       # a conjugated copy of the basis is 16.7 MB
    assert np.array_equal(coeffs, v @ eb.eigenvectors.conj())


# ---------------------------------------------------------------------------
# reflection: the per-axis factors against the layer loop


def _reflect_axis_loop(values, d, axis, pad, m_int):
    """One layer at a time, as the reflection was first written."""
    left_face = pad
    right_face = pad + m_int + 1
    v = np.moveaxis(values, axis - d - 1, 0)    # a view, grid axis first
    for j in range(1, pad + 1):
        v[left_face - j] = (6.0 * v[left_face + j] - 8.0 * v[left_face + 2 * j]
                            + 3.0 * v[left_face + 3 * j])
        v[right_face + j] = (6.0 * v[right_face - j]
                             - 8.0 * v[right_face - 2 * j]
                             + 3.0 * v[right_face - 3 * j])
    return values


@pytest.mark.parametrize("m_int, pad", [((17,), (6,)), ((17,), (1,)),
                                         ((14, 11), (5, 4))])
def test_extension_matches_the_layer_loop(m_int, pad):
    # extend is the products of its per-axis factors, which sum each
    # reflected value in column order and carry the cutoff in their
    # entries, so it agrees with the loop times the cutoff to rounding.
    # 3 pad = M + 1 on every axis: the farthest source is the boundary node
    d, n = len(m_int), 2
    mesh = make_mesh([1.0] * d, list(m_int))
    ext = build_extension(mesh, min((p - 0.5) * h for p, h in zip(pad, mesh.h)))
    assert ext.pad == pad
    rng = np.random.default_rng(3)
    u = (rng.standard_normal((4, mesh.n_nodes * n))
         + 1j * rng.standard_normal((4, mesh.n_nodes * n)))
    want = np.zeros((4,) + ext.shape_ext + (n,), dtype=complex)
    want[(..., *ext.interior_slices(), slice(None))] = mesh.to_grid(u, n)
    for axis in range(d):
        _reflect_axis_loop(want, d, axis, pad[axis], m_int[axis])
    cutoff = functools.reduce(np.multiply.outer, [
        _smoothstep(np.maximum(np.maximum(-x, x - L), 0.0) / ext.margin)
        for x, L in zip(ext.axes_ext(), mesh.box)])
    want *= cutoff[..., None]
    got = extend(u, ext, n)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# ---------------------------------------------------------------------------
# seeded probes and cosine rows


def test_seeded_probes_are_the_per_probe_draws():
    mesh = make_mesh([1.0], [255])
    cfg = SweepConfig(seed=11, n_probe=7)
    rng = np.random.default_rng((cfg.seed, 2))
    want = []
    for _ in range(7):
        f = rng.standard_normal(mesh.n_nodes)
        want.append(f / l2_norm(mesh, f))
    assert np.array_equal(_seeded_probes(cfg, 2, mesh, 1), np.array(want))


def _cosine_rows_loop(fix, cfg, idx, case):
    """One cosine call per vector and one norm per (probe, time)."""
    sym, n = fix.coeffs.symbol, fix.coeffs.symbol.n
    t_list = [t for t in cfg.t_list if t != 0.0]
    cor = Corrector(fix.cell, case.eps, sym, case.ext, fix.lat, smoothed=True)
    eb_eps = spectral_decompose(case.op_eps)
    eb_0 = spectral_decompose(case.op_0)
    rows = {"cos_h1_corrector": [], "cos_plain_h1": []}
    for f in _seeded_probes(cfg, idx, case.mesh, n):
        y0 = case.op_0.solve_shifted(0.0, f)
        y00 = case.op_0.solve_shifted(0.0, y0)
        y_eps = case.op_eps.solve_shifted(0.0, y0)
        w_0 = op_cosine(eb_0, t_list, y00)
        corrected = w_0 + case.eps * cor.apply(w_0)
        w_eps = op_cosine(eb_eps, t_list, y_eps)
        w_plain = op_cosine(eb_eps, t_list, y00)
        for i, t in enumerate(t_list):
            rows["cos_h1_corrector"].append(
                (case.eps, t, h1_norm(case.mesh, w_eps[i] - corrected[i], n)))
            rows["cos_plain_h1"].append(
                (case.eps, t, h1_norm(case.mesh, w_plain[i] - w_0[i], n)))
    return rows


@pytest.mark.parametrize("params", [{}, {"a_amp": 0.3}])
def test_cosine_rows_match_the_per_probe_loop(params):
    # a_amp makes both operators complex: the stored and the closed-form
    # bases of the real fixture, the complex stored bases of the other
    cfg = SweepConfig(fixture="sine1d", fixture_params=params, cell_n=64,
                      t_list=(0.0, 0.5, 1.0, 2.0), n_probe=5)
    fix = build_fixture(cfg)
    for idx, case in enumerate(build_cases(fix, cfg, [0.125, 0.0625])):
        got = _cosine_rows(fix, cfg, idx, case)
        want = _cosine_rows_loop(fix, cfg, idx, case)
        assert list(got) == list(want)
        for tag in want:
            assert [r[:2] for r in got[tag]] == [r[:2] for r in want[tag]]
            assert len(want[tag]) == 5 * 3
            for (_, _, a), (_, _, b) in zip(got[tag], want[tag]):
                assert type(a) is float
                assert abs(a - b) <= 1e-11 * b


@pytest.mark.parametrize("params", [{}, {"a_amp": 0.3}])
def test_cosine_rows_solve_each_probe_stack_once(params):
    # the three solves of a case run on its probe stack and give the rows
    # of one solve per probe; the real fixture keeps its paths real
    cfg = SweepConfig(fixture="sine1d", fixture_params=params, cell_n=64,
                      t_list=(0.5, 1.0, 2.0), n_probe=5)
    fix = build_fixture(cfg)
    for idx, case in enumerate(build_cases(fix, cfg, [0.125, 0.0625])):
        got = _cosine_rows(fix, cfg, idx, case)
        calls = []

        def per_probe(solve):
            def rows(zeta, rhs):
                calls.append(len(rhs))
                return np.array([solve(zeta, f) for f in rhs])
            return rows

        for op in (case.op_0, case.op_eps):
            op.solve_shifted = per_probe(op.solve_shifted)
        want = _cosine_rows(fix, cfg, idx, case)
        assert calls == [5, 5, 5]           # B0 twice, B_eps once
        for tag in want:
            assert [r[:2] for r in got[tag]] == [r[:2] for r in want[tag]]
            for (_, _, a), (_, _, b) in zip(got[tag], want[tag]):
                assert abs(a - b) <= 1e-14 * b
        cor = Corrector(fix.cell, case.eps, fix.coeffs.symbol, case.ext,
                        fix.lat)
        w = np.ones((2, case.mesh.n_nodes))
        assert cor.apply_ext(w).dtype == (np.complex128 if params
                                          else np.float64)


# ---------------------------------------------------------------------------
# the band reader decides the split from the CSR arrays, exactly


def test_band_reader_refuses_a_one_ulp_or_wide_x2_coupling():
    mesh = mesh_for([1.0, 1.0], 0.25 / 16)
    op = assemble_b_eps(mesh, catalog("laminate2d"), 0.25, unit_lattice(2))
    m2 = mesh.m_int[1]
    assert len(read_bands(op.matrix, mesh.m_int)) == 2
    row = 7 * m2 + 4                        # node (7, 4), away from faces
    # one ulp on an x2 coupling (To), and on an entry of Ta
    for col in (row + 1, row - 1, row + m2 + 1, row - m2 - 1, row, row + m2):
        moved = op.matrix.copy()
        moved[row, col] = np.nextafter(moved[row, col], np.inf)
        assert read_bands(moved, mesh.m_int) is None
    # x2 offset 2, on and off the line, and x2 offset 1 wrapping from the
    # last node of one line to the first of the next
    for r, c in ((row, row + 2), (row, row - m2 + 2), (8 * m2 - 1, 8 * m2)):
        wide = op.matrix.tolil()
        wide[r, c] = 1e-300
        assert read_bands(wide.tocsr(), mesh.m_int) is None
    # an explicit zero is no coupling
    explicit = op.matrix.tolil()
    explicit[row, row + 2] = 12345.0
    explicit = explicit.tocsr()
    explicit.data[explicit.data == 12345.0] = 0.0
    assert explicit.nnz > op.matrix.nnz
    assert len(read_bands(explicit, mesh.m_int)) == 2
