"""Property tests over random fixtures, lattices and meshes: assembled
operators are hermitian, their bands are read exactly when they have them,
the positivity probe certifies exactly the positive definite ones,
extension followed by restriction is the identity, and the closed-form DST
spectrum equals the dense one."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oscillat.errors import NotPositiveDefinite
from oscillat.lattice import build_lattice, unit_lattice
from oscillat.coefficients import catalog
from oscillat.dirichlet import (
    make_mesh,
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    smallest_eigenvalue,
    read_bands,
    build_extension,
    extend,
)
from oracles import raw_operator

#: few examples, drawn the same way on every run
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)
PER_LATTICE = settings(PROPERTY, max_examples=4)

LATTICES = {"d1": unit_lattice(1), "d2": unit_lattice(2),
            "d2-skew": build_lattice([[1.0, 0.0], [0.5, 1.0]])}


def bandlimited_operator(seed: int, lattice: str):
    """random-bandlimited B_eps: 63 unknowns in d=1, 31 x 31 in d=2."""
    lat = LATTICES[lattice]
    eps = 0.25 if lat.dim == 1 else 0.5
    cs = catalog("random-bandlimited", {"d": lat.dim, "seed": seed})
    return assemble_b_eps(mesh_for([1.0] * lat.dim, eps / 16), cs, eps, lat)


seeds = st.integers(min_value=0, max_value=2 ** 16)
every_lattice = pytest.mark.parametrize("lattice", sorted(LATTICES))


@every_lattice
@PER_LATTICE
@given(seed=seeds)
def test_assembled_operator_is_hermitian(seed, lattice):
    A = bandlimited_operator(seed, lattice).matrix
    assert (A != A.conj().T).nnz == 0


#: band pairs of random-bandlimited B_eps (a function of x1 alone): one in
#: d=1, the laminate split on the unit d=2 lattice, none on the skew one
BAND_PAIRS = {"d1": 1, "d2": 2, "d2-skew": 0}


def rebuilt(bands, m_int):
    """The matrix that read_bands bands describe."""
    tri = [sp.diags([sub, diag, sub.conj()], [-1, 0, 1])
           for diag, sub in bands]
    if len(tri) == 1:
        return tri[0]
    shift = sp.diags([np.ones(m_int[1] - 1)] * 2, [-1, 1])
    return sp.kron(tri[0], sp.identity(m_int[1])) + sp.kron(tri[1], shift)


@every_lattice
@PER_LATTICE
@given(seed=seeds, lam=st.sampled_from([1.0, 64.0]))
def test_bands_present_exactly_when_expected(seed, lattice, lam):
    op = bandlimited_operator(seed, lattice)
    m_int = op.mesh.m_int
    bands = read_bands(op.matrix, m_int)
    assert len(bands or ()) == BAND_PAIRS[lattice]
    assert (op.bands is None) == (bands is None)
    if bands is None:
        return
    assert (rebuilt(bands, m_int) != op.matrix).nnz == 0
    # a shift takes its bands from these, reading no matrix: they must
    # still rebuild its matrix exactly
    shifted = op.shifted(lam)
    assert (rebuilt(shifted.bands, m_int) != shifted.matrix).nnz == 0


@every_lattice
@PER_LATTICE
@given(seed=seeds, with_grid=st.booleans(),
       gap=st.floats(min_value=0.01, max_value=2.0))
def test_positivity_probe_certifies_exactly_the_definite(seed, lattice,
                                                          with_grid, gap):
    # every probe path: Sturm counts in d=1, the separable split on the
    # unit d=2 lattice, the LU inertia on the skew one or without bands
    op = bandlimited_operator(seed, lattice)

    def bands(matrix):
        return read_bands(matrix, op.mesh.m_int) if with_grid else None

    lowest = np.linalg.eigvalsh(op.matrix.toarray())[0]
    assert lowest > 0.0
    probe = smallest_eigenvalue(op.matrix, bands(op.matrix))
    assert probe == pytest.approx(lowest, rel=1e-8)
    indefinite = (op.matrix - (1.0 + gap) * lowest
                  * sp.identity(op.size)).tocsr()
    assert smallest_eigenvalue(indefinite, bands(indefinite)) <= 0.0
    with pytest.raises(NotPositiveDefinite):
        raw_operator(indefinite, op.mesh, 0.5).shifted(0.0)


@PROPERTY
@given(d=st.sampled_from([1, 2]), n=st.sampled_from([1, 2]),
       data=st.data())
def test_extension_then_restriction_is_identity(d, n, data):
    box = [data.draw(st.floats(min_value=0.5, max_value=2.0)) for _ in range(d)]
    m_int = [data.draw(st.integers(min_value=5, max_value=40))
             for _ in range(d)]
    mesh = make_mesh(box, m_int)
    # the largest margin whose pad the reflection stencil can source
    reach = min((M + 1) // 3 * h for M, h in zip(mesh.m_int, mesh.h))
    margin = data.draw(st.floats(min_value=0.05, max_value=1.0)) * reach
    ext = build_extension(mesh, margin)
    rng = np.random.default_rng(data.draw(seeds))
    u = (rng.standard_normal((3, mesh.n_nodes * n))
         + 1j * rng.standard_normal((3, mesh.n_nodes * n)))
    assert np.array_equal(ext.restrict(extend(u, ext, n)), u)


@PROPERTY
@given(d=st.sampled_from([1, 2]), data=st.data())
def test_dst_spectrum_matches_dense(d, data):
    g = [data.draw(st.floats(min_value=0.5, max_value=4.0)) for _ in range(d)]
    box = [data.draw(st.floats(min_value=0.5, max_value=2.0)) for _ in range(d)]
    m_int = [data.draw(st.integers(min_value=3, max_value=24))
             for _ in range(d)]
    coeffs = catalog("const", {"g": np.diag(g), "d": d})
    cell = SimpleNamespace(g0=np.diag(g).astype(complex),
                           V=np.zeros((d, 1)), W=np.zeros((1, 1)))
    op = assemble_b0(make_mesh(box, m_int), cell, coeffs)
    assert op.spectrum is not None
    assert op.spectrum.shape == tuple(m_int)
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    mu = np.sort(op.spectrum, axis=None)
    assert np.abs(mu - dense).max() <= 1e-12 * dense[-1]
