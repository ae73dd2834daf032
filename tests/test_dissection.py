"""The nested-dissection order of 2-D operators and the sparse LU taken in
it: the order splits every block at its middle grid line, the line
disconnects the block's halves, and solves in it match a minimum-degree
SuperLU reference with no more fill."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

from oscillat.dirichlet import (
    _LEAF_NODES,
    _dissection,
    DiscreteDirichletOperator,
    assemble_b_eps,
    smallest_eigenvalue,
)
from test_dirichlet import _kernel_case


def nine_point_pattern(m_int, n):
    """The pattern of every operator on the 3 x 3 neighbours of each node of
    the M_1 x M_2 grid, n components per node."""
    tri = [sp.diags([np.ones(M - 1), np.ones(M), np.ones(M - 1)], [-1, 0, 1],
                    shape=(M, M)) for M in m_int]
    return (sp.kron(sp.kron(*tri), np.ones((n, n))) != 0).tocsr()


def assert_line_dissection(p, m_int, n, pattern):
    """p is a permutation of the dofs that keeps each node's n components
    adjacent, and a block of more than _LEAF_NODES nodes, the grid first,
    ends with its middle grid line across its longer side (a row line on a
    tie) in node order, after its two halves, which are blocks in turn and
    which no stored entry of the pattern couples."""
    M1, M2 = m_int
    assert p.dtype == np.int32
    assert np.array_equal(np.sort(p), np.arange(M1 * M2 * n))
    dofs = p.reshape(-1, n)
    assert (dofs % n == np.arange(n)).all() and (np.diff(dofs) == 1).all()
    nodes = dofs[:, 0] // n
    blocks = [(0, M1 * M2, (0, M1), (0, M2))]   # positions, rows, columns
    while blocks:
        a, b, rows, cols = blocks.pop()
        grid = np.add.outer(np.arange(*rows) * M2, np.arange(*cols))
        assert np.array_equal(np.sort(nodes[a:b]), grid.ravel())
        if grid.size <= _LEAF_NODES:
            continue
        axis = int(grid.shape[1] > grid.shape[0])
        half = grid.shape[axis] // 2
        line = np.take(grid, half, axis=axis)
        assert np.array_equal(nodes[b - line.size:b], line)
        mid = a + half * line.size
        first, second = dofs[a:mid].ravel(), dofs[mid:b - line.size].ravel()
        beyond = np.zeros(pattern.shape[0], dtype=bool)
        beyond[second] = True
        assert not beyond[pattern[first].indices].any()
        lo = (rows, cols)[axis][0]
        for start, end, span in ((a, mid, (lo, lo + half)),
                                 (mid, b - line.size,
                                  (lo + half + 1, (rows, cols)[axis][1]))):
            blocks.append((start, end) + ((span, cols) if axis == 0
                                          else (rows, span)))


sides = st.integers(min_value=1, max_value=64)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(M1=sides, M2=sides, n=st.sampled_from([1, 2]))
@example(M1=1, M2=1, n=1)
@example(M1=1, M2=64, n=2)
@example(M1=37, M2=1, n=1)
@example(M1=2, M2=2, n=2)
@example(M1=5, M2=5, n=1)
def test_dissection_separates_every_block(M1, M2, n):
    m_int = (M1, M2)
    assert_line_dissection(_dissection(m_int, n), m_int, n,
                           nine_point_pattern(m_int, n))


#: 2-D operators on 31 x 47 nodes: scalar real ones on the unit and on a
#: skew lattice, one with complex first-order coefficients, one with n = 2
FIXTURES = ["laminate2d", "checkerboard-smooth", "laminate2d-skew",
            "laminate2d-lower", "laminate-pair"]


@pytest.mark.parametrize("zeta", [-1.0, 2.0 + 1.5j])
@pytest.mark.parametrize("name", FIXTURES)
def test_dissection_lu_matches_minimum_degree(name, zeta):
    mesh, cs, eps, lat = _kernel_case(name)
    op = assemble_b_eps(mesh, cs, eps, lat)
    A, n = op.matrix, op.size // mesh.n_nodes
    assert A.dtype.kind == ("c" if name == "laminate2d-lower" else "f")
    assert ((A != 0) > nine_point_pattern(mesh.m_int, n)).nnz == 0
    assert_line_dissection(op.order, mesh.m_int, n, A)
    shifted = (A - zeta * sp.identity(op.size, format="csr")).tocsc()
    ref = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                    options=dict(SymmetricMode=True))
    f = np.random.default_rng(11).standard_normal((3, op.size))
    want = ref.solve(f.T.astype(shifted.dtype)).T
    got = op.solve_shifted(zeta, f)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    lu, real_ok = op.factor(zeta)
    assert real_ok == (shifted.dtype.kind == "f")
    assert lu.lu.nnz <= ref.nnz     # stored L + U entries


@pytest.mark.parametrize("name", ["checkerboard-smooth", "laminate2d-lower",
                                  "laminate-pair"])
def test_probe_lu_takes_the_operator_order(name):
    # assembly probes an operator without bands in its order; the default
    # ordering's probe is checked against dense eigenvalues elsewhere
    mesh, cs, eps, lat = _kernel_case(name)
    op = assemble_b_eps(mesh, cs, eps, lat)
    assert op.bands is None
    assert op.smallest_eig == smallest_eigenvalue(op.matrix, None, op.order)
    assert op.smallest_eig == pytest.approx(smallest_eigenvalue(op.matrix),
                                            rel=1e-8)
    assert op.shifted(1.0).order is op.order


def test_dissection_lu_of_a_raw_matrix():
    # unsorted columns, and diagonal entries that are not stored: the LU
    # reads the matrix rewritten with every position stored once
    mesh, cs, eps, lat = _kernel_case("laminate2d")
    A = assemble_b_eps(mesh, cs, eps, lat).matrix.tolil()
    A[5, 5] = A[700, 700] = 0.0
    A = A.tocsr()
    assert A.nnz < assemble_b_eps(mesh, cs, eps, lat).matrix.nnz
    flip = np.concatenate([np.arange(s, e)[::-1]
                           for s, e in zip(A.indptr[:-1], A.indptr[1:])])
    raw = sp.csr_matrix((A.data[flip], A.indices[flip], A.indptr),
                        shape=A.shape)
    assert not raw.has_canonical_format
    op = DiscreteDirichletOperator(raw, mesh, "raw", 1.0)
    f = np.cos(np.arange(op.size))
    want = spla.spsolve((A + sp.identity(op.size)).tocsc(), f)
    assert np.linalg.norm(op.solve_shifted(-1.0, f) - want) \
        <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(op.matrix.indices, A.indices[flip])
