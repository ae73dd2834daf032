"""The nested-dissection order of 2-D operators and the sparse LU taken in
it: the order splits every block at its middle grid line, the line
disconnects the block's halves, and solves in it match a minimum-degree
SuperLU reference with no more fill."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import oscillat.dirichlet as dirichlet_mod
from oscillat.dirichlet import (
    _LEAF_NODES,
    _dissection,
    DiscreteDirichletOperator,
    assemble_b_eps,
    coercive_margin,
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
    lu = dirichlet_mod._sparse_lu(A, zeta, op.order, name)[1]
    assert lu.U.dtype == shifted.dtype
    assert lu.nnz <= ref.nnz        # stored L + U entries


@pytest.mark.parametrize("name", ["checkerboard-smooth", "laminate2d-lower",
                                  "laminate-pair"])
def test_probe_lu_takes_the_operator_order(name, monkeypatch):
    # assembly certifies the margin of an operator without bands by one LU
    # in its order; the default ordering reaches the same verdict, and the
    # verdict is checked against dense eigenvalues elsewhere
    mesh, cs, eps, lat = _kernel_case(name)
    orders, sparse_lu = [], dirichlet_mod._sparse_lu

    def recording(matrix, shift, order, *args, **kwargs):
        orders.append(order)
        return sparse_lu(matrix, shift, order, *args, **kwargs)

    monkeypatch.setattr(dirichlet_mod, "_sparse_lu", recording)
    op = assemble_b_eps(mesh, cs, eps, lat)
    margin = coercive_margin(cs, max(mesh.box))
    assert op.bands is None and op.smallest_eig == margin
    assert len(orders) == 1 and np.array_equal(orders[0], op.order)
    assert smallest_eigenvalue(op.matrix, None, None, margin) == margin


def test_dissection_lu_of_a_raw_matrix():
    # unsorted columns, a position stored twice, or a diagonal entry that is
    # not stored: no assembly writes such a CSR, and its LU and its probe
    # are refused by name; rewritten with every position stored once, the
    # matrix factors in the dissection order
    mesh, cs, eps, lat = _kernel_case("laminate2d")
    A = assemble_b_eps(mesh, cs, eps, lat).matrix
    flip = np.concatenate([np.arange(s, e)[::-1]
                           for s, e in zip(A.indptr[:-1], A.indptr[1:])])
    unsorted = sp.csr_matrix((A.data[flip], A.indices[flip], A.indptr),
                             shape=A.shape)
    twice = A.copy()
    twice.data[0] *= 0.5
    twice = sp.csr_matrix((np.r_[twice.data[:1], twice.data],
                           np.r_[twice.indices[:1], twice.indices],
                           np.r_[0, twice.indptr[1:] + 1]), shape=A.shape)
    unstored = A.tolil()
    unstored[5, 5] = unstored[700, 700] = 0.0
    unstored = unstored.tocsr()
    assert unstored.nnz < A.nnz and unstored.has_canonical_format
    assert (unsorted != A).nnz == 0 and (twice != A).nnz == 0
    f = np.cos(np.arange(A.shape[0]))
    for raw in (unsorted, twice, unstored):
        op = DiscreteDirichletOperator(raw, mesh, "raw", 1.0)
        with pytest.raises(ValueError, match="raw: a sparse LU needs"):
            op.solve_shifted(-1.0, f)
        with pytest.raises(ValueError, match="sparse LU needs"):
            smallest_eigenvalue(raw, None, op.order, 0.5)
    coo, every = unstored.tocoo(), np.arange(A.shape[0])
    stored = sp.csr_matrix((np.r_[coo.data, np.zeros(every.size)],
                            (np.r_[coo.row, every], np.r_[coo.col, every])),
                           shape=A.shape)
    assert stored.has_canonical_format and stored.nnz == A.nnz
    op = DiscreteDirichletOperator(stored, mesh, "stored", 1.0)
    want = spla.spsolve((unstored + sp.identity(op.size)).tocsc(), f)
    assert np.linalg.norm(op.solve_shifted(-1.0, f) - want) \
        <= 1e-12 * np.linalg.norm(want)
