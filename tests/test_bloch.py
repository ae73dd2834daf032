"""The Floquet-Bloch backend: a d=1 operator whose bands repeat exactly
with a period dividing N + 1 gets its eigenbasis from p x p Floquet
matrices and FFTs, and agrees with the dense spectrum and with ?stevd."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from oscillat import evolution
from oscillat.errors import EigSolverFailure
from oscillat.lattice import unit_lattice
from oscillat.coefficients import catalog
from oscillat.dirichlet import mesh_for, assemble_b_eps
from oscillat.evolution import (
    BlochBasis,
    EigenBasis,
    certify,
    spectral_decompose,
    op_cosine,
    op_sine_scaled,
    op_inv_sqrt,
    solve_ibvp,
)

LAT1 = unit_lattice(1)

FIXTURES = {
    "sine1d": ("sine1d", None),
    "sine1d-a_amp": ("sine1d", {"a_amp": 0.2}),
    "sine1d-q": ("sine1d", {"q_const": 1.0, "q_amp": 0.5}),
    "random-bandlimited": ("random-bandlimited", None),
}

CASES = [(name, eps) for name in FIXTURES for eps in (1 / 64, 1 / 128)]


@functools.cache
def b_eps(name, eps):
    """B_eps of a catalog fixture at h = eps/16: 16 nodes per period."""
    fixture, params = FIXTURES[name]
    return assemble_b_eps(mesh_for([1.0], eps / 16), catalog(fixture, params),
                          eps, LAT1)


@functools.cache
def bloch(name, eps):
    eb = spectral_decompose(b_eps(name, eps))
    assert isinstance(eb, BlochBasis)
    return eb


@pytest.mark.parametrize("name, eps", CASES)
def test_bloch_eigenvalues_match_dense(name, eps):
    op = b_eps(name, eps)
    assert op.size in (1023, 2047)
    assert (op.matrix.dtype.kind == "c") == (name == "sine1d-a_amp")
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    got = np.sort(bloch(name, eps).eigenvalues)
    assert np.abs(got - dense).max() <= 1e-12 * dense[-1]


@pytest.mark.parametrize("name, eps", CASES)
def test_bloch_basis_is_orthonormal(name, eps):
    eb = bloch(name, eps)
    q = eb.synthesize(np.eye(eb.size))          # rows: the eigenvectors
    assert np.abs(q.conj() @ q.T - np.eye(eb.size)).max() <= 1e-12
    # project inverts synthesize
    assert np.abs(eb.project(q) - np.eye(eb.size)).max() <= 1e-12


@pytest.mark.parametrize("name, eps", CASES)
def test_bloch_functions_match_stevd(name, eps):
    op = b_eps(name, eps)
    eb = bloch(name, eps)
    ref = EigenBasis(*evolution._eigh(op), source=op)
    rng = np.random.default_rng(21)
    v = rng.standard_normal((3, op.size))
    if op.matrix.dtype.kind == "c":
        v = v + 1j * rng.standard_normal((3, op.size))
    times = [0.5, 1.0, 2.0]
    scale = np.abs(v).max()

    def close(a, b):
        return np.abs(a - b).max() <= 1e-9 * scale

    for fn in (op_cosine, op_sine_scaled):
        assert close(fn(eb, times, v), fn(ref, times, v))
    assert close(op_inv_sqrt(eb, v), op_inv_sqrt(ref, v))
    got, want = (solve_ibvp(basis, v[0], v[1], (1.5, v[2]), times)
                 for basis in (eb, ref))
    assert close(got.u, want.u)
    assert np.abs(got.energy / want.energy - 1.0).max() <= 1e-9


@pytest.mark.parametrize("block", ["band", "cell"])
def test_certify_refuses_one_corrupted_bloch_eigenvector(block):
    eb = bloch("sine1d", 1 / 64)
    certify(eb)
    rng = np.random.default_rng(5)
    if block == "band":       # band 3 at theta_10
        field = "bloch"
        vectors = eb.bloch.copy()
        vectors[9, :, 3] += 1e-9 * rng.standard_normal(vectors.shape[1])
    else:                     # cell eigenvector 7
        field = "cell"
        vectors = eb.cell.copy()
        vectors[7] += 1e-9 * rng.standard_normal(vectors.shape[1])
    with pytest.raises(EigSolverFailure, match="eigen backward error"):
        certify(dataclasses.replace(eb, **{field: vectors}))


def _sine1d(eps):
    return assemble_b_eps(mesh_for([1.0], eps / 16), catalog("sine1d"), eps,
                          LAT1)


@pytest.mark.parametrize("k", range(4, 8))
def test_dyadic_sine1d_takes_the_bloch_basis(k, solver_calls):
    op = _sine1d(2.0 ** -k)
    assert op.size == 2 ** (k + 4) - 1             # 255 .. 2047
    assert isinstance(spectral_decompose(op), BlochBasis)
    # the 15 x 15 cell matrix is the only tridiagonal eigensolve
    assert solver_calls["eigh_tridiagonal"] == 1


@pytest.mark.parametrize("inv_eps, size", [(8, 127), (10, 159), (60, 959)])
def test_other_sine1d_meshes_keep_stevd(inv_eps, size):
    # 127 unknowns: L = 8 periods < p = 16.  eps 1/10 and 1/60: the bands
    # repeat every 16 nodes only to a few ulp, which is no period
    op = _sine1d(1.0 / inv_eps)
    assert op.size == size
    (diag, sub), = op.bands
    if inv_eps != 8:
        shift = np.abs(diag[16:] - diag[:-16]).max() / np.abs(diag).max()
        assert 0.0 < shift <= 1e-14
    assert evolution._bloch_period(op.bands) is None
    assert isinstance(spectral_decompose(op), EigenBasis)


def test_bloch_decomposition_allocates_no_square_array():
    op = _sine1d(1 / 128)
    op.norm1()
    tracemalloc.start()
    try:
        eb = spectral_decompose(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(eb, BlochBasis)
    assert peak <= 4 * 2 ** 20      # N x N would take 32 MiB


def test_bloch_period_needs_exact_repeats_of_a_nonconstant_band():
    diag = np.tile([3.0, 5.0, 4.0], 4)[:-1]         # N = 11, N + 1 = 3 * 4
    sub = np.tile([-1.0, -2.0, -1.5], 4)[:-2]
    assert evolution._bloch_period(((diag, sub),)) == 3
    assert evolution._bloch_period(((diag[:5], sub[:4]),)) is None  # L < p
    off = diag.copy()
    off[-1] = np.nextafter(off[-1], np.inf)
    assert evolution._bloch_period(((off, sub),)) is None
    zero = sub.copy()
    zero[4] = 0.0
    assert evolution._bloch_period(((diag, zero),)) is None
    assert evolution._bloch_period(((np.full(11, 3.0), np.full(10, -1.0)),)) \
        is None
    # a complex constant band is constant too, and keeps ?stevd
    assert evolution._bloch_period(
        ((np.full(11, 3.0), np.full(10, -1.0 + 0.5j)),)) is None
    # diag periodic with 2 and sub with 3: the common period 6 is too long
    assert evolution._bloch_period(
        ((np.tile([3.0, 5.0], 6)[:-1], sub),)) is None
