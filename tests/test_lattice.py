import numpy as np
import pytest

from oscillat.errors import DegenerateBasis, OddResolution
from oscillat.lattice import build_lattice, unit_lattice, fft_frequency_grid


def test_unit_1d():
    lat = build_lattice([[1.0]])
    assert lat.dual_basis[0, 0] == pytest.approx(2 * np.pi, abs=1e-14)
    assert lat.cell_volume == pytest.approx(1.0)
    assert 2 * lat.r1 == pytest.approx(1.0)


def test_square_2d():
    lat = build_lattice([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(lat.dual_basis, 2 * np.pi * np.eye(2), atol=1e-14)
    assert lat.cell_volume == pytest.approx(1.0)
    assert 2 * lat.r1 == pytest.approx(np.sqrt(2.0))


def test_rectangular_2d_duality():
    lat = build_lattice([[2.0, 0.0], [0.0, 1.0]])
    assert lat.cell_volume == pytest.approx(2.0)
    assert np.allclose(lat.dual_basis[0], [np.pi, 0.0], atol=1e-14)
    # independent oracle: duality products
    for j in range(2):
        for i in range(2):
            dot = lat.dual_basis[j] @ lat.basis[i]
            assert abs(dot - 2 * np.pi * (i == j)) <= 1e-12 * (
                1 + np.linalg.norm(lat.dual_basis[j]) * np.linalg.norm(lat.basis[i]))


def test_degenerate_basis_raises():
    with pytest.raises(DegenerateBasis):
        build_lattice([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateBasis):
        build_lattice([[1.0, 0.0], [1.0, 1e-15]])


def test_only_one_number_reads_as_a_1d_basis():
    for one in (2.0, [2.0], [[2.0]]):
        lat = build_lattice(one)
        assert lat.dim == 1 and lat.basis[0, 0] == 2.0
    for flat in ([1.0, 0.5], [[1.0, 0.5]]):
        with pytest.raises(DegenerateBasis, match="d vectors in R\\^d"):
            build_lattice(flat)


def test_duality_invariant_random_bases():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        if abs(np.linalg.det(a)) < 0.1:
            continue
        lat = build_lattice(a)
        prod = np.asarray(lat.dual_basis) @ np.asarray(lat.basis).T
        assert np.allclose(prod, 2 * np.pi * np.eye(2), atol=1e-10)


def test_frequencies_odd_raises():
    lat = unit_lattice(1)
    with pytest.raises(OddResolution):
        fft_frequency_grid(lat, 5)


def test_frequencies_no_duplicates_and_negation_closure():
    lat = build_lattice([[1.5, 0.2], [0.0, 0.8]])
    N = 6
    k = fft_frequency_grid(lat, N).reshape(-1, 2)
    rounded = {tuple(np.round(row, 9)) for row in k}
    assert len(rounded) == len(k)
    # closed under negation except the nu_j = -N/2 layer
    b = np.asarray(lat.dual_basis)
    for n1 in range(-N // 2, N // 2):
        for n2 in range(-N // 2, N // 2):
            if n1 == -N // 2 or n2 == -N // 2:
                continue
            neg = tuple(np.round(-(n1 * b[0] + n2 * b[1]), 9))
            assert neg in rounded
