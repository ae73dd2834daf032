import numpy as np
import pytest

from oscillat.errors import RankDeficientSymbol, UnknownCatalogEntry
from oscillat.lattice import build_lattice, unit_lattice
from oscillat.coefficients import (
    symbol_bounds,
    make_symbol,
    constant_field,
    field_from_function,
    eval_scaled,
    eval_scaled_grid,
    resample,
    sup_opnorm,
    inv_sup_opnorm,
    CATALOG_PARAMS,
    catalog,
    load_field_csv,
)


def test_symbol_bounds_scalar():
    assert symbol_bounds([[[1.0]]]) == (1.0, 1.0)


def test_symbol_bounds_gradient_2d():
    a0, a1 = symbol_bounds([[[1.0], [0.0]], [[0.0], [1.0]]])
    assert a0 == pytest.approx(1.0, abs=1e-12)
    assert a1 == pytest.approx(1.0, abs=1e-12)


def test_symbol_bounds_weighted_gradient():
    # b(theta)* b(theta) = theta1^2 + 4 theta2^2; dense-eigenvalue oracle
    # over a fine sweep gives extrema 1 and 4
    mats = [[[1.0], [0.0]], [[0.0], [2.0]]]
    a0, a1 = symbol_bounds(mats)
    angles = 2 * np.pi * np.arange(10000) / 10000
    vals = np.cos(angles) ** 2 + 4 * np.sin(angles) ** 2
    assert a0 == pytest.approx(vals.min(), abs=1e-6)
    assert a1 == pytest.approx(vals.max(), abs=1e-6)


def test_rank_deficient_symbol_raises():
    with pytest.raises(RankDeficientSymbol):
        symbol_bounds([[[1.0], [0.0]], [[0.0], [0.0]]])


def test_symbol_matrix_norms_bounded_by_alpha1():
    # |b_j| <= sqrt(alpha1) holds for any admissible symbol
    rng = np.random.default_rng(9)
    for _ in range(10):
        mats = rng.standard_normal((2, 3, 1)) + 1j * rng.standard_normal((2, 3, 1))
        try:
            sym = make_symbol(list(mats))
        except RankDeficientSymbol:
            continue
        for b in sym.b_mats:
            assert np.linalg.norm(b, 2) <= np.sqrt(sym.alpha1) * (1 + 1e-12)


def test_field_validation_rejects_bad_flags():
    from oscillat.coefficients import PeriodicField

    skew = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    with pytest.raises(ValueError):
        PeriodicField(skew, dim=1, hermitian=True).validate()
    negative = -np.ones((4, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        PeriodicField(negative, dim=1, positive=True).validate()


def test_coefficient_set_validation():
    from oscillat.coefficients import CoefficientSet

    cs = catalog("sine1d")
    bad_a = (constant_field(np.eye(2), 1, 8),)
    with pytest.raises(ValueError):
        CoefficientSet(symbol=cs.symbol, g=cs.g, a=bad_a).validate()


def test_eval_scaled_constant():
    lat = unit_lattice(1)
    f = constant_field([[5.0]], 1, 16)
    vals = eval_scaled(f, lat, 0.37, [[0.123]])
    assert vals[0, 0, 0] == pytest.approx(5.0, abs=1e-12)


def test_eval_scaled_sine_grid_aligned():
    lat = unit_lattice(1)
    f = field_from_function(lambda x: 2 + np.sin(2 * np.pi * x), 1, 64)
    # x=1/8, eps=1/4 -> y=1/2 -> 2 + sin(pi) = 2
    vals = eval_scaled(f, lat, 0.25, [[0.125]])
    assert vals[0, 0, 0].real == pytest.approx(2.0, abs=1e-12)


def test_eval_scaled_sine_closed_form():
    lat = unit_lattice(1)
    f = field_from_function(lambda x: 2 + np.sin(2 * np.pi * x), 1, 64)
    vals = eval_scaled(f, lat, 0.3, [[0.2]])
    assert vals[0, 0, 0] == pytest.approx(2 + np.sin(4 * np.pi / 3), abs=1e-10)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("grid", ["dyadic", "box"])
def test_eval_scaled_grid_matches_pointwise(d, grid):
    # each axis is contracted over its distinct phases x/eps mod 1 and
    # indexed back: h = eps/16 gives 16 phases, a linspace all distinct ones
    eps = 0.25 if grid == "dyadic" else 0.3
    lat = build_lattice(np.diag([1.0, 0.5][:d]))
    if d == 1:
        f = field_from_function(
            lambda x: 2.0 + np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x),
            1, 32)
    else:
        f = field_from_function(
            lambda x, y: (1.5 + 0.5 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
                          + 0.2 * np.sin(2 * np.pi * y)), 2, 32)
    if grid == "dyadic":
        ax = [eps * lat.basis[k, k] / 16 * np.arange(-7, 50 + 3 * k)
              for k in range(d)]
        n_phases = 16
    else:
        ax = [np.linspace(0.05, 0.9, 7), np.linspace(0.1, 0.8, 5)][:d]
        n_phases = None
    for k, a in enumerate(ax):
        phases = np.unique(np.mod(a / (eps * lat.basis[k, k]), 1.0))
        assert len(phases) == (n_phases or len(a))
    grid_vals = eval_scaled_grid(f, lat, eps, ax)
    pts = np.stack([g.ravel() for g in np.meshgrid(*ax, indexing="ij")], axis=-1)
    pt_vals = eval_scaled(f, lat, eps, pts).reshape(grid_vals.shape)
    assert grid_vals.shape == tuple(len(a) for a in ax) + (1, 1)
    assert np.abs(grid_vals - pt_vals).max() <= 1e-12


def test_eval_scaled_hermitian_after_interpolation():
    rng = np.random.default_rng(3)
    lat = unit_lattice(1)
    N = 32
    x = np.arange(N) / N
    base = np.zeros((N, 2, 2), dtype=complex)
    for k in range(1, 5):
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = c + c.conj().T
        base += np.cos(2 * np.pi * k * x)[:, None, None] * c
    base += 10 * np.eye(2)
    from oscillat.coefficients import PeriodicField

    f = PeriodicField(base, dim=1, hermitian=True).validate()
    pts = rng.uniform(0, 1, size=(40, 1))
    vals = eval_scaled(f, lat, 0.17, pts)
    skew = np.abs(vals - np.swapaxes(vals, -1, -2).conj()).max()
    assert skew <= 1e-10 * np.abs(vals).max()


def test_norm_product_inequality():
    cs = catalog("sine1d")
    assert sup_opnorm(cs.g) * inv_sup_opnorm(cs.g) >= 1.0


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_inverse_norm_from_the_smallest_eigenvalue_matches_the_svd(name):
    # g is hermitian positive definite: its smallest eigenvalue is its
    # smallest singular value at every sample
    g = catalog(name).g
    svd = 1.0 / np.linalg.svd(g.samples, compute_uv=False)[..., -1].min()
    assert abs(inv_sup_opnorm(g) / svd - 1.0) <= 1e-14


def test_resample_band_limited_exact():
    f = field_from_function(lambda x: 1 + 0.3 * np.sin(2 * np.pi * x)
                            + 0.1 * np.cos(6 * np.pi * x), 1, 16)
    up = resample(f, 48)
    x = np.arange(48) / 48
    exact = 1 + 0.3 * np.sin(2 * np.pi * x) + 0.1 * np.cos(6 * np.pi * x)
    assert np.allclose(up.samples[:, 0, 0], exact, atol=1e-13)
    assert np.abs(up.samples.imag).max() < 1e-13


def test_catalog_const():
    cs = catalog("const", {"g": 3.0, "d": 1})
    assert cs.g.samples[0, 0, 0] == 3.0
    assert not cs.a
    assert cs.Q is None


def test_catalog_sine1d_values():
    cs = catalog("sine1d", {"base": 2.0, "amp": 1.0, "n_samples": 64})
    x = np.arange(64) / 64
    assert np.allclose(cs.g.samples[:, 0, 0], 2 + np.sin(2 * np.pi * x))


def test_catalog_laminate2d_structure():
    cs = catalog("laminate2d", {"n_samples": 32})
    assert cs.symbol.m == 2 and cs.symbol.n == 1
    s = cs.g.samples
    assert np.allclose(s[:, 0], s[:, 5])          # depends on x1 only
    assert np.allclose(s[..., 0, 1], 0.0)
    assert np.allclose(s[..., 0, 0], s[..., 1, 1])


def test_catalog_random_bandlimited_reproducible_and_positive():
    a = catalog("random-bandlimited", {"seed": 42, "d": 1})
    b = catalog("random-bandlimited", {"seed": 42, "d": 1})
    c = catalog("random-bandlimited", {"seed": 43, "d": 1})
    assert np.array_equal(a.g.samples, b.g.samples)
    assert not np.array_equal(a.g.samples, c.g.samples)
    assert a.g.samples.real.min() > 0


def test_catalog_unknown_raises():
    with pytest.raises(UnknownCatalogEntry):
        catalog("not-a-fixture")


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_catalog_unknown_parameter_raises(name):
    # a misspelled parameter must not fall back to its default
    with pytest.raises(ValueError, match=rf"{name} has no parameter ampl; "
                                         rf"it takes .*n_samples"):
        catalog(name, {"ampl": 0.5})


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_catalog_defaults_are_the_table(name):
    # the table's defaults, passed explicitly, build the same fields
    a = catalog(name)
    b = catalog(name, dict(CATALOG_PARAMS[name]))
    assert np.array_equal(a.g.samples, b.g.samples)
    assert a.g.samples.dtype == b.g.samples.dtype == complex
    assert (a.g.hermitian, a.g.positive) == (True, True)


@pytest.mark.parametrize("name", ["sine1d", "laminate2d",
                                  "checkerboard-smooth"])
def test_catalog_refuses_amp_at_base(name):
    with pytest.raises(ValueError, match=rf"{name} needs base > \|amp\|"):
        catalog(name, {"base": 1.0, "amp": -1.0})


def test_field_csv_roundtrip(tmp_path):
    cs = catalog("sine1d", {"n_samples": 16})
    path = tmp_path / "g.csv"
    rows = [f"1,16,1,1"]
    for z in cs.g.samples[:, 0, 0]:
        rows.append(f"{z.real:.17g},{z.imag:.17g}")
    path.write_text("\n".join(rows) + "\n")
    loaded = load_field_csv(path)
    assert np.allclose(loaded.samples, cs.g.samples)
