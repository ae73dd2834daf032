"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s`.  The d=1 criteria are
strict checks; wall times are recorded per criterion and bounded at the
end (full d=1 budget: six minutes).
"""

import time

import numpy as np
import pytest

from oscillat.lattice import unit_lattice
from oscillat.coefficients import catalog
from oscillat.cell import solve_cell, voigt_reuss
from oscillat.dirichlet import (
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    build_extension,
    make_mesh,
    smooth,
    l2_norm,
)
from oscillat.evolution import (
    spectral_decompose,
    op_cosine,
    op_sine_scaled,
    solve_ibvp,
    leapfrog_oracle,
    estimate_mu_max,
)
from oscillat.study import (
    SweepConfig,
    convergence_sweep,
    resolvent_sweep,
    cosine_corrector_sweep,
    build_fixture,
)
from oscillat.cli import run_cli

from test_evolution import _gauss_panels
from oracles import beyond_reach, by_tag, leapfrog_energy_drift


LAT1 = unit_lattice(1)
LAT2 = unit_lattice(2)

_TIMINGS: dict[str, float] = {}


def _record(name: str, t0: float, ok: bool = True):
    elapsed = time.perf_counter() - t0
    _TIMINGS[name] = elapsed
    print(f"[acceptance] {name}: {'pass' if ok else 'FAIL'} ({elapsed:.1f}s)")


def test_criterion_01_effective_coefficient_exactness():
    t0 = time.perf_counter()
    cs = catalog("sine1d")
    sol = solve_cell(cs, LAT1, 256)
    assert abs(sol.g0[0, 0].real - np.sqrt(3.0)) < 1e-8
    assert abs(sol.g0[0, 0].imag) < 1e-12
    x = np.arange(256) / 256
    g = 2.0 + np.sin(2 * np.pi * x)
    corr = sol.bD_Lambda.samples[:, 0, 0]
    assert np.abs(corr - (np.sqrt(3.0) / g - 1.0)).max() < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _record("criterion 1 (effective coefficient, d=1)", t0)


def test_criterion_02_voigt_reuss_seeded():
    t0 = time.perf_counter()
    for seed in range(10):
        cs = catalog("random-bandlimited", {"seed": seed, "d": 1,
                                            "n_samples": 128})
        sol = solve_cell(cs, LAT1, 128)
        vr = voigt_reuss(cs.g, sol.g0)
        g_norm = np.abs(cs.g.samples).max()
        assert vr.lower_margin >= -1e-9 * g_norm
        assert vr.upper_margin >= -1e-9 * g_norm
        # m = n: effective matrix equals the harmonic mean
        assert np.abs(sol.g0 - vr.g_lower).max() <= 1e-8 * g_norm
    for seed in range(10):
        # high-contrast profiles need N=128 to push the cell truncation
        # error below the 1e-9 margin tolerance
        cs = catalog("random-bandlimited", {"seed": 100 + seed, "d": 2,
                                            "n_samples": 128})
        sol = solve_cell(cs, LAT2, 128)
        vr = voigt_reuss(cs.g, sol.g0)
        g_norm = np.abs(cs.g.samples).max()
        assert vr.lower_margin >= -1e-9 * g_norm
        assert vr.upper_margin >= -1e-9 * g_norm
    _record("criterion 2 (Voigt-Reuss, 20 seeded)", t0)


def test_criterion_03_zero_corrector_consistency():
    t0 = time.perf_counter()
    cfg = SweepConfig(fixture="const", fixture_params={"g": 2.0, "d": 1},
                      eps_list=(2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6),
                      t_list=(0.5, 1.0), smoothed=False, seed=3)
    fix = build_fixture(cfg)
    assert fix.cell.corrector_norm() <= 1e-12
    for report in (convergence_sweep(cfg), resolvent_sweep(cfg)):
        for est in report.estimates:
            worst = max(err for _, _, err in est.rows)
            assert worst <= 1e-9, f"{est.tag}: {worst:.3e}"
            assert est.verdict == "exact"
    _record("criterion 3 (zero corrector)", t0)


def _band_limited(rng, x, kmax=8):
    ks = np.arange(1, kmax + 1)
    c = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
    phases = np.exp(2j * np.pi * np.einsum("...k,k->...k",
                                           np.broadcast_to(x[..., None],
                                                           x.shape + (kmax,)),
                                           ks))
    u = np.einsum("...k,k->...", phases, c)
    du = np.einsum("...k,k->...", phases, 2j * np.pi * ks * c)
    return u, du


def test_criterion_04_steklov_propositions():
    # smooth of periodic samples on the interior nodes of the unit box:
    # both sides of each bound are norms over the nodes, the left one over
    # the nodes beyond the smoothing's reach, where S_eps reads interior
    # nodes only, the right one over every node
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    # d = 1: 25 draws
    N = 256
    mesh = make_mesh([1.0], [N - 1])        # the nodes k / N, k = 1 .. N - 1
    ext = build_extension(mesh, 0.25 * LAT1.r1)
    x = mesh.axes()[0]
    for trial in range(25):
        u, du = _band_limited(rng, x)
        phi_raw, _ = _band_limited(rng, x, kmax=6)
        phi = phi_raw.real + 2.0
        for eps in (0.25, 0.0625):
            inner = beyond_reach(mesh, eps * LAT1.r1)
            su = smooth(u, ext, LAT1, eps)
            assert (np.linalg.norm((su - u[:, None])[inner])
                    <= 1.1 * eps * LAT1.r1 * np.linalg.norm(du))
            phi_eps = np.interp((x / eps) % 1.0, x, phi, period=1.0)
            prod = phi_eps[:, None] * su
            phi_l2 = np.sqrt(np.mean(np.abs(phi) ** 2))  # |cell|=1
            assert (np.linalg.norm(prod[inner])
                    <= 1.1 * phi_l2 * np.linalg.norm(u))
    # d = 2: 25 draws; the grid must resolve the oscillating factor, whose
    # frequency content reaches kmax/eps
    M = 256
    mesh = make_mesh([1.0, 1.0], [M - 1, M - 1])
    ext = build_extension(mesh, 0.25 * LAT2.r1)
    xg = mesh.axes()[0]
    X, Y = np.meshgrid(xg, xg, indexing="ij")
    for trial in range(25):
        ux, dux = _band_limited(rng, X, kmax=5)
        uy, duy = _band_limited(rng, Y, kmax=5)
        u = ux * uy
        grad_sq = np.linalg.norm(dux * uy) ** 2 + np.linalg.norm(ux * duy) ** 2
        phi_x, _ = _band_limited(rng, X, kmax=2)
        phi = phi_x.real + 1.5
        for eps in (0.25, 0.0625):
            inner = beyond_reach(mesh, eps * LAT2.r1)
            su = smooth(u.ravel(), ext, LAT2, eps)
            assert (np.linalg.norm((su - u[..., None])[inner])
                    <= 1.1 * eps * LAT2.r1 * np.sqrt(grad_sq))
            phi_eps_x = np.interp((xg / eps) % 1.0, xg, phi[:, 0], period=1.0)
            prod = phi_eps_x[:, None, None] * su
            phi_l2 = np.sqrt(np.mean(np.abs(phi) ** 2))
            assert (np.linalg.norm(prod[inner])
                    <= 1.1 * phi_l2 * np.linalg.norm(u))
    _record("criterion 4 (Steklov propositions, 50 seeded)", t0)


def _leapfrog_agreement(coeffs, lat, eps, dt_factor):
    cell = solve_cell(coeffs, lat, 64 if coeffs.d == 2 else 256)
    mesh = mesh_for([1.0] * coeffs.d, eps / 16)
    op_eps = assemble_b_eps(mesh, coeffs, eps, lat)
    op_0 = assemble_b0(mesh, cell, coeffs)
    eb = spectral_decompose(op_eps)
    rng = np.random.default_rng(77)
    phi = op_0.solve_shifted(0.0, op_0.solve_shifted(
        0.0, rng.standard_normal(op_eps.size)))
    phi /= l2_norm(mesh, phi)
    dt = dt_factor * 1.9 / np.sqrt(estimate_mu_max(op_eps))
    u_lf = leapfrog_oracle(op_eps, phi, 0 * phi, None, 1.0, dt)
    ref = solve_ibvp(eb, phi, 0 * phi, None, [1.0]).u[0]
    return l2_norm(mesh, u_lf - ref) / l2_norm(mesh, ref), op_eps, eb, phi, mesh


def test_criterion_05_evolution_correctness():
    t0 = time.perf_counter()
    # leapfrog vs eigendecomposition on every fixture family
    rel1, op1, eb1, phi1, mesh1 = _leapfrog_agreement(
        catalog("sine1d"), LAT1, 0.125, 1e-3)
    assert rel1 <= 1e-4
    relc, *_ = _leapfrog_agreement(
        catalog("const", {"g": 2.0, "d": 1}), LAT1, 0.125, 1e-3)
    assert relc <= 1e-4
    # 2d fixture: a coarser dt factor keeps the run short; the dt^2 error
    # budget still sits two orders below the tolerance
    rel2, *_ = _leapfrog_agreement(
        catalog("laminate2d", {"n_samples": 32}), LAT2, 0.25, 1e-2)
    assert rel2 <= 1e-4

    # unforced spectral evolution conserves energy to 1e-8
    res = solve_ibvp(eb1, phi1, 0 * phi1, None, np.linspace(0.2, 5.0, 9))
    assert np.abs(res.energy / res.energy[0] - 1.0).max() <= 1e-8

    # leapfrog energy drift over [0, 10]
    drift = leapfrog_energy_drift(op1, phi1, 0 * phi1, 10.0, 1e-3)
    assert drift <= 1e-3

    # cosine functional equation
    rng = np.random.default_rng(5)
    v = rng.standard_normal(op1.size)
    lhs = op_cosine(eb1, 1.1, v)
    rhs = (2 * op_cosine(eb1, 0.7, op_cosine(eb1, 0.4, v))
           - op_cosine(eb1, 0.3, v))
    assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(v).max()

    # scaled sine equals the time integral of the cosine
    f = phi1 / np.abs(phi1).max()
    t = 1.3
    nodes, weights = _gauss_panels(t, 0.2, order=32)
    quad = sum(w * op_cosine(eb1, tq, f) for tq, w in zip(nodes, weights))
    assert np.abs(quad - op_sine_scaled(eb1, t, f)).max() <= 1e-8
    _record("criterion 5 (evolution correctness)", t0)


def test_criterion_06_resolvent_rates():
    t0 = time.perf_counter()
    cfg = SweepConfig(fixture="sine1d", zeta=-1.0, seed=7,
                      eps_list=tuple(2.0 ** -k for k in range(3, 8)))
    report = resolvent_sweep(cfg)
    assert by_tag(report, "resolvent_l2").slope >= 0.9
    assert by_tag(report, "resolvent_l2").verdict == "pass"
    assert by_tag(report, "resolvent_h1_corrector").slope >= 0.45
    assert by_tag(report, "inv_sqrt_l2").slope >= 0.45
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _record("criterion 6 (resolvent rates)", t0)


def test_criterion_07_hyperbolic_rates():
    t0 = time.perf_counter()
    cfg = SweepConfig(fixture="sine1d", t_list=(0.5, 1.0, 2.0),
                      phi="sinehump", psi="sinemix", forcing="poly",
                      seed=7, smoothed=True)
    report = convergence_sweep(cfg)
    assert by_tag(report, "solution_l2").slope >= 0.9
    assert by_tag(report, "solution_h1_corrector").slope >= 0.45
    assert by_tag(report, "flux_l2").slope >= 0.45
    assert report.all_passed()
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _record("criterion 7 (hyperbolic rates)", t0)


def test_criterion_08_cosine_corrector_rate():
    t0 = time.perf_counter()
    cfg = SweepConfig(fixture="sine1d", t_list=(1.0,), seed=7)
    report = cosine_corrector_sweep(cfg)
    assert by_tag(report, "cos_h1_corrector").slope >= 0.45
    assert by_tag(report, "cos_h1_corrector").verdict == "pass"
    plain = by_tag(report, "cos_plain_h1")
    assert plain.verdict == "reported"
    assert np.isnan(plain.threshold)
    _record("criterion 8 (cosine corrector rate)", t0)


def test_criterion_09_smoothing_removal():
    t0 = time.perf_counter()
    cfg = SweepConfig(fixture="sine1d", t_list=(0.5, 1.0, 2.0),
                      phi="sinehump", psi="sinemix", forcing="poly",
                      seed=7, smoothed=False)
    report = convergence_sweep(cfg)
    assert by_tag(report, "solution_h1_corrector").slope >= 0.45
    assert report.all_passed()
    _record("criterion 9 (smoothing removal)", t0)


def test_criterion_10_determinism_and_budget(tmp_path):
    t0 = time.perf_counter()
    cfg_text = """
[coeff]
catalog = sine1d

[domain]
box = [1.0]

[data]
phi = none
psi = sinemix
forcing = none

[sweep]
eps = [0.125, 0.0625, 0.03125, 0.015625]
t = [0.5, 1.0]
seed = 7
zeta = -1.0
"""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = run_cli(["resolvent-sweep", "--config", str(cfg_path),
                        "--out", str(out)])
        assert code == 0
        outs.append((out / "rates.csv").read_bytes())
    assert outs[0] == outs[1]
    _record("criterion 10 (determinism)", t0)

    total = sum(_TIMINGS.values())
    print(f"[acceptance] total d=1 suite wall time: {total:.1f}s (< 360s)")
    assert total < 360.0
