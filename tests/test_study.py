import json
import pathlib
import re

import numpy as np
import pytest

from oscillat.errors import EigSolverFailure, InsufficientPoints, ZeroError
from oscillat.dirichlet import make_mesh, l2_norm, resolvent
from oscillat.study import (
    SweepConfig,
    fit_rate,
    data_profile,
    convergence_sweep,
    resolvent_sweep,
    cosine_corrector_sweep,
    build_fixture,
    RESOLVENT,
    rates_csv_text,
    report_txt_text,
    selftest,
    _judge,
)
from oscillat.cli import run_cli, load_config


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_exact_linear():
    eps = [0.1, 0.05, 0.025, 0.0125]
    slope, intercept, resid = fit_rate([(e, e) for e in eps])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert resid < 1e-12


def test_fit_rate_exact_sqrt():
    eps = [0.1, 0.05, 0.025, 0.0125]
    slope, _, _ = fit_rate([(e, np.sqrt(e)) for e in eps])
    assert slope == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_noisy_slope_windows():
    rng = np.random.default_rng(12)
    eps = np.array([2.0 ** -k for k in range(3, 9)])
    errs = 3.0 * eps ** 0.93 * (1.0 + 0.05 * rng.uniform(-1, 1, eps.size))
    slope, _, _ = fit_rate(list(zip(eps, errs)))
    assert 0.85 <= slope <= 1.01


def test_fit_rate_zero_error_raises():
    with pytest.raises(ZeroError):
        fit_rate([(0.1, 0.1), (0.05, 0.0)])


def test_fit_rate_insufficient_points():
    with pytest.raises(InsufficientPoints):
        fit_rate([(0.1, 0.1)])


def test_fit_rate_duplicate_eps_rejected():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 0.1), (0.1, 0.2), (0.05, 0.07)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("threshold", [0.9, None])
def test_judge_fails_a_non_finite_error(bad, threshold):
    # max(0.0, nan) is 0.0: a NaN row must not vanish into an exact verdict
    rows = [(e, t, 0.0) for e in (0.125, 0.0625, 0.03125, 0.015625)
            for t in (0.5, 1.0)]
    rows[3] = (rows[3][0], rows[3][1], bad)
    est = _judge("solution_l2", "L2", rows, threshold)
    assert est.verdict == "fail" and not est.passed()
    assert est.rows == rows
    good = [(e, None, e) for e in (0.125, 0.0625, 0.03125, 0.015625)]
    assert _judge("x", "L2", good + [(0.0078125, None, bad)],
                  threshold).verdict == "fail"


def test_cli_non_finite_error_exits_2(tmp_path, monkeypatch, capsys):
    import dataclasses

    import oscillat.study as study_mod

    def case_rows(fix, cfg, idx, case):
        rows = study_mod._resolvent_rows(fix, cfg, idx, case)
        if idx == 1:
            rows["resolvent_l2"] = [(case.eps, None, float("nan"))]
        return rows

    monkeypatch.setattr(study_mod, "RESOLVENT", dataclasses.replace(
        study_mod.RESOLVENT, case_rows=case_rows))
    out = tmp_path / "out"
    cfg_path = write_quick_config(tmp_path, out)
    assert run_cli(["resolvent-sweep", "--config", str(cfg_path)]) == 2
    verdicts = dict(line.split()[::3] for line in
                    (out / "report.txt").read_text().splitlines()[:-1])
    assert verdicts["resolvent_l2"] == "fail"
    assert verdicts["resolvent_h1_corrector"] == "pass"
    rates = (out / "rates.csv").read_text()
    assert "resolvent_l2,0.0625,,nan,L2" in rates
    assert rates.count("resolvent_l2,") == 4


# ---------------------------------------------------------------------------
# config plumbing


def test_config_defaults_and_bounds():
    cfg = SweepConfig()
    assert cfg.resolved_eps(1) == [2.0 ** -k for k in range(3, 8)]
    assert cfg.resolved_cell_n(1) == 256
    assert cfg.resolved_cell_n(2) == 64
    with pytest.raises(ValueError):
        SweepConfig(eps_list=(0.5,)).resolved_eps(1)  # above min side / 4
    with pytest.raises(ValueError):
        SweepConfig(eps_list=(0.1, 0.1)).resolved_eps(1)


def test_load_config_roundtrip(tmp_path):
    cfg_text = """
[lattice]
basis = [[1.0]]

[coeff]
catalog = sine1d
params = {"base": 2.0, "amp": 0.5}

[domain]
box = [2.0]

[mesh]
h_over_eps = 0.03125
cell_n = 128

[corrector]
smoothed = false

[data]
phi = poly
psi = sinehump
forcing = sinemix
forcing_omega = 2.5

[sweep]
eps = [0.25, 0.125]
t = [1.0]
seed = 11
zeta = -2.0
n_probe = 6
out_dir = out
"""
    path = tmp_path / "conf.cfg"
    path.write_text(cfg_text)
    cfg = load_config(path)
    assert cfg.fixture == "sine1d"
    assert cfg.fixture_params == {"base": 2.0, "amp": 0.5}
    assert cfg.box == (2.0,)
    assert cfg.eps_list == (0.25, 0.125)
    assert cfg.t_list == (1.0,)
    assert cfg.smoothed is False
    assert cfg.seed == 11
    assert cfg.zeta == -2.0
    assert cfg.n_probe == 6
    assert cfg.cell_n == 128
    assert cfg.h_over_eps == 0.03125
    assert cfg.phi == "poly" and cfg.psi == "sinehump"
    assert cfg.forcing == "sinemix" and cfg.forcing_omega == 2.5


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> str:
    """The README's ```ini block, verbatim."""
    text = README.read_text()
    start = text.index("```ini\n") + len("```ini\n")
    return text[start:text.index("```", start)]


def test_readme_config_loads_verbatim(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(readme_config())
    cfg = load_config(path)
    assert cfg.basis == [[1.0]] and cfg.box == (1.0,)
    assert cfg.fixture == "sine1d"
    assert cfg.fixture_params == {"base": 2.0, "amp": 1.0}
    assert cfg.h_over_eps == 0.0625 and cfg.cell_n == 256
    assert cfg.smoothed is True
    assert (cfg.phi, cfg.psi, cfg.forcing) == ("sinehump", "sinemix", "poly")
    assert cfg.forcing_omega == 1.5
    assert cfg.eps_list == tuple(2.0 ** -k for k in range(3, 8))
    assert cfg.t_list == (0.5, 1.0, 2.0)
    assert (cfg.seed, cfg.zeta, cfg.n_probe) == (7, -1.0, 5)
    assert cfg.out_dir == "out" and cfg.evolve_eps == 0.125
    assert run_cli(["cell", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "effective.json").exists()


def test_load_config_reads_by_field_default(tmp_path):
    path = tmp_path / "conf.cfg"
    path.write_text("[domain]\nbox = 2 # a bare number is a list of one\n"
                    "[sweep]\neps = 0.25\nzeta = -1\nout_dir = a%b ; c\n"
                    "[data]\nphi = poly\n")
    cfg = load_config(path)
    assert cfg.box == (2,) and cfg.eps_list == (0.25,)
    assert cfg.zeta == -1.0 and isinstance(cfg.zeta, float)
    assert cfg.out_dir == "a%b" and cfg.phi == "poly"
    assert cfg.t_list == SweepConfig().t_list       # defaults stay


@pytest.mark.parametrize("section, line, key", [
    ("corrector", "smoothed = False", "[corrector] smoothed"),
    ("corrector", "smoothed = no", "[corrector] smoothed"),
    ("corrector", "smoothed = 1", "[corrector] smoothed"),
    ("sweep", "eps = [nan, 0.125]", "[sweep] eps"),
    ("sweep", "eps = [0.25, true]", "[sweep] eps"),
    ("sweep", "seed = 7.9", "[sweep] seed"),
    ("sweep", "seed = 7.0", "[sweep] seed"),
    ("mesh", "cell_n = \"64\"", "[mesh] cell_n"),
    ("sweep", "zeta = -1.0.0", "[sweep] zeta"),
    ("coeff", "params = [1.0]", "[coeff] params"),
    ("lattice", "basis = 1.0", "[lattice] basis"),
    ("sweep", "n_probes = 3", "[sweep] n_probes"),
    ("swep", "seed = 3", "[swep] seed"),
    ("sweep", "seed = 3\nseed = 4", "While reading"),     # duplicate key
    ("", "seed = 3", "File contains no section headers"),
])
def test_misconfiguration_refused_before_any_work(tmp_path, monkeypatch,
                                                  capsys, section, line, key):
    # a value of the wrong kind, an unknown key and an unknown section are
    # all refused by name, before the cell solve and without a traceback
    import oscillat.cli as cli_mod
    import oscillat.study as study_mod

    for mod in (cli_mod, study_mod):
        _forbid(monkeypatch, mod, "build_fixture")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"[{section}]\n{line}\n" if section else line)
    assert run_cli(["sweep", "--config", str(cfg_path),
                    "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "Traceback" not in err


def test_unknown_catalog_parameter_refused_before_cell_solve(
        tmp_path, monkeypatch, capsys):
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "solve_cell")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text('[coeff]\ncatalog = sine1d\nparams = {"ampl": 0.5}\n')
    assert run_cli(["cell", "--config", str(cfg_path),
                    "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "sine1d has no parameter ampl" in err and "amp, " in err


def test_data_profiles_normalized():
    mesh = make_mesh([1.0], [63])
    for name in ("sinehump", "sinemix", "poly", "offcenter"):
        vec = data_profile(name, mesh, 1)
        assert l2_norm(mesh, vec) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(data_profile("none", mesh, 1)).max() == 0.0
    with pytest.raises(ValueError):
        data_profile("nope", mesh, 1)


# ---------------------------------------------------------------------------
# sweep behavior


def test_zero_corrector_shortcut_exact():
    cfg = SweepConfig(fixture="const", fixture_params={"g": 2.0, "d": 1},
                      eps_list=(2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6),
                      t_list=(0.5, 1.0), smoothed=False, seed=3)
    fix = build_fixture(cfg)
    assert fix.cell.corrector_norm() <= 1e-12
    rep = convergence_sweep(cfg)
    for est in rep.estimates:
        assert est.verdict == "exact"
        assert max(err for _, _, err in est.rows) <= 1e-9


def test_monotone_refinement_mesh_policy():
    # halving h at fixed eps moves each error by under 10 percent
    eps = 0.125
    base = SweepConfig(fixture="sine1d",
                       eps_list=(eps,), t_list=(1.0,), seed=7)
    errs = {}
    for hdiv in (16.0, 32.0):
        cfg = SweepConfig(fixture="sine1d", eps_list=(eps,), t_list=(1.0,),
                          seed=7, h_over_eps=1.0 / hdiv, phi="none",
                          psi="sinemix")
        fix = build_fixture(cfg)
        from oscillat.study import build_cases, data_profile as dp
        from oscillat.evolution import (spectral_decompose, solve_ibvp,
                                        first_order_approx, flux, flux_approx)
        from oscillat.dirichlet import h1_norm
        case = build_cases(fix, cfg, [eps])[0]
        ebe = spectral_decompose(case.op_eps)
        eb0 = spectral_decompose(case.op_0)
        psi = case.op_0.solve_shifted(0.0, case.op_0.solve_shifted(
            0.0, dp("sinemix", case.mesh, 1)))
        ue = solve_ibvp(ebe, 0 * psi, psi, None, [1.0])
        u0 = solve_ibvp(eb0, 0 * psi, psi, None, [1.0])
        ve = first_order_approx(u0.u, fix.cell, eps, True, fix.coeffs.symbol,
                                case.ext, fix.lat)
        errs[hdiv] = {
            "l2": l2_norm(case.mesh, ue.u[0] - u0.u[0]),
            "h1": h1_norm(case.mesh, ue.u[0] - ve[0], 1),
        }
    for key in ("l2", "h1"):
        assert errs[32.0][key] == pytest.approx(errs[16.0][key], rel=0.10)
    del base


def test_run_sweep_frees_each_case_once_measured():
    # a measured case's operators, and the LUs they cache, are freed by
    # reference count before the next case is measured: op_0, a sine
    # operator, must not be tied into a cycle with the basis it solves in
    import gc
    import weakref
    from oscillat.study import Estimate, run_sweep

    previous, alive = [], []

    def case_rows(fix, cfg, idx, case):
        alive.extend(ref() is not None for ref in previous)
        previous[:] = [weakref.ref(case.op_eps), weakref.ref(case.op_0)]
        case.op_eps.factor(0.0)
        case.op_0.solve_shifted(0.0, np.ones(case.op_0.size))
        return {"e": [(case.eps, None, case.eps)]}

    cfg = SweepConfig(fixture="sine1d", cell_n=32,
                      eps_list=(0.25, 0.125, 0.0625))
    gc.disable()
    try:
        run_sweep(cfg, Estimate(entries=(("e", "L2", None),),
                                case_rows=case_rows))
    finally:
        gc.enable()
    assert alive == [False] * 4


def test_build_cases_shifts_each_operator_probed_once(monkeypatch):
    # g = 1, Q = -q: every operator on a mesh of spacing h has the lowest
    # eigenvalue (4 / h^2) sin^2(pi h / 2) - q, so the shift must lift the
    # coarsest case's to the margin pi^2 / 16
    import scipy.sparse as sp
    from scipy.sparse.linalg import norm as sparse_norm
    import oscillat.dirichlet as dirichlet_mod
    from oscillat.study import build_cases

    q, eps_list = 30.0, [0.25, 0.125]
    cfg = SweepConfig(fixture="sine1d", cell_n=32, eps_list=tuple(eps_list),
                      fixture_params={"base": 1.0, "amp": 0.0, "q_const": -q})
    fix = build_fixture(cfg)
    probe = dirichlet_mod.smallest_eigenvalue
    calls = []

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape[0])
        return probe(matrix, *args, **kwargs)

    monkeypatch.setattr(dirichlet_mod, "smallest_eigenvalue", counting)
    cases = build_cases(fix, cfg, eps_list)
    assert len(calls) == 2 * len(eps_list)

    lowest = min(4.0 / c.mesh.h[0] ** 2 * np.sin(np.pi * c.mesh.h[0] / 2) ** 2
                 for c in cases) - q
    needed = np.pi ** 2 / 16 - lowest
    lam = min(v for v in [0.0] + [2.0 ** k for k in range(17)] if v >= needed)
    assert lam > 0
    for case in cases:
        unshifted = (
            dirichlet_mod.assemble_b_eps(case.mesh, fix.coeffs, case.eps,
                                         fix.lat),
            dirichlet_mod.assemble_b0(case.mesh, fix.cell, fix.coeffs))
        for op, base in zip((case.op_eps, case.op_0), unshifted):
            assert op.lam == lam
            expected = base.matrix + lam * sp.identity(base.size)
            assert (sparse_norm(op.matrix - expected)
                    <= 1e-12 * sparse_norm(expected))
            assert op.smallest_eig == base.smallest_eig + lam


@pytest.mark.parametrize("smoothed", [True, False])
def test_evolve_case_compiles_one_smoothing_and_one_extension(monkeypatch,
                                                               smoothed):
    # first_order_approx and flux_approx of one case share the corrector's
    # factors, which fold in the extension, so no extension is built, with
    # outputs bit-identical to the two public calls, which compile on their
    # own
    import oscillat.dirichlet as dirichlet_mod
    import oscillat.evolution as evolution_mod
    import oscillat.study as study_mod
    from oscillat.study import build_cases, evolve_case

    cfg = SweepConfig(fixture="sine1d", eps_list=(0.125,), t_list=(-0.5, 1.0),
                      forcing="poly", smoothed=smoothed)
    fix = build_fixture(cfg)
    case = build_cases(fix, cfg, [0.125])[0]
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(dirichlet_mod, "_smoothing_factors", counting(
        "factors", dirichlet_mod._smoothing_factors))
    for mod in (dirichlet_mod, evolution_mod, study_mod):
        if hasattr(mod, "extend"):
            monkeypatch.setattr(mod, "extend", counting("extend", mod.extend))
    _, u_0, _, v_eps, _, p_apx = evolve_case(fix, cfg, case,
                                             energy_phi_zero=False)
    assert calls == ["factors"]
    v = evolution_mod.first_order_approx(u_0, fix.cell, case.eps, smoothed,
                                         fix.coeffs.symbol, case.ext, fix.lat)
    p = evolution_mod.flux_approx(u_0, fix.cell, case.eps, smoothed,
                                  fix.coeffs, case.ext, fix.lat)
    assert np.array_equal(v, v_eps) and np.array_equal(p, p_apx)


@pytest.mark.parametrize("fixture, box, eps, params", [
    ("sine1d", (1.0,), 0.125, {"q_const": -30.0}),
    ("laminate2d", (1.0, 1.0), 0.25, {})])
def test_each_operator_reads_its_bands_once(fixture, box, eps, params,
                                            monkeypatch):
    # one band check per assembled operator, on the neighbour blocks it was
    # written from, and no read of its CSR; its shift, the probe, the
    # closed form, the eigen path and the solvers all use the cached bands
    # (the d=1 potential -30 makes the shift lam nonzero)
    import oscillat.dirichlet as dirichlet_mod
    from oscillat.evolution import spectral_decompose
    from oscillat.study import build_cases

    reads, csr_reads = [], []

    def counting(log, reader):
        def read(arg, m_int):
            log.append(int(np.prod(m_int)))
            return reader(arg, m_int)
        return read

    cfg = SweepConfig(fixture=fixture, box=box, eps_list=(eps,), cell_n=32,
                      fixture_params=params)
    fix = build_fixture(cfg)
    monkeypatch.setattr(dirichlet_mod, "_grid_bands",
                        counting(reads, dirichlet_mod._grid_bands))
    monkeypatch.setattr(dirichlet_mod, "read_bands",
                        counting(csr_reads, dirichlet_mod.read_bands))
    case = build_cases(fix, cfg, [eps])[0]
    assert (case.op_eps.lam > 0) == bool(params)
    # dense eigh of the 3969-unknown d=2 B_eps takes about 20 s, so in d=2
    # only the closed-form B0 is decomposed
    ops = (case.op_eps, case.op_0)
    for op in ops if case.mesh.dim == 1 else ops[1:]:
        spectral_decompose(op)
    probes = np.ones((2, case.mesh.n_nodes))
    for op in ops:
        resolvent(op, -1.0, probes)
        resolvent(op, -1.0 + 0.5j, probes)
    assert reads == [case.mesh.n_nodes] * 2 and csr_reads == []


def test_resolvent_sweep_inv_sqrt_on_every_case_or_none():
    # eps = 1/600 meshes 9599 unknowns, above the eigensolver cap: the
    # inverse-root estimate is left out of the whole sweep, not cut to the
    # three cases below the cap, where it could reach no verdict
    cfg = SweepConfig(fixture="sine1d", cell_n=128,
                      eps_list=(1 / 64, 1 / 128, 1 / 256, 1 / 600))
    report = resolvent_sweep(cfg)
    assert [e.tag for e in report.estimates] == ["resolvent_l2",
                                                "resolvent_h1_corrector"]
    assert report.all_passed()
    assert all(len(e.rows) == 4 for e in report.estimates)


def test_short_sweep_reports_insufficient_verdict():
    # three eps are too few for a verdict: every thresholded tag still gets
    # its fitted slope, and the report does not pass
    cfg = SweepConfig(fixture="sine1d", eps_list=(0.125, 0.0625, 0.03125),
                      t_list=(0.5,), seed=7)
    report = convergence_sweep(cfg)
    assert not report.all_passed()
    assert {e.verdict for e in report.estimates} == {"insufficient"}
    for est in report.estimates:
        per_eps = {}
        for e, _t, err in est.rows:
            per_eps[e] = max(per_eps.get(e, 0.0), err)
        assert len(per_eps) == 3 and not est.passed()
        assert est.slope == pytest.approx(fit_rate(sorted(per_eps.items()))[0],
                                          rel=1e-12)


def test_cli_short_sweep_writes_report_and_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_quick_config(tmp_path, out,
                                  eps="[0.125, 0.0625, 0.03125]")
    assert run_cli(["resolvent-sweep", "--config", str(cfg_path)]) == 2
    rates = (out / "rates.csv").read_text().strip().splitlines()
    assert {line.split(",")[1] for line in rates[1:]} == {
        "0.125", "0.0625", "0.03125"}
    verdicts = [line.split()[-1] for line in
                (out / "report.txt").read_text().splitlines()[:-1]]
    assert verdicts and set(verdicts) == {"insufficient"}


def test_report_text_formats():
    cfg = SweepConfig(fixture="const", fixture_params={"g": 2.0, "d": 1},
                      eps_list=(2 ** -3, 2 ** -4, 2 ** -5, 2 ** -6),
                      t_list=(0.5,), smoothed=False, seed=3)
    rep = convergence_sweep(cfg)
    csv = rates_csv_text(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "estimate,eps,t,error,norm"
    assert len(lines) == 1 + sum(len(e.rows) for e in rep.estimates)
    txt = report_txt_text(rep)
    assert "solution_l2" in txt and "exact" in txt


def _forbid(monkeypatch, module, *names):
    def fail(*args, **kwargs):
        raise AssertionError("called although the config is refused")

    for name in names:
        monkeypatch.setattr(module, name, fail)


def test_resolvent_sweep_rejects_positive_zeta_before_cell_solve(monkeypatch):
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "build_fixture")
    with pytest.raises(ValueError, match="zeta <= 0"):
        resolvent_sweep(SweepConfig(zeta=0.5))


def test_cosine_sweep_rejects_zero_times_before_cell_solve(monkeypatch):
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "build_fixture")
    with pytest.raises(ValueError, match="t != 0"):
        cosine_corrector_sweep(SweepConfig(t_list=(0.0,)))


def test_empty_box_refused_before_any_work(tmp_path, monkeypatch, capsys):
    import oscillat.cli as cli_mod
    import oscillat.study as study_mod

    with pytest.raises(ValueError, match=re.escape("[domain] box = []")):
        SweepConfig(box=())
    for mod in (cli_mod, study_mod):
        _forbid(monkeypatch, mod, "build_fixture")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[domain]\nbox = []\n")
    for command in ("cell", "evolve", "sweep", "resolvent-sweep", "cos-sweep"):
        assert run_cli([command, "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [domain] box = []"), command


def test_empty_times_refused_by_the_commands_that_read_them(
        tmp_path, monkeypatch, capsys):
    # sweep and evolve evolve to every time and cos-sweep needs one != 0;
    # resolvent-sweep reads no time and keeps accepting t = []
    import oscillat.cli as cli_mod
    import oscillat.study as study_mod

    assert RESOLVENT.check(SweepConfig(t_list=())) is None
    for mod in (cli_mod, study_mod):
        _forbid(monkeypatch, mod, "build_fixture")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("[sweep]\nt = []\n")
    for command in ("evolve", "sweep", "cos-sweep"):
        assert run_cli([command, "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [sweep] t ") and "Traceback" not in err


@pytest.mark.parametrize("fixture, line, key, d", [
    ("sine1d", "[domain]\nbox = [1.0, 1.0]", "[domain] box", 1),
    ("laminate2d", "[domain]\nbox = [1.0]", "[domain] box", 2),
    ("sine1d", "[lattice]\nbasis = [[1.0, 0.0], [0.0, 1.0]]",
     "[lattice] basis", 1),
    ("laminate2d", "[domain]\nbox = [1.0, 1.0]\n[lattice]\nbasis = [[1.0]]",
     "[lattice] basis", 2),
], ids=["sine1d-box2", "laminate2d-box1", "sine1d-basis2", "laminate2d-basis1"])
def test_dimension_mismatch_refused_before_cell_solve(
        tmp_path, monkeypatch, capsys, fixture, line, key, d):
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "solve_cell")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"[coeff]\ncatalog = {fixture}\n{line}\n")
    for command in ("cell", "evolve", "sweep", "resolvent-sweep", "cos-sweep"):
        assert run_cli([command, "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "Traceback" not in err
        assert f"{fixture} is {d}-dimensional" in err


@pytest.mark.parametrize("basis", ["[1.0, 0.5]", "[]", "[[1.0, 0.5]]",
                                   "[[1.0, 0.0], [0.5]]", '["a"]'])
def test_basis_not_in_rows_refused_before_cell_solve(
        tmp_path, monkeypatch, capsys, basis):
    # only a one-number basis reads as 1 x 1; anything else that is not d
    # rows of d numbers is refused naming the key and the expected form
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "solve_cell")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"[coeff]\ncatalog = sine1d\n[lattice]\nbasis = {basis}\n")
    for command in ("cell", "evolve", "sweep", "resolvent-sweep", "cos-sweep"):
        assert run_cli([command, "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [lattice] basis = ") and "Traceback" not in err
        assert "must be d rows of d numbers, as [[1.0, 0.0], [0.5, 1.0]]" in err


def test_one_number_basis_still_runs(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("[coeff]\ncatalog = sine1d\n[lattice]\nbasis = [2.0]\n"
                        "[mesh]\ncell_n = 64\n")
    assert load_config(cfg_path).basis == [2.0]
    assert run_cli(["cell", "--config", str(cfg_path),
                    "--out", str(tmp_path)]) == 0
    assert (tmp_path / "effective.json").is_file()


def test_sweeps_build_no_extension(monkeypatch):
    # the corrector and flux factors fold the extension in: no sweep path
    # extends a grid function
    import sys

    for name, mod in list(sys.modules.items()):
        if name.startswith("oscillat") and hasattr(mod, "extend"):
            _forbid(monkeypatch, mod, "extend")
    cfg = SweepConfig(fixture="sine1d", eps_list=(0.25, 0.125),
                      t_list=(0.5,), forcing="poly", cell_n=64)
    for sweep in (convergence_sweep, resolvent_sweep, cosine_corrector_sweep):
        report = sweep(cfg)
        assert report.estimates and all(
            np.isfinite(err) for est in report.estimates
            for _eps, _t, err in est.rows)


@pytest.mark.parametrize("value", [0.125, 0.0625 * (1 + 1e-9), 0.0, -0.05,
                                   float("nan")])
def test_h_over_eps_outside_policy_refused(value):
    with pytest.raises(ValueError, match=r"h_over_eps .* \(0, 1/16\]"):
        SweepConfig(h_over_eps=value)


def test_h_over_eps_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # assembly refuses h > eps/16, so a coarser policy must stop every
    # command before the cell solve
    import oscillat.cli as cli_mod
    import oscillat.study as study_mod

    for mod in (cli_mod, study_mod):
        _forbid(monkeypatch, mod, "build_fixture")
    assert SweepConfig(h_over_eps=1.0 / 16).h_over_eps == 0.0625
    assert SweepConfig(h_over_eps=1.0 / 32).h_over_eps == 0.03125
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text("[coeff]\ncatalog = laminate2d\n\n[domain]\n"
                        "box = [1.0, 1.0]\n\n[mesh]\nh_over_eps = 0.125\n\n"
                        f"[sweep]\nout_dir = {tmp_path}\n")
    for command in ("cell", "evolve", "sweep", "resolvent-sweep", "cos-sweep"):
        assert run_cli([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "[mesh] h_over_eps = 0.125" in err and "(0, 1/16]" in err


def test_over_cap_mesh_fails_before_assembly(tmp_path, monkeypatch, capsys):
    # default d=2 grid {1/4 .. 1/32}: eps = 1/8 has 127^2 = 16129 unknowns,
    # above the 8192 eigensolver cap, and no operator may be assembled
    import oscillat.dirichlet as dirichlet_mod
    import oscillat.study as study_mod

    for mod in (dirichlet_mod, study_mod):
        _forbid(monkeypatch, mod, "assemble_b_eps", "assemble_b0")
    cfg = SweepConfig(fixture="laminate2d", box=(1.0, 1.0), cell_n=16)
    for sweep in (convergence_sweep, cosine_corrector_sweep):
        with pytest.raises(EigSolverFailure, match=r"eps=0\.125: 16129 unknowns"):
            sweep(cfg)
    cfg_path = tmp_path / "d2.cfg"
    cfg_path.write_text("[coeff]\ncatalog = laminate2d\n\n[domain]\n"
                        "box = [1.0, 1.0]\n\n[mesh]\ncell_n = 16\n\n"
                        f"[sweep]\nout_dir = {tmp_path}\n")
    assert run_cli(["evolve", "--config", str(cfg_path)]) == 1
    assert "eps=0.125: 16129 unknowns" in capsys.readouterr().err


def test_one_constant_drives_the_cap(monkeypatch):
    # sine1d at eps 1/8 .. 1/64 has 127 to 1023 unknowns: with the cap at
    # 1000, the decomposing sweeps stop before any assembly, and the
    # resolvent sweep drops the inverse root on every case
    import oscillat.dirichlet as dirichlet_mod
    import oscillat.evolution as evolution_mod
    import oscillat.study as study_mod

    monkeypatch.setattr(evolution_mod, "_EIG_LIMIT", 1000)
    cfg = SweepConfig(eps_list=(1 / 8, 1 / 16, 1 / 32, 1 / 64), cell_n=64)
    with monkeypatch.context() as m:
        for mod in (dirichlet_mod, study_mod):
            _forbid(m, mod, "assemble_b_eps", "assemble_b0")
        for sweep in (convergence_sweep, cosine_corrector_sweep):
            with pytest.raises(EigSolverFailure,
                               match=r"eps=0\.015625: 1023 unknowns"):
                sweep(cfg)
    report = resolvent_sweep(cfg)
    assert [e.tag for e in report.estimates] == ["resolvent_l2",
                                                 "resolvent_h1_corrector"]


@pytest.mark.parametrize("value", [0.0, -0.125, float("nan"), float("inf"),
                                   1.5])
def test_eps_outside_unit_interval_refused(value):
    with pytest.raises(ValueError, match=r"\[sweep\] eps = .* \(0, 1\]"):
        SweepConfig(eps_list=(0.25, value))
    with pytest.raises(ValueError, match=r"\[evolve\] eps = .* \(0, 1\]"):
        SweepConfig(evolve_eps=value)


def test_eps_refused_before_any_work(tmp_path, monkeypatch, capsys):
    import oscillat.cli as cli_mod
    import oscillat.study as study_mod

    for mod in (cli_mod, study_mod):
        _forbid(monkeypatch, mod, "build_fixture")
    for value in (0.0, -0.125, float("nan"), float("inf"), 1.5):
        text = json.dumps(value)        # NaN and Infinity in JSON
        for section, line in (("sweep", f"eps = [0.25, {text}]"),
                              ("evolve", f"eps = {text}")):
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(f"[{section}]\n{line}\n\n[domain]\n"
                                f"box = [1.0]\n")
            for command in ("cell", "evolve", "sweep", "resolvent-sweep",
                            "cos-sweep"):
                assert run_cli([command, "--config", str(cfg_path),
                                "--out", str(tmp_path)]) == 1
                err = capsys.readouterr().err
                assert f"[{section}] eps = " in err and "(0, 1]" in err


@pytest.mark.parametrize("eps", ["[0.125, 0.0625, 0.125]", "[0.125, 0.5]"],
                         ids=["repeated", "above_bound"])
def test_bad_eps_list_refused_before_cell_solve(tmp_path, monkeypatch, capsys,
                                                eps):
    # a repeated eps, or one above min box side / 4, is refused naming the
    # key before the cell solve
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "solve_cell")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"[sweep]\neps = {eps}\n")
    for command in ("sweep", "resolvent-sweep", "cos-sweep"):
        assert run_cli([command, "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [sweep] eps = ") and "Traceback" not in err
        assert "distinct values up to the surrogate bound min box side / 4" in err


@pytest.mark.parametrize("fixture, box, default", [
    ("sine1d", "[0.4]", "d=1, [0.125, 0.0625, "),
    ("laminate2d", "[0.8, 1.0]", "d=2, [0.25, 0.125, ")])
def test_default_eps_list_refused_before_cell_solve(tmp_path, monkeypatch,
                                                    capsys, fixture, box,
                                                    default):
    # with no [sweep] eps, the default list of the fixture's dimension is
    # checked once the box matches that dimension, before the cell solve;
    # cell and evolve, which do not read the list, still run on that box
    import oscillat.study as study_mod

    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(f"[coeff]\ncatalog = {fixture}\n[domain]\nbox = {box}\n"
                        "[mesh]\ncell_n = 32\n")
    with monkeypatch.context() as patched:
        _forbid(patched, study_mod, "solve_cell")
        for command in ("sweep", "resolvent-sweep", "cos-sweep"):
            assert run_cli([command, "--config", str(cfg_path),
                            "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: [sweep] eps is not set, and the "
                                  f"default list for {default}")
            assert err.rstrip().endswith("[sweep] eps sets the list")
            assert "Traceback" not in err
    commands = ("cell", "evolve") if fixture == "sine1d" else ("cell",)
    for command in commands:
        assert run_cli([command, "--config", str(cfg_path),
                        "--out", str(tmp_path / command)]) == 0


@pytest.mark.parametrize("value", [0, 3, 4])
def test_n_probe_below_floor_refused(value):
    with pytest.raises(ValueError, match=r"\[sweep\] n_probe = .* least 5"):
        SweepConfig(n_probe=value)


@pytest.mark.parametrize("field, value, key", [
    ("t_list", (0.5, float("nan")), "[sweep] t"),
    ("t_list", (float("inf"),), "[sweep] t"),
    ("zeta", float("nan"), "[sweep] zeta"),
    ("forcing_omega", float("nan"), "[data] forcing_omega"),
    ("forcing_omega", float("-inf"), "[data] forcing_omega"),
    ("box", (float("nan"),), "[domain] box"),
    ("box", (1.0, float("inf")), "[domain] box"),
    ("box", (1.0, 0.0), "[domain] box"),
    ("box", (-1.0,), "[domain] box"),
])
def test_non_finite_settings_refused(monkeypatch, field, value, key):
    import oscillat.study as study_mod

    _forbid(monkeypatch, study_mod, "build_fixture")
    with pytest.raises(ValueError, match=re.escape(key) + " = "):
        convergence_sweep(SweepConfig(**{field: value}))


def test_non_finite_settings_refused_from_the_command_line(
        tmp_path, monkeypatch, capsys):
    import oscillat.cli as cli_mod
    import oscillat.study as study_mod

    for mod in (cli_mod, study_mod):
        _forbid(monkeypatch, mod, "build_fixture")
    for section, line in (("sweep", "zeta = NaN"), ("sweep", "t = [NaN]"),
                          ("data", "forcing_omega = NaN"),
                          ("domain", "box = [NaN]"),
                          ("domain", "box = [1.0, Infinity]")):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"[{section}]\n{line}\n")
        for command in ("cell", "sweep", "cos-sweep"):
            assert run_cli([command, "--config", str(cfg_path),
                            "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            key = f"[{section}] {line.split()[0]} = "
            assert err.startswith(f"error: {key}") and "finite" in err


# ---------------------------------------------------------------------------
# CLI


def write_quick_config(tmp_path, out_dir, **overrides):
    lines = {
        "coeff": {"catalog": '"sine1d"' if False else "sine1d",
                  "params": json.dumps(overrides.get("params", {}))},
        "domain": {"box": "[1.0]"},
        "data": {"phi": "none", "psi": "sinemix", "forcing": "none"},
        "sweep": {
            "eps": overrides.get("eps", "[0.125, 0.0625, 0.03125, 0.015625]"),
            "t": "[0.5, 1.0]",
            "seed": "7",
            "out_dir": str(out_dir),
        },
        "mesh": {"cell_n": "128"},
        "evolve": {"eps": "0.125"},
    }
    body = []
    for section, kv in lines.items():
        body.append(f"[{section}]")
        body.extend(f"{k} = {v}" for k, v in kv.items())
        body.append("")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(body))
    return path


def test_cli_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0


def test_cli_unknown_subcommand():
    assert run_cli(["frobnicate"]) == 1


def test_cli_missing_config():
    assert run_cli(["sweep", "--config", "/nonexistent/path.cfg"]) == 1


def test_cli_cell_outputs(tmp_path, capsys):
    cfg_path = write_quick_config(tmp_path, tmp_path / "out")
    assert run_cli(["cell", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    payload = json.loads((out / "effective.json").read_text())
    assert payload["g0"]["re"][0][0] == pytest.approx(np.sqrt(3.0), abs=1e-8)
    header = (out / "cell_solution.csv").read_text().splitlines()[0]
    assert header.startswith("tau1,lambda_00_re,lambda_00_im")


def test_cli_evolve_outputs(tmp_path, capsys):
    cfg_path = write_quick_config(tmp_path, tmp_path / "out")
    assert run_cli(["evolve", "--config", str(cfg_path)]) == 0
    files = sorted((tmp_path / "out").glob("solution_t*.csv"))
    assert [f.name for f in files] == ["solution_t0.5.csv", "solution_t1.csv"]
    header = files[0].read_text().splitlines()[0].split(",")
    for col in ("x1", "u_eps_0_re", "u0_0_re", "v_eps_0_re", "p_eps_0_re",
                "flux_approx_0_re"):
        assert col in header


def test_cli_resolvent_sweep_writes_reports(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_quick_config(tmp_path, out)
    code = run_cli(["resolvent-sweep", "--config", str(cfg_path)])
    assert code == 0
    assert (out / "rates.csv").exists()
    report = (out / "report.txt").read_text()
    assert "resolvent_l2" in report and "pass" in report


def test_cli_selftest_catches_failures(monkeypatch):
    import oscillat.cli as cli_mod

    monkeypatch.setattr(cli_mod, "selftest",
                        lambda verbose=True: [("forced", False)])
    assert cli_mod.run_cli(["selftest"]) == 1


def test_cli_verdict_failure_exit_code(tmp_path, monkeypatch, capsys):
    import oscillat.cli as cli_mod
    from oscillat.study import EstimateResult, RateReport

    failing = RateReport(
        estimates=[EstimateResult("solution_l2", "L2", [(0.1, None, 1.0)],
                                  0.1, 0.0, 0.0, 0.9, "fail")],
        wall_time=0.0, meta={})
    monkeypatch.setattr(cli_mod, "convergence_sweep", lambda cfg: failing)
    cfg_path = write_quick_config(tmp_path, tmp_path / "out")
    assert cli_mod.run_cli(["sweep", "--config", str(cfg_path)]) == 2


def test_cli_samples_file_fixture(tmp_path, capsys):
    # external coefficient samples drive the cell command end to end
    import numpy as np

    from oscillat.coefficients import catalog as cat

    cs = cat("sine1d", {"n_samples": 64})
    gpath = tmp_path / "g.csv"
    rows = ["1,64,1,1"]
    for z in cs.g.samples[:, 0, 0]:
        rows.append(f"{z.real:.17g},{z.imag:.17g}")
    gpath.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "samples.cfg"
    cfg.write_text(f"""
[coeff]
samples_file = {gpath}

[mesh]
cell_n = 64

[sweep]
out_dir = {tmp_path / 'out'}
""")
    assert run_cli(["cell", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "effective.json").read_text())
    assert payload["g0"]["re"][0][0] == pytest.approx(np.sqrt(3.0), abs=1e-6)


def test_selftest_all_green():
    # the exact set of checks, so that no port drops one silently
    checks = selftest(verbose=False)
    assert [name for name, _ in checks] == [
        "lattice.unit_duality", "lattice.frequencies_n2",
        "symbol.scalar_bounds", "coefficients.const_eval",
        "cell.lambda_zero_for_const", "cell.lambda_tilde_zero_without_a",
        "dirichlet.unit_laplacian", "dirichlet.q1_stencil_2d",
        "dirichlet.steklov_constant", "dirichlet.steklov_character",
        "dirichlet.steklov_character_2d", "dirichlet.extension_identity",
        "evolution.cos_t0_identity", "evolution.sine_t0_zero",
        "evolution.ibvp_zero_data", "dirichlet.separable_probe_laplacian",
        "dirichlet.dst_spectrum_laplacian", "study.fit_rate_exact",
        "study.fit_rate_sqrt"]
    assert all(ok for _, ok in checks)
