"""Command-line interface: cell solves, evolution runs, and rate sweeps.

Configs are flat INI files with sections [lattice], [coeff], [domain],
[mesh], [corrector], [data], [sweep], [evolve]; values are JSON fragments
(numbers, lists, objects).  Exit codes: 0 success, 1 error or usage
problem, 2 verdict failure.
"""

import argparse
import configparser
import json
import pathlib
import sys

import numpy as np

from .errors import OscillatError
from .cell import voigt_reuss
from .dirichlet import l2_norm
from .study import (
    SweepConfig,
    convergence_sweep,
    resolvent_sweep,
    cosine_corrector_sweep,
    write_report,
    build_fixture,
    build_cases,
    evolve_case,
    selftest,
)


def _json_value(raw: str):
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, TypeError):
        return raw


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None):
    if cp.has_option(section, key):
        return _json_value(cp.get(section, key))
    return default


def load_config(path) -> SweepConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise OscillatError(f"cannot read config file {path}")
    fixture = _get(cp, "coeff", "catalog", "sine1d")
    fixture_params = _get(cp, "coeff", "params", {}) or {}
    samples_file = _get(cp, "coeff", "samples_file", None)
    if samples_file:
        fixture = "samples_file"
        fixture_params = {"path": samples_file}
    cfg = SweepConfig(
        fixture=fixture,
        fixture_params=fixture_params,
        basis=_get(cp, "lattice", "basis", None),
        box=tuple(np.atleast_1d(_get(cp, "domain", "box", [1.0]))),
        eps_list=tuple(_get(cp, "sweep", "eps", []) or []),
        t_list=tuple(_get(cp, "sweep", "t", [0.5, 1.0, 2.0])),
        phi=_get(cp, "data", "phi", "sinehump"),
        psi=_get(cp, "data", "psi", "sinemix"),
        forcing=_get(cp, "data", "forcing", "none"),
        forcing_omega=float(_get(cp, "data", "forcing_omega", 1.5)),
        smoothed=bool(_get(cp, "corrector", "smoothed", True)),
        seed=int(_get(cp, "sweep", "seed", 7)),
        n_probe=int(_get(cp, "sweep", "n_probe", 5)),
        zeta=float(_get(cp, "sweep", "zeta", -1.0)),
        cell_n=int(_get(cp, "mesh", "cell_n", 0)),
        h_over_eps=float(_get(cp, "mesh", "h_over_eps", 1.0 / 16.0)),
        out_dir=str(_get(cp, "sweep", "out_dir", ".")),
        evolve_eps=float(_get(cp, "evolve", "eps", 0.125)),
    )
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def _complex_matrix_json(mat):
    arr = np.atleast_2d(np.asarray(mat))
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _write_csv(path, header, coords, blocks):
    """One line per row r: coords[r], then re/im pairs of every block[r]."""
    lines = [",".join(header)]
    for r in range(coords.shape[0]):
        vals = [f"{c:.17g}" for c in coords[r]]
        for block in blocks:
            for z in np.atleast_1d(block[r]):
                z = complex(z)
                vals += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")


def cmd_cell(cfg: SweepConfig) -> int:
    fix = build_fixture(cfg)
    coeffs, sol = fix.coeffs, fix.cell
    vr = voigt_reuss(coeffs.g, sol.g0)
    out = pathlib.Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    d, N = coeffs.d, sol.Lambda.resolution
    lam = sol.Lambda.samples.reshape(N ** d, -1)
    lamt = sol.LambdaTilde.samples.reshape(N ** d, -1)
    frac = np.stack(np.meshgrid(*[np.arange(N) / N] * d, indexing="ij"),
                    axis=-1).reshape(N ** d, d)
    header = [f"tau{k + 1}" for k in range(d)]
    n, m = coeffs.symbol.n, coeffs.symbol.m
    header += [f"lambda_{i}{j}_{p}" for i in range(n) for j in range(m)
               for p in ("re", "im")]
    header += [f"lambda_tilde_{i}{j}_{p}" for i in range(n) for j in range(n)
               for p in ("re", "im")]
    _write_csv(out / "cell_solution.csv", header, frac, (lam, lamt))

    payload = {
        "resolution": N,
        "g0": _complex_matrix_json(sol.g0),
        "V": _complex_matrix_json(sol.V),
        "W": _complex_matrix_json(sol.W),
        "voigt_reuss": {
            "lower_ok": vr.lower_ok,
            "upper_ok": vr.upper_ok,
            "lower_margin": vr.lower_margin,
            "upper_margin": vr.upper_margin,
            "g_lower": _complex_matrix_json(vr.g_lower),
            "g_upper": _complex_matrix_json(vr.g_upper),
        },
        "residuals": {k: list(map(float, v))
                      for k, v in sol.residuals.items()},
        "corrector_norm": sol.corrector_norm(),
    }
    (out / "effective.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"cell solve done: g0 diag {np.diag(np.atleast_2d(sol.g0)).real}")
    return 0


def cmd_evolve(cfg: SweepConfig) -> int:
    fix = build_fixture(cfg)
    eps = float(cfg.evolve_eps)
    case = build_cases(fix, cfg, [eps], decomposes=True)[0]
    # the written solutions and fluxes all come from the full data
    u_eps, u_0, _, v_eps, p_eps, p_apx = evolve_case(fix, cfg, case,
                                                     energy_phi_zero=False)
    mesh, n, m = case.mesh, fix.coeffs.symbol.n, fix.coeffs.symbol.m

    out = pathlib.Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    coords = np.stack(np.meshgrid(*mesh.axes(), indexing="ij"),
                      axis=-1).reshape(-1, mesh.dim)
    header = [f"x{k + 1}" for k in range(mesh.dim)]
    for name in ("u_eps", "u0", "v_eps"):
        header += [f"{name}_{c}_{p}" for c in range(n) for p in ("re", "im")]
    for name in ("p_eps", "flux_approx"):
        header += [f"{name}_{c}_{p}" for c in range(m) for p in ("re", "im")]
    for i, t in enumerate(cfg.t_list):
        nodal = [w[i].reshape(-1, n) for w in (u_eps, u_0, v_eps)]
        _write_csv(out / f"solution_t{t:g}.csv", header, coords,
                   nodal + [p_eps[i], p_apx[i]])
    err = l2_norm(mesh, u_eps[-1] - u_0[-1])
    print(f"evolve done: eps={eps:g}, final |u_eps - u0|_L2 = {err:.3e}")
    return 0


def _run_sweep(kind: str, cfg: SweepConfig) -> int:
    sweeps = {
        "sweep": convergence_sweep,
        "resolvent-sweep": resolvent_sweep,
        "cos-sweep": cosine_corrector_sweep,
    }
    report = sweeps[kind](cfg)
    write_report(report, cfg.out_dir)
    for est in report.estimates:
        print(f"{est.tag}: slope={est.slope:.4g} verdict={est.verdict}")
    print(f"wrote rates.csv and report.txt to {cfg.out_dir} "
          f"({report.wall_time:.1f}s)")
    return 0 if report.all_passed() else 2


def cmd_selftest() -> int:
    checks = selftest(verbose=True)
    bad = [name for name, ok in checks if not ok]
    print(f"selftest: {len(checks) - len(bad)}/{len(checks)} passed")
    return 0 if not bad else 1


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscillat",
        description="numerical homogenization workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("cell", "evolve", "sweep", "resolvent-sweep", "cos-sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="override the configured output directory")
    sub.add_parser("selftest")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "selftest":
            return cmd_selftest()
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.command == "cell":
            return cmd_cell(cfg)
        if args.command == "evolve":
            return cmd_evolve(cfg)
        return _run_sweep(args.command, cfg)
    except (OscillatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
