"""Command-line interface: cell solves, evolution runs, and rate sweeps.

Configs are flat INI files with sections [lattice], [coeff], [domain],
[mesh], [corrector], [data], [sweep], [evolve]; each key sets the
SweepConfig field _KEYS names and is read as that field's default says.
Unknown keys and ill-typed values are refused.  Exit codes: 0 success, 1
error or usage problem, 2 verdict failure.
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
    check_times,
    selftest,
)


#: every config key: [section] key -> the SweepConfig field it sets; a
#: samples file replaces the catalog fixture
_KEYS = {
    "lattice": {"basis": "basis"},
    "coeff": {"catalog": "fixture", "params": "fixture_params",
              "samples_file": "fixture"},
    "domain": {"box": "box"},
    "mesh": {"h_over_eps": "h_over_eps", "cell_n": "cell_n"},
    "corrector": {"smoothed": "smoothed"},
    "data": {"phi": "phi", "psi": "psi", "forcing": "forcing",
             "forcing_omega": "forcing_omega"},
    "sweep": {"eps": "eps_list", "t": "t_list", "seed": "seed",
              "zeta": "zeta", "n_probe": "n_probe", "out_dir": "out_dir"},
    "evolve": {"eps": "evolve_eps"},
}


#: how a field whose default has a given type reads its value: what the
#: value must be, and the check of its JSON; a string field takes the text
_KINDS = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    tuple: ("a number or a list of numbers",
            lambda v: all(type(x) in (int, float) for x in v)),
    dict: ("a JSON object", lambda v: type(v) is dict),
    type(None): ("a JSON list", lambda v: type(v) is list),     # basis
}


def _read_value(name: str, raw: str, default):
    """The value of config key name, read as the type of its field's
    default says; a bare number is a list of one."""
    if isinstance(default, str):
        return raw
    kind, ok = _KINDS[type(default)]
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw                     # no check takes a string
    if isinstance(default, tuple) and type(value) is not list:
        value = [value]
    if not ok(value):
        raise ValueError(f"{name} = {raw}: expected {kind}")
    return value if default is None else type(default)(value)


def load_config(path) -> SweepConfig:
    """Read an INI config.  A key not in _KEYS, or a value not of its
    field's kind, raises ValueError naming its [section] key."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    if not cp.read(path):
        raise OscillatError(f"cannot read config file {path}")
    defaults = vars(SweepConfig())
    values = {}
    for section in cp.sections():
        keys = _KEYS.get(section, {})
        for key, raw in cp.items(section):
            name = f"[{section}] {key}"
            if key not in keys:
                raise ValueError(f"{name}: unknown key; known: " + ", ".join(
                    keys or (f"[{s}]" for s in _KEYS)))
            values[keys[key]] = _read_value(name, raw, defaults[keys[key]])
    if cp.has_option("coeff", "samples_file"):
        values.update(fixture="samples_file",
                      fixture_params={"path": cp.get("coeff", "samples_file")})
    return SweepConfig(**values)


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
        "voigt_reuss": {k: _complex_matrix_json(v)
                        if isinstance(v, np.ndarray) else v
                        for k, v in vars(vr).items()},
        "residuals": {k: list(map(float, v))
                      for k, v in sol.residuals.items()},
        "corrector_norm": sol.corrector_norm(),
    }
    (out / "effective.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"cell solve done: g0 diag {np.diag(np.atleast_2d(sol.g0)).real}")
    return 0


def cmd_evolve(cfg: SweepConfig) -> int:
    check_times(cfg)
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
    except (OscillatError, ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
