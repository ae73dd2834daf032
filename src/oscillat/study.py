"""Convergence-rate sweeps, slope fitting, reports, and the self test.

run_sweep drives every sweep: it validates the config, solves the cell
problem, builds one case per eps (mesh with h <= eps/16, oscillating and
effective operators, extension), collects an Estimate's error rows per case
and fits log-log slopes.  The three estimates are HYPERBOLIC (wave
solutions: L2, H1 with corrector, flux), RESOLVENT (fixed zeta: L2, H1 with
corrector, inverse root) and COSINE (smoothed-cosine corrector in H1 plus
the plain error without a verdict).  build_cases checks every mesh against
the eigensolver cap once, before any assembly: estimates that
eigendecompose every case refuse a mesh above it, and the inverse root is
measured on every case when all meshes fit the cap, or on none.
Verdict thresholds sit strictly below the theoretical rates (0.9 for
O(eps), 0.45 for O(sqrt(eps))) to absorb preasymptotic effects; raw slopes
and per-(eps, t) errors are always reported.  A thresholded estimate with
fewer than four usable eps gets its slope and the verdict "insufficient",
which does not pass, so the sweep still writes its report.  Any estimate
with a non-finite error gets the verdict "fail".
"""

from collections.abc import Callable
from dataclasses import dataclass, field
import math
import time

import numpy as np

from .errors import EigSolverFailure, InsufficientPoints, ZeroError
from .lattice import Lattice, build_lattice, unit_lattice
from .coefficients import (CoefficientSet, catalog, gradient_symbol,
                           load_field_csv)
from .cell import CellSolution, solve_cell
from .dirichlet import (
    Mesh,
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    choose_lambda,
    build_extension,
    Corrector,
    resolvent,
    l2_norm,
    h1_norm,
    H_OVER_EPS,
)
from .evolution import (
    check_decomposable,
    spectral_decompose,
    solve_ibvp,
    flux,
    flux_approx,
    op_cosine,
    op_inv_sqrt,
)

#: errors at or below this are reported as "exact" and excluded from fits
EXACT_TOL = 1e-9

#: verdict thresholds, strictly below the theoretical rates
SLOPE_FULL = 0.9      # O(eps) estimates
SLOPE_HALF = 0.45     # O(sqrt(eps)) estimates


def _is_basis(basis) -> bool:
    """Whether a lattice basis is one number or d rows of d numbers."""
    try:
        a = np.asarray(basis, dtype=float)
    except (TypeError, ValueError):     # ragged rows, or not numbers
        return False
    return a.size == 1 or (a.ndim == 2 and a.shape[0] == a.shape[1])


@dataclass
class SweepConfig:
    """Everything one sweep needs; defaults follow the d=1 sine fixture."""

    fixture: str = "sine1d"
    fixture_params: dict = field(default_factory=dict)
    basis: object = None            # lattice basis rows; None = unit lattice
    box: tuple = (1.0,)
    eps_list: tuple = ()            # empty = dimension default
    t_list: tuple = (0.5, 1.0, 2.0)
    phi: str = "sinehump"
    psi: str = "sinemix"
    forcing: str = "none"
    forcing_omega: float = 1.5
    smoothed: bool = True
    seed: int = 7
    n_probe: int = 5
    zeta: float = -1.0
    cell_n: int = 0                 # 0 = dimension default (256 / 64)
    h_over_eps: float = H_OVER_EPS
    out_dir: str = "."
    evolve_eps: float = 0.125       # single-eps runs of the evolve command

    def __post_init__(self):
        # refuse what could only fail after the cell solve.  Per INI key:
        # its values, their test and what the test asks; NaN fails each
        unit = lambda v: 0.0 < v <= 1.0
        for key, values, ok, must in (
                ("[mesh] h_over_eps", [self.h_over_eps],
                 lambda v: 0.0 < v <= H_OVER_EPS,
                 "lie in (0, 1/16]: the mesh can only refine h <= eps/16"),
                ("[sweep] eps", self.eps_list, unit, "lie in (0, 1]"),
                ("[evolve] eps", [self.evolve_eps], unit, "lie in (0, 1]"),
                ("[sweep] n_probe", [self.n_probe], lambda v: v >= 5,
                 "be at least 5 random right-hand sides per eps"),
                ("[sweep] t", self.t_list, np.isfinite, "be finite"),
                ("[sweep] zeta", [self.zeta], np.isfinite, "be finite"),
                ("[data] forcing_omega", [self.forcing_omega], np.isfinite,
                 "be finite"),
                ("[domain] box", np.atleast_1d(self.box),
                 lambda v: 0.0 < v < np.inf, "be finite and positive")):
            for v in values:
                if not ok(v):
                    raise ValueError(f"{key} = {v:g} must {must}")
        if not np.size(self.box):
            raise ValueError("[domain] box = [] must give one side per axis")
        if self.eps_list:       # a default list is checked by the sweeps
            self.resolved_eps(np.size(self.box))
        if self.basis is not None and not _is_basis(self.basis):
            raise ValueError(f"[lattice] basis = {self.basis} must be d rows "
                             "of d numbers, as [[1.0, 0.0], [0.5, 1.0]], or "
                             "one number, as [2.0]")

    def resolved_eps(self, d: int) -> list[float]:
        eps = sorted(list(self.eps_list) or [
            2.0 ** -k for k in (range(3, 8) if d == 1 else range(2, 6))],
            reverse=True)
        if len(set(eps)) < len(eps) or eps[0] > min(self.box) / 4.0 + 1e-12:
            if not self.eps_list:
                raise ValueError(
                    f"[sweep] eps is not set, and the default list for d={d}, "
                    f"{eps}, exceeds the surrogate bound min box side / 4 = "
                    f"{min(self.box) / 4.0:g}; [sweep] eps sets the list")
            raise ValueError(f"[sweep] eps = {eps} must hold distinct values "
                             "up to the surrogate bound min box side / 4")
        return eps

    def resolved_cell_n(self, d: int) -> int:
        if self.cell_n:
            return int(self.cell_n)
        return 256 if d == 1 else 64


@dataclass(frozen=True)
class EstimateResult:
    tag: str
    norm: str
    rows: list            # (eps, t or None, error)
    slope: float
    intercept: float
    max_residual: float
    threshold: float
    verdict: str          # pass / fail / exact / reported / insufficient

    def passed(self) -> bool:
        return self.verdict in ("pass", "exact", "reported")


@dataclass(frozen=True)
class RateReport:
    estimates: list
    wall_time: float
    meta: dict

    def all_passed(self) -> bool:
        return all(e.passed() for e in self.estimates)


# ---------------------------------------------------------------------------
# rate fitting


def fit_rate(points) -> tuple[float, float, float]:
    """Least-squares slope/intercept of log(err) against log(eps).

    Returns (slope, intercept, max_residual).  Raises ZeroError when an
    error is exactly zero (callers report those points as "exact" and drop
    them) and InsufficientPoints below two usable points.
    """
    pts = [(float(e), float(err)) for e, err in points]
    if len(pts) < 2:
        raise InsufficientPoints(f"need >= 2 points, got {len(pts)}")
    if len({e for e, _ in pts}) != len(pts):
        raise ValueError("eps values must be distinct")
    if any(err <= 0.0 for _, err in pts):
        raise ZeroError("zero error is exact: exclude it before fitting")
    x = np.log([e for e, _ in pts])
    y = np.log([err for _, err in pts])
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(sol[0]), float(sol[1])
    residual = float(np.abs(A @ sol - y).max())
    return slope, intercept, residual


def _judge(tag: str, norm: str, rows, threshold) -> EstimateResult:
    """Aggregate rows to per-eps errors, fit, and attach the verdict."""
    nan = float("nan")
    if not all(math.isfinite(err) for _eps, _t, err in rows):
        # max() below drops NaN, so a non-finite error fails outright
        return EstimateResult(tag, norm, rows, nan, nan, nan,
                              threshold or nan, "fail")
    per_eps: dict[float, float] = {}
    for eps, _t, err in rows:
        per_eps[eps] = max(per_eps.get(eps, 0.0), float(err))
    usable = [(e, v) for e, v in sorted(per_eps.items()) if v > EXACT_TOL]
    if not usable:
        return EstimateResult(tag, norm, rows, nan, nan, 0.0, threshold or nan,
                              "exact" if threshold else "reported")
    slope, intercept, resid = (fit_rate(usable) if len(usable) >= 2
                               else (nan,) * 3)
    if threshold is None:
        return EstimateResult(tag, norm, rows, slope, intercept, resid, nan,
                              "reported")
    if len(usable) < 4:     # a slope, but too few points for a verdict
        verdict = "insufficient"
    else:
        verdict = "pass" if slope >= threshold else "fail"
    return EstimateResult(tag, norm, rows, slope, intercept, resid,
                          threshold, verdict)


# ---------------------------------------------------------------------------
# shared sweep scaffolding


#: smooth data profiles: per-axis factors, applied as vals = f(vals, x, L)
_PROFILES = {
    "sinehump": lambda v, x, L: v * np.sin(np.pi * x / L),
    "sinemix": lambda v, x, L: v * (np.sin(np.pi * x / L)
                                    + 0.3 * np.sin(2.0 * np.pi * x / L)),
    "poly": lambda v, x, L: v * x * (L - x) * 4.0 / L ** 2,
    "offcenter": lambda v, x, L: v * np.sin(np.pi * x / L) * np.exp(x / L),
}


def data_profile(name: str, mesh: Mesh, n: int) -> np.ndarray:
    """Smooth catalog data on interior nodes, unit discrete L2 norm."""
    if name == "none":
        return np.zeros(mesh.n_nodes * n)
    if name not in _PROFILES:
        raise ValueError(f"unknown data profile {name!r}; "
                         f"choose from {('none', *_PROFILES)}")
    grids = np.meshgrid(*mesh.axes(), indexing="ij")
    vals = np.ones_like(grids[0])
    for x, Lk in zip(grids, mesh.box):
        vals = _PROFILES[name](vals, x, Lk)
    vec = np.repeat(vals.reshape(-1), n).astype(float)
    return vec / l2_norm(mesh, vec)


@dataclass
class Fixture:
    lat: Lattice
    coeffs: CoefficientSet
    cell: CellSolution


def build_fixture(cfg: SweepConfig, sweep: bool = False) -> Fixture:
    """Coefficients (from the catalog or a samples file), lattice and cell.
    What needs only the fixture's dimension d is checked before the cell
    solve: the box, the basis and, for a sweep, its eps list, the default
    list for d included."""
    if cfg.fixture == "samples_file":
        g = load_field_csv(cfg.fixture_params["path"])
        coeffs = CoefficientSet(symbol=gradient_symbol(g.dim), g=g).validate()
    else:
        coeffs = catalog(cfg.fixture, cfg.fixture_params)
    d = coeffs.d
    lat = build_lattice(cfg.basis) if cfg.basis is not None else unit_lattice(d)
    for key, dim in (("[domain] box", np.size(cfg.box)),
                     ("[lattice] basis", lat.dim)):
        if dim != d:        # refused before the cell solve
            raise ValueError(f"{key} is {dim}-dimensional, but fixture "
                             f"{cfg.fixture} is {d}-dimensional")
    if sweep:
        cfg.resolved_eps(d)
    cell = solve_cell(coeffs, lat, cfg.resolved_cell_n(d))
    return Fixture(lat=lat, coeffs=coeffs, cell=cell)


@dataclass
class Case:
    """One eps value of a sweep: mesh, operators, and extension machinery."""

    eps: float
    mesh: Mesh
    op_eps: object
    op_0: object
    ext: object
    decomposable: bool      # every mesh of the sweep is within the eig cap


def extension_margin(lat: Lattice, eps_max: float, box) -> float:
    """Extension margin: twice the smoothing reach, clamped to what the
    reflection stencil can source from the box (an issue only when the
    cell radius is large relative to the domain, e.g. 2d unit boxes)."""
    margin = 2.0 * lat.r1 * eps_max
    feasible = min(box) / 3.5
    if margin > feasible:
        margin = max(feasible, 1.05 * lat.r1 * eps_max)
    return margin


def build_cases(fix: Fixture, cfg: SweepConfig, eps_list,
                decomposes: bool = False) -> list[Case]:
    """Both operators per eps, each assembled and probed once on its case's
    mesh, then shifted by the lam those probes choose (no re-assembly).
    Every mesh is first checked against the eigensolver cap: over it, a
    caller that decomposes gets EigSolverFailure, any other undecomposable
    cases."""
    box = tuple(float(L) for L in np.atleast_1d(cfg.box))
    margin = extension_margin(fix.lat, max(eps_list), box)
    meshes = [mesh_for(box, eps * cfg.h_over_eps) for eps in eps_list]
    decomposable = True
    try:
        for eps, mesh in zip(eps_list, meshes):
            check_decomposable(mesh.n_nodes * fix.coeffs.symbol.n, eps)
    except EigSolverFailure:
        if decomposes:
            raise
        decomposable = False
    pairs = [(assemble_b_eps(mesh, fix.coeffs, eps, fix.lat),
              assemble_b0(mesh, fix.cell, fix.coeffs))
             for eps, mesh in zip(eps_list, meshes)]
    lam = choose_lambda([op for pair in pairs for op in pair], fix.coeffs)
    return [Case(eps=eps, mesh=mesh, op_eps=op_eps.shifted(lam),
                 op_0=op_0.shifted(lam), ext=build_extension(mesh, margin),
                 decomposable=decomposable)
            for eps, mesh, (op_eps, op_0) in zip(eps_list, meshes, pairs)]


def _seeded_probes(cfg: SweepConfig, case_idx: int, mesh: Mesh, n: int):
    """Random right-hand sides of unit L2 norm, one per row."""
    rng = np.random.default_rng((cfg.seed, case_idx))
    f = rng.standard_normal((cfg.n_probe, mesh.n_nodes * n))
    return f / l2_norm(mesh, f)[:, None]


def evolve_case(fix: Fixture, cfg: SweepConfig, case: Case,
                energy_phi_zero: bool = True):
    """Evolve (B0)^-2 catalog data through both operators of one case.

    Returns (u_eps, u_0, ue_en, v_eps, p_eps, p_apx), times leading: the
    full solutions, the part ue_en of u_eps compared in energy, its
    first-order approximation, its flux and the flux approximation.  The
    energy-norm estimates hold only for vanishing initial displacement, so
    with energy_phi_zero that part is row 1 of the stack [phi, 0 * phi]
    each operator evolves once; otherwise it is row 0, u_eps itself.
    """
    n = fix.coeffs.symbol.n
    t_list = list(cfg.t_list)
    eb_eps = spectral_decompose(case.op_eps)
    eb_0 = spectral_decompose(case.op_0)

    def data(name):
        """(B0)^-2 of a profile: the regularity the rate theory demands."""
        vec = data_profile(name, case.mesh, n)
        return case.op_0.solve_shifted(0.0, case.op_0.solve_shifted(0.0, vec))

    phi, psi = data(cfg.phi), data(cfg.psi)
    forcing = (None if cfg.forcing == "none"
               else (cfg.forcing_omega, data(cfg.forcing)))
    u_eps, u_0 = (solve_ibvp(eb, np.stack([phi, 0 * phi]), psi, forcing,
                             t_list).u for eb in (eb_eps, eb_0))
    en = int(energy_phi_zero)
    ue_en, u0_en, u_eps, u_0 = u_eps[:, en], u_0[:, en], u_eps[:, 0], u_0[:, 0]
    # first_order_approx and flux_approx on one compiled smoothing
    cor = Corrector(fix.cell, case.eps, fix.coeffs.symbol, case.ext, fix.lat,
                    cfg.smoothed)
    v_eps = u0_en + case.eps * cor.apply_ext(u0_en)
    p_eps = flux(ue_en, fix.coeffs, case.eps, case.mesh, fix.lat)
    p_apx = flux_approx(u0_en, fix.cell, case.eps, cfg.smoothed, fix.coeffs,
                        case.ext, fix.lat, cor.factors)
    return u_eps, u_0, ue_en, v_eps, p_eps, p_apx


# ---------------------------------------------------------------------------
# the sweep engine and its three estimates


@dataclass(frozen=True)
class Estimate:
    """What a sweep measures: entries (tag, norm, threshold or None) and
    case_rows(fix, cfg, case index, case) -> {tag: [(eps, t, error)]}.

    A tag no case returns is left out of the report.  decomposes: every
    case is eigendecomposed; check: validates the config before any work;
    meta: extra report meta.
    """

    entries: tuple
    case_rows: Callable
    decomposes: bool = False
    check: Callable = lambda cfg: None
    meta: Callable = lambda cfg: {}


def run_sweep(cfg: SweepConfig, estimate: Estimate) -> RateReport:
    """Measure one estimate on every eps case and fit its rates."""
    t0 = time.perf_counter()
    estimate.check(cfg)
    fix = build_fixture(cfg, sweep=True)
    eps_list = cfg.resolved_eps(fix.coeffs.d)
    cases = build_cases(fix, cfg, eps_list, estimate.decomposes)
    meta = {"fixture": cfg.fixture, "d": fix.coeffs.d, "eps": list(eps_list),
            "t": list(cfg.t_list), "smoothed": cfg.smoothed, "seed": cfg.seed,
            "corrector_norm": fix.cell.corrector_norm(),
            "lam": cases[0].op_eps.lam,
            "smallest_eig": [{"eps": c.eps, "op_eps": c.op_eps.smallest_eig,
                              "op_0": c.op_0.smallest_eig} for c in cases],
            **estimate.meta(cfg)}
    rows = {}
    for idx, case in enumerate(cases):
        cases[idx] = None   # free each case's operators and LUs once measured
        for tag, case_rows in estimate.case_rows(fix, cfg, idx, case).items():
            rows.setdefault(tag, []).extend(case_rows)
    return RateReport(
        estimates=[_judge(tag, norm, rows[tag], threshold)
                   for tag, norm, threshold in estimate.entries if tag in rows],
        wall_time=time.perf_counter() - t0, meta=meta)


def _hyperbolic_rows(fix: Fixture, cfg: SweepConfig, idx: int, case: Case):
    u_eps, u_0, ue_en, v_eps, p_eps, p_apx = evolve_case(fix, cfg, case)
    mesh, n = case.mesh, fix.coeffs.symbol.n
    errors = {"solution_l2": l2_norm(mesh, u_eps - u_0),
              "solution_h1_corrector": h1_norm(mesh, ue_en - v_eps, n),
              "flux_l2": l2_norm(mesh, (p_eps - p_apx).reshape(len(p_eps), -1))}
    return {tag: [(case.eps, t, e) for t, e in zip(cfg.t_list, err.tolist())]
            for tag, err in errors.items()}


def _resolvent_rows(fix: Fixture, cfg: SweepConfig, idx: int, case: Case):
    sym, n = fix.coeffs.symbol, fix.coeffs.symbol.n
    zeta = float(cfg.zeta)
    cor = Corrector(fix.cell, case.eps, sym, case.ext, fix.lat, smoothed=True)
    if case.decomposable:
        eb_eps = spectral_decompose(case.op_eps)
        eb_0 = spectral_decompose(case.op_0)
    probes = _seeded_probes(cfg, idx, case.mesh, n)
    u_eps = resolvent(case.op_eps, zeta, probes)
    u_0 = resolvent(case.op_0, zeta, probes)
    e_l2 = l2_norm(case.mesh, u_eps - u_0).max()
    v_eps = u_0 + case.eps * cor.apply_ext(u_0)
    e_h1 = h1_norm(case.mesh, u_eps - v_eps, n).max()
    rows = {"resolvent_l2": [(case.eps, None, float(e_l2))],
            "resolvent_h1_corrector": [(case.eps, None, float(e_h1))]}
    if case.decomposable:
        diffs = op_inv_sqrt(eb_eps, probes) - op_inv_sqrt(eb_0, probes)
        rows["inv_sqrt_l2"] = [
            (case.eps, None, float(l2_norm(case.mesh, diffs).max()))]
    return rows


def _check_zeta(cfg: SweepConfig):
    if float(cfg.zeta) > 0:
        raise ValueError("resolvent sweep expects zeta <= 0")


def _subtract_into(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b, written over b when b's dtype holds it (b real and a complex
    does not: a real corrector meets a complex B_eps)."""
    return np.subtract(a, b, out=b if np.result_type(a, b) == b.dtype else None)


def _cosine_rows(fix: Fixture, cfg: SweepConfig, idx: int, case: Case):
    sym, n = fix.coeffs.symbol, fix.coeffs.symbol.n
    t_list = [t for t in cfg.t_list if t != 0.0]
    cor = Corrector(fix.cell, case.eps, sym, case.ext, fix.lat, smoothed=True)
    eb_eps = spectral_decompose(case.op_eps)
    eb_0 = spectral_decompose(case.op_0)
    errors = {"cos_h1_corrector": [], "cos_plain_h1": []}    # per probe
    # the three solves once per case, on the probe stack; the times stay
    # one stack per probe, as stacking the probes too would hold n_probe
    # (T, ndof) paths at once and raise peak RSS
    f = _seeded_probes(cfg, idx, case.mesh, n)
    y0 = case.op_0.solve_shifted(0.0, f)              # (B0)^-1 f
    y00 = case.op_0.solve_shifted(0.0, y0)            # (B0)^-2 f
    y_eps = case.op_eps.solve_shifted(0.0, y0)        # (B_eps)^-1 (B0)^-1 f
    for y_e, y_00 in zip(y_eps, y00):
        w_0 = op_cosine(eb_0, t_list, y_00)
        k = cor.apply_ext(w_0)          # w_0 + eps K w_0, in place
        corrected = np.add(np.multiply(k, case.eps, out=k), w_0, out=k)
        # B_eps of both vectors in one pass: (T, 2, ndof)
        w = op_cosine(eb_eps, t_list, np.stack([y_e, y_00]))
        errors["cos_h1_corrector"].append(
            h1_norm(case.mesh, _subtract_into(w[:, 0], corrected), n))
        errors["cos_plain_h1"].append(
            h1_norm(case.mesh, _subtract_into(w[:, 1], w_0), n))
    return {tag: [(case.eps, t, e) for err in per_probe
                  for t, e in zip(t_list, err.tolist())]
            for tag, per_probe in errors.items()}


def check_times(cfg: SweepConfig):
    if not cfg.t_list:
        raise ValueError("[sweep] t = [] must hold at least one time")


def _check_cosine_times(cfg: SweepConfig):
    if all(t == 0.0 for t in cfg.t_list):
        raise ValueError("[sweep] t needs a time t != 0 for the cosine sweep")


HYPERBOLIC = Estimate(
    entries=(("solution_l2", "L2", SLOPE_FULL),
             ("solution_h1_corrector", "H1", SLOPE_HALF),
             ("flux_l2", "L2", SLOPE_HALF)),
    case_rows=_hyperbolic_rows, decomposes=True, check=check_times)

RESOLVENT = Estimate(
    entries=(("resolvent_l2", "L2", SLOPE_FULL),
             ("resolvent_h1_corrector", "H1", SLOPE_HALF),
             ("inv_sqrt_l2", "L2", SLOPE_HALF)),
    case_rows=_resolvent_rows, check=_check_zeta,
    meta=lambda cfg: {"zeta": float(cfg.zeta)})

COSINE = Estimate(
    entries=(("cos_h1_corrector", "H1", SLOPE_HALF),
             ("cos_plain_h1", "H1", None)),
    case_rows=_cosine_rows, decomposes=True, check=_check_cosine_times)


def convergence_sweep(cfg: SweepConfig) -> RateReport:
    """Hyperbolic solution errors: L2, H1 with corrector, and flux."""
    return run_sweep(cfg, HYPERBOLIC)


def resolvent_sweep(cfg: SweepConfig) -> RateReport:
    """Resolvent errors at fixed zeta: L2, H1 with corrector, inverse root."""
    return run_sweep(cfg, RESOLVENT)


def cosine_corrector_sweep(cfg: SweepConfig) -> RateReport:
    """Smoothed-cosine corrector rate in H1 plus the no-verdict plain error."""
    return run_sweep(cfg, COSINE)


# ---------------------------------------------------------------------------
# report emission


def rates_csv_text(report: RateReport) -> str:
    lines = ["estimate,eps,t,error,norm"]
    for est in report.estimates:
        for eps, t, err in est.rows:
            t_txt = "" if t is None else f"{t:.17g}"
            lines.append(f"{est.tag},{eps:.17g},{t_txt},{err:.17g},{est.norm}")
    return "\n".join(lines) + "\n"


def report_txt_text(report: RateReport) -> str:
    lines = []
    for est in report.estimates:
        lines.append(f"{est.tag} {est.slope:.12g} {est.intercept:.12g} "
                     f"{est.verdict}")
    lines.append(f"# wall_time_s {report.wall_time:.3f}")
    return "\n".join(lines) + "\n"


def write_report(report: RateReport, out_dir: str):
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rates.csv").write_text(rates_csv_text(report))
    (out / "report.txt").write_text(report_txt_text(report))


# ---------------------------------------------------------------------------
# self test of the trivially-checkable fixtures


def selftest(verbose: bool = True) -> list[tuple[str, bool]]:
    """Run every cheap closed-form fixture; returns (name, ok) pairs."""
    from .lattice import frequencies
    from .coefficients import eval_scaled, symbol_bounds
    from .cell import solve_lambda, solve_lambda_tilde
    from .dirichlet import (make_mesh, smooth, build_extension, extend,
                            smallest_eigenvalue, DiscreteDirichletOperator)
    from .evolution import op_sine_scaled
    import scipy.sparse as sp

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        checks.append((name, ok))
        if verbose:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")

    lat1 = unit_lattice(1)
    check("lattice.unit_duality",
          lambda: abs(lat1.dual_basis[0, 0] - 2 * np.pi) < 1e-12
          and abs(lat1.cell_volume - 1) < 1e-12
          and abs(2 * lat1.r1 - 1) < 1e-12 and abs(2 * lat1.r0 - 2 * np.pi) < 1e-12)
    check("lattice.frequencies_n2",
          lambda: len(frequencies(lat1, 2)) == 2
          and any(np.allclose(k, 0) for k in frequencies(lat1, 2)))
    check("symbol.scalar_bounds",
          lambda: symbol_bounds([[[1.0]]]) == (1.0, 1.0))
    cs_const = catalog("const", {"g": 3.0, "d": 1})
    check("coefficients.const_eval",
          lambda: abs(eval_scaled(cs_const.g, lat1, 0.3, [[0.2]])[0, 0, 0] - 3.0)
          < 1e-12)
    check("cell.lambda_zero_for_const",
          lambda: np.abs(solve_lambda(cs_const.symbol, cs_const.g, lat1, 16)
                         .samples).max() < 1e-12)
    check("cell.lambda_tilde_zero_without_a",
          lambda: np.abs(solve_lambda_tilde(cs_const.symbol, cs_const.g, (),
                                            lat1, 16).samples).max() == 0.0)
    mesh = make_mesh([1.0], [31])
    op = assemble_b_eps(mesh, catalog("const", {"g": 1.0, "d": 1}), 1.0)
    h = mesh.h[0]
    ref = sp.diags([np.full(30, -1.0), np.full(31, 2.0), np.full(30, -1.0)],
                   [-1, 0, 1]) / h ** 2
    check("dirichlet.unit_laplacian",
          lambda: np.abs((op.matrix - ref).toarray()).max() < 1e-10)
    m9 = make_mesh([1.0, 1.0], [15, 15])
    q1 = np.zeros((15, 15))
    q1[6:9, 6:9] = -1.0 / 3.0
    q1[7, 7] = 8.0 / 3.0
    check("dirichlet.q1_stencil_2d",    # g = I: an interior row, times h^2
          lambda: np.abs(assemble_b_eps(m9, catalog("const", {"g": 1.0, "d": 2}),
                                        1.0).matrix[7 * 15 + 7].toarray()
                         * m9.h[0] ** 2 - q1.ravel()).max() < 1e-12)

    def smoothed(box, lat, margin, u, eps=0.25):
        # S_eps u at 64 nodes per eps-period, read only where it reads
        # interior nodes: farther than r = eps r1 + h from the boundary
        mesh = make_mesh(box, [255] * len(box))
        out = smooth(u(*np.meshgrid(*mesh.axes(), indexing="ij")).ravel(),
                     build_extension(mesh, margin), lat, eps)
        return out[np.ix_(*[(x > r) & (x < L - r) for x, L, r in zip(
            mesh.axes(), mesh.box, eps * lat.r1 + np.array(mesh.h))])]

    check("dirichlet.steklov_constant",
          lambda: np.abs(smoothed([1.0], lat1, 0.2, np.ones_like) - 1.0).max()
          < 1e-12)
    check("dirichlet.steklov_character",
          lambda: np.abs(smoothed([1.0], lat1, 0.2,
                                  lambda x: np.exp(8j * np.pi * x))).max() < 1e-3)
    check("dirichlet.steklov_character_2d",  # a character along each box axis
          lambda: np.abs(smoothed(
              [1.0, 1.3], build_lattice(np.diag([1.0, 1.3])), 0.3,
              lambda x1, x2: np.exp(8j * np.pi * x1)
              + np.exp(8j * np.pi * x2 / 1.3))).max() < 1e-3)
    ext = build_extension(mesh, 0.2)
    u_test = np.sin(np.pi * mesh.axes()[0])
    check("dirichlet.extension_identity",
          lambda: np.abs(ext.restrict(extend(u_test, ext)) - u_test).max() == 0.0)
    eb = spectral_decompose(op)
    v = np.sin(np.pi * mesh.axes()[0])
    check("evolution.cos_t0_identity",
          lambda: np.abs(op_cosine(eb, 0.0, v) - v).max() < 1e-12)
    check("evolution.sine_t0_zero",
          lambda: np.abs(op_sine_scaled(eb, 0.0, v)).max() == 0.0)
    check("evolution.ibvp_zero_data",
          lambda: np.abs(solve_ibvp(eb, 0 * v, 0 * v, None, [0.5, 1.0]).u).max()
          == 0.0)
    m2 = make_mesh([1.0, 1.0], [15, 17])
    lap1 = [sp.diags([-np.ones(M - 1), np.full(M, 2.0), -np.ones(M - 1)],
                     [-1, 0, 1]) / hk ** 2 for M, hk in zip(m2.m_int, m2.h)]
    lap2 = (sp.kron(lap1[0], sp.identity(m2.m_int[1]))
            + sp.kron(sp.identity(m2.m_int[0]), lap1[1])).tocsr()
    lap_op = DiscreteDirichletOperator(lap2, m2, "laplacian", 0.0)
    check("dirichlet.separable_probe_laplacian",
          lambda: abs(smallest_eigenvalue(lap2, lap_op.bands)
                      - sum(4.0 / hk ** 2 * np.sin(np.pi * hk / 2) ** 2
                            for hk in m2.h)) < 1e-10)
    f2 = np.cos(np.arange(lap_op.size))
    lap_exact = np.add.outer(*(
        4.0 / hk ** 2 * np.sin(np.arange(1, M + 1) * np.pi * hk / 2) ** 2
        for M, hk in zip(m2.m_int, m2.h)))
    check("dirichlet.dst_spectrum_laplacian",
          lambda: np.abs(lap_op.spectrum - lap_exact).max() < 1e-10
          and np.linalg.norm(lap2 @ lap_op.solve_shifted(0.0, f2) - f2)
          < 1e-12 * np.linalg.norm(f2))
    check("study.fit_rate_exact",
          lambda: abs(fit_rate([(e, e) for e in (0.1, 0.05, 0.025, 0.0125)])[0]
                      - 1.0) < 1e-12)
    check("study.fit_rate_sqrt",
          lambda: abs(fit_rate([(e, np.sqrt(e)) for e in (0.1, 0.05, 0.025)])[0]
                      - 0.5) < 1e-12)
    return checks
