"""oscillat benchmark: time to a rate verdict on the named sweep workloads.

    python3 bench/run.py --workload hyperbolic-d1 --seed 7 --seconds 40 --trace 0

One closed-loop caller in one process.  With ``--trace 0`` the run first
times ``SETUP_SAMPLES`` cold set-ups in fresh processes, then runs sweeps
one after another until the next would end past ``--seconds`` from the
start (at least one runs), and the result holds the end-to-end metrics.
With ``--trace 1`` it times no set-up, alternates untraced and traced
sweeps, and the result holds the per-layer metrics of the traced ones.
Every sweep's verdicts and slopes are checked against
``bench/reference.json``.  Lines before the last describe the
run; the last line is the result as one JSON object.  See bench/README.md.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

from workloads import (ROOT, SRC, WORKLOADS, nproc, pin_blas_threads, setup,
                       sweep_seed)

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 11
COVERAGE_MIN = 0.95

#: unit of each per-layer metric, as BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "evolution.decompose_s": "s", "evolution.decompose_calls": "count",
    "evolution.decompose_unknowns_max": "count",
    "dirichlet.probe_s": "s", "dirichlet.probe_calls": "count",
    "dirichlet.probe_unknowns_sum": "count", "dirichlet.shift_search_s": "s",
    "dirichlet.lu_factor_s": "s", "dirichlet.lu_factorizations": "count",
    "dirichlet.lu_solve_s": "s", "dirichlet.lu_reuse_ratio": "ratio",
    "dirichlet.corrector_s": "s", "dirichlet.corrector_applies": "count",
    "evolution.apply_s": "s", "evolution.apply_calls": "count",
    "evolution.flux_s": "s", "dirichlet.assemble_s": "s",
    "dirichlet.norms_s": "s",
    "coefficients.eval_grid_s": "s", "coefficients.eval_grid_calls": "count",
    "cell.solve_s": "s", "cell.cg_residual_max": "ratio",
    "study.self_s": "s", "study.fit_s": "s",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7,
                   help="selects SweepConfig.seed = SEED mod 32, which draws "
                        "the random probes")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time; 0 runs a single sweep")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time, in fresh processes


def time_setups(workload: str, seed: int, n: int) -> list[float]:
    """Seconds from process start until ``setup`` returned, n fresh processes."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
    return out


# ---------------------------------------------------------------------------
# output check


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_report(report, ref: dict, workload: str, seed: int) -> list[str]:
    """Mismatches of one sweep's verdicts and slopes against the reference."""
    band = ref["tolerance"]["slope_abs"]
    want = ref["workloads"][workload][str(seed)]
    got = {e.tag: (e.verdict, e.slope) for e in report.estimates}
    if sorted(got) != sorted(want):
        return [f"estimates {sorted(got)} differ from the reference {sorted(want)}"]
    problems = []
    for tag, (verdict, slope) in got.items():
        ref_verdict, ref_slope = want[tag]["verdict"], want[tag]["slope"]
        if verdict != ref_verdict:
            problems.append(f"{tag}: verdict {verdict}, reference {ref_verdict}")
        if not (math.isnan(slope) and math.isnan(ref_slope)) and \
                not abs(slope - ref_slope) <= band:
            problems.append(f"{tag}: slope {slope!r}, reference {ref_slope!r} "
                            f"+- {band!r}")
    return problems


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                config = getattr(lib, f"{prefix}get_config{suffix}")
                config.restype = ctypes.c_char_p
                blas[pathlib.Path(path).name] = {
                    "threads": getattr(lib, f"{prefix}get_num_threads{suffix}")(),
                    "config": config().decode(),
                }
                break
    cpu = platform.processor()
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the library's sources, which names the code measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the run


def run(args) -> int:
    if not (SRC / "oscillat" / "__init__.py").is_file():
        print(f"error: no oscillat sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    seed = sweep_seed(args.seed)
    start = time.perf_counter()
    # set-up time is an end-to-end metric only; a traced run spends none on it
    setup_samples = ([] if args.trace
                     else time_setups(args.workload, seed, SETUP_SAMPLES))
    sweep_name, cfg = setup(args.workload, seed)

    import oscillat.study
    from spans import Tracer

    ref = load_reference()
    tracer = Tracer() if args.trace else None
    samples = {False: [], True: []}     # traced? -> sweep seconds
    layer_samples = []
    attempted = failed = 0
    print(f"# workload={args.workload} seed={args.seed} sweep_seed={seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment()))

    while True:
        # start each sweep without the last one's garbage, as a fresh CLI
        # process would; otherwise it lifts the next sweep's peak memory
        gc.collect()
        traced = bool(tracer) and attempted % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        sweep = getattr(oscillat.study, sweep_name)
        attempted += 1
        t0 = time.perf_counter()
        try:
            report = sweep(cfg)
        except Exception as exc:  # a failed sweep is counted, not fatal
            report, problems = None, [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if report is not None:
            problems = check_report(report, ref, args.workload, seed)
        if traced:
            tracer.uninstall()
            layer_samples.append(tracer.metrics(dt))
        samples[traced].append(dt)
        failed += bool(problems)
        print(f"# sweep {attempted}{' traced' if traced else ''}: {dt:.3f} s "
              + ("ok" if not problems else "FAILED " + "; ".join(problems)),
              flush=True)
        elapsed = time.perf_counter() - start
        need_more = tracer and not samples[True]
        if not need_more and (problems or elapsed + dt > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sweep_s = statistics.median(samples[False])
    print(f"# sweep_s      {sweep_s:.4f} s   median of {len(samples[False])}: "
          + " ".join(f"{s:.3f}" for s in samples[False]))
    if setup_samples:
        setup_s = statistics.median(setup_samples)
        print(f"# setup_s      {setup_s:.4f} s   median of {len(setup_samples)}: "
              + " ".join(f"{s:.3f}" for s in setup_samples))
    print(f"# peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"# failed_frac  {failed / attempted:.4g}   {failed} of {attempted} sweeps")

    if tracer:
        metrics, guard_problems = layer_metrics(layer_samples, samples, args.workload)
        for name, value in metrics.items():
            print(f"# {name:34s} {value:.6g}")
        for problem in guard_problems:
            print(f"layer guard failed: {problem}", file=sys.stderr)
        units = PER_LAYER_UNITS
    else:
        guard_problems = []
        metrics = {"sweep_s": sweep_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    correct = failed == 0 and not guard_problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(layer_samples, samples, workload):
    """Median per-layer metrics of the traced sweeps, and failed layer guards."""
    metrics = {k: statistics.median(s[k] for s in layer_samples)
               for k in layer_samples[0]}
    metrics["trace.overhead_frac"] = (statistics.median(samples[True])
                                      / statistics.median(samples[False]) - 1.0)
    problems = []
    if metrics["trace.coverage_frac"] < COVERAGE_MIN:
        problems.append(f"trace.coverage_frac {metrics['trace.coverage_frac']:.4f} "
                        f"< {COVERAGE_MIN}")
    for name, op, value in WORKLOADS[workload].guards:
        ok = metrics[name] == value if op == "==" else metrics[name] > value
        if not ok:
            problems.append(f"{workload}: expected {name} {op} {value}, "
                            f"got {metrics[name]}")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
