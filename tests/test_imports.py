"""Cold start: importing the package loads numpy, scipy.linalg and
scipy.sparse, and no other scipy subpackage; neither does a forced sweep,
whose forcing profile cos(omega t) is evaluated in closed form.  Each check
runs in a fresh interpreter, since this test session has imported scipy
widely."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: scipy subpackages that importing the package must not load
UNUSED_AT_IMPORT = ("scipy.interpolate", "scipy.optimize", "scipy.spatial",
                    "scipy.special", "scipy.fft")


def run_fresh(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return done.stdout


def unwanted_modules(loaded) -> list:
    return [name for name in loaded for pkg in UNUSED_AT_IMPORT
            if name == pkg or name.startswith(pkg + ".")]


def test_cli_import_loads_only_the_scipy_it_needs():
    loaded = run_fresh("import sys, oscillat.cli\n"
                       "print(*sorted(sys.modules))").split()
    assert {"scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"} <= set(loaded)
    assert unwanted_modules(loaded) == []


def test_forced_solve_ibvp_runs_in_fresh_process():
    # one forced mode against its closed form (as test_evolution checks it),
    # then a small forced sweep; neither loads a module of UNUSED_AT_IMPORT
    out = run_fresh("""
import sys
import numpy as np
from oscillat.coefficients import catalog
from oscillat.dirichlet import make_mesh, assemble_b_eps
from oscillat.evolution import spectral_decompose, solve_ibvp
from oscillat.lattice import unit_lattice
from oscillat.study import SweepConfig, convergence_sweep

op = assemble_b_eps(make_mesh([1.0], [63]), catalog("const", {"g": 1.0, "d": 1}),
                    1.0, unit_lattice(1))
eb = spectral_decompose(op)
q1, mu1, omega = eb.synthesize(np.eye(op.size)[0]), eb.eigenvalues[0], 3.0
res = solve_ibvp(eb, 0 * q1, 0 * q1, (omega, q1), [0.5, 1.0, 2.0])
coef = (np.cos(omega * res.times) - np.cos(np.sqrt(mu1) * res.times)) / (mu1 - omega ** 2)
print(np.abs(res.u - coef[:, None] * q1).max())
convergence_sweep(SweepConfig(eps_list=(0.125, 0.0625, 0.03125, 0.015625),
                              t_list=(0.5, 1.0), forcing="poly"))
print(*sorted(sys.modules))
""").split()
    assert float(out[0]) < 1e-8
    assert "oscillat.study" in out[1:]
    assert unwanted_modules(out[1:]) == []


def test_package_namespace_is_what_the_demos_import():
    # the package namespace holds the names the demos use: each name in
    # oscillat.__all__ is imported by some demo, and each name a demo
    # imports from oscillat is in __all__
    import ast

    import oscillat

    used = set()
    for path in (SRC.parent / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "oscillat":
                used.update(alias.name for alias in node.names)
    assert used and used == set(oscillat.__all__)
    assert all(hasattr(oscillat, name) for name in oscillat.__all__)
