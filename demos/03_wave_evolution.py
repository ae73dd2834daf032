"""Wave evolution with a rapidly oscillating coefficient.

Builds the oscillating and effective operators on (0, 1), evolves the same
smooth data through both, attaches the two-scale corrector to the effective
solution, and cross-checks the spectral evolution against the symplectic
time stepper.
"""

import numpy as np

from oscillat import (
    catalog,
    unit_lattice,
    solve_cell,
    mesh_for,
    assemble_b_eps,
    assemble_b0,
    build_extension,
    spectral_decompose,
    solve_ibvp,
    flux,
    flux_approx,
    leapfrog_oracle,
    l2_norm,
    h1_norm,
)
from oscillat.dirichlet import Corrector, choose_lambda

eps = 1 / 8
cs = catalog("sine1d")
lat = unit_lattice(1)
cell = solve_cell(cs, lat, 256)
mesh = mesh_for([1.0], eps / 16)
# one shift from the probes of both operators makes them positive definite
ops = [assemble_b_eps(mesh, cs, eps, lat), assemble_b0(mesh, cell, cs)]
lam = choose_lambda(ops, cs)
op_eps, op_0 = (op.shifted(lam) for op in ops)
ext = build_extension(mesh, 2 * lat.r1 * eps)
print(f"mesh: {mesh.m_int[0]} interior nodes, h = {mesh.h[0]:.5f}, "
      f"eps = {eps}, shift lam = {lam:g}")

eb_eps = spectral_decompose(op_eps)
eb_0 = spectral_decompose(op_0)

# smooth initial velocity, fourth-order regular by construction
x = mesh.axes()[0]
psi_raw = np.sin(np.pi * x) + 0.3 * np.sin(2 * np.pi * x)
psi = op_0.solve_shifted(0.0, op_0.solve_shifted(0.0, psi_raw))
psi /= l2_norm(mesh, psi)
phi = np.zeros_like(psi)

t_list = [0.5, 1.0, 2.0]
u_eps = solve_ibvp(eb_eps, phi, psi, None, t_list)
u_0 = solve_ibvp(eb_0, phi, psi, None, t_list)
v_eps = u_0.u + eps * Corrector(cell, eps, cs.symbol, ext, lat).apply(u_0.u)
p_eps = flux(u_eps.u, cs, eps, ext, lat)
p_apx = flux_approx(u_0.u, cell, eps, True, cs, ext, lat)

print("\nerror of the effective description at each time")
print(f"{'t':>5} {'|u_eps-u0| L2':>14} {'|u_eps-v_eps| H1':>17} "
      f"{'flux error L2':>14}")
for i, t in enumerate(t_list):
    e_l2 = l2_norm(mesh, u_eps.u[i] - u_0.u[i])
    e_h1 = h1_norm(mesh, u_eps.u[i] - v_eps[i], 1)
    e_fl = l2_norm(mesh, (p_eps[i] - p_apx[i]).ravel())
    print(f"{t:>5.1f} {e_l2:>14.4e} {e_h1:>17.4e} {e_fl:>14.4e}")

drift = np.abs(u_eps.energy / u_eps.energy[0] - 1).max()
print(f"\nenergy drift of the spectral evolution: {drift:.2e}")

dt = 1e-3 * 1.9 / np.sqrt(op_eps.norm1())
u_lf = leapfrog_oracle(op_eps, phi, psi, None, 1.0, dt)
agree = l2_norm(mesh, u_lf - u_eps.u[1]) / l2_norm(mesh, u_eps.u[1])
print(f"leapfrog oracle vs eigendecomposition at t=1: {agree:.2e} relative")
